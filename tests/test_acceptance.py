"""Acceptance battery: the five release criteria, one summary line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the summary lines on
passing runs too (pytest hides captured stdout otherwise).
"""
import time

import numpy as np

from relaxopt.core import (RelaxConfig, RelaxState, burgers_model, make_grid,
                           relax_init, subchar_speed)
from relaxopt.tableau import ImexTableau, builtin_tableau, check_order
from relaxopt.spatial import SpatialOp, apply_dx_linearized, apply_dx_transpose
from relaxopt.forward import imex_step, solve_forward
from relaxopt.adjoint import solve_adjoint, assemble_gradient
from relaxopt.optimize import ControlProblem
from relaxopt.studies import gradient_report, temporal_order_study, tracking_table

from oracles import imex_step_kform, zeta_gradient

BUILTINS = ("imex-euler", "ars-222", "ars-443", "bpr-343")


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def _problem(n, t_final, eps, tableau, u_d=None):
    g = make_grid(0.0, 2.0 * np.pi, n)
    if u_d is None:
        u_d = np.full(n, 0.5)
    return ControlProblem(grid=g, model=burgers_model(),
                          relax=RelaxConfig(epsilon=eps), t_final=t_final,
                          u_d=u_d, tableau=tableau)


def test_acceptance_1_gradient_vs_finite_differences():
    t0 = time.perf_counter()
    worst = {}
    for tableau in ("imex-euler", "ars-222"):
        prob = _problem(50, 0.5, 1e-6, tableau)
        u0 = 0.5 + np.sin(prob.grid.centers)
        worst[tableau] = gradient_report(prob, u0).max_rel_err
    elapsed = time.perf_counter() - t0
    ok = all(err <= 1e-4 for err in worst.values()) and elapsed < 30.0
    _report(1, "adjoint gradient vs central differences", ok,
            "max rel err "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
            + f"; {elapsed:.1f}s")
    for tableau, err in worst.items():
        assert err <= 1e-4, f"{tableau}: max relative error {err:.3e}"
    assert elapsed < 30.0


def test_acceptance_2_tracking_iteration_counts():
    t0 = time.perf_counter()
    reference = {100: 44, 150: 43, 200: 42, 300: 41}
    rows = tracking_table(_problem(100, 2.0, 1e-6, "imex-euler"),
                          [100, 150, 200, 300], tol=1e-2)
    elapsed = time.perf_counter() - t0
    counts = [r.iterations for r in rows]
    within = all(abs(r.iterations - reference[r.n_cells])
                 <= 0.2 * reference[r.n_cells] for r in rows)
    non_increasing = all(b <= a + 1 for a, b in zip(counts, counts[1:]))
    converged = all(r.converged and r.final_cost < 1e-2 for r in rows)
    ok = within and non_increasing and converged and elapsed < 600.0
    _report(2, "tracking iteration counts", ok,
            f"counts {counts} vs reference {list(reference.values())}; {elapsed:.1f}s")
    assert within, f"counts {counts} outside 20% of {list(reference.values())}"
    assert non_increasing, f"counts {counts} increase with N by more than 1"
    assert converged
    assert elapsed < 600.0


def test_acceptance_3_temporal_orders():
    t0 = time.perf_counter()
    template = _problem(64, 0.5, 1.0, "imex-euler")
    results = {name: temporal_order_study(template, name)
               for name in ("imex-euler", "ars-222", "bpr-343")}
    elapsed = time.perf_counter() - t0
    slopes = {name: (res.observed_order, res.observed_gradient_order)
              for name, res in results.items()}
    first_ok = all(abs(s - 1.0) <= 0.2 for s in slopes["imex-euler"])
    second_ok = all(abs(s - 2.0) <= 0.2 for s in slopes["ars-222"])
    third_report = check_order(builtin_tableau("bpr-343"))
    third_ok = (third_report.adjoint_system_order == 3
                and slopes["bpr-343"][1] >= 2.7)
    ok = first_ok and second_ok and third_ok and elapsed < 300.0
    _report(3, "temporal convergence orders", ok,
            ", ".join(f"{k}: fwd {v[0]:.2f} grad {v[1]:.2f}"
                      for k, v in slopes.items()) + f"; {elapsed:.1f}s")
    assert first_ok, f"imex-euler slopes {slopes['imex-euler']}"
    assert second_ok, f"ars-222 slopes {slopes['ars-222']}"
    assert third_report.adjoint_system_order == 3
    assert slopes["bpr-343"][1] >= 2.7, f"bpr-343 gradient slope {slopes['bpr-343'][1]}"
    assert elapsed < 300.0


def test_acceptance_4_algebraic_identities():
    t0 = time.perf_counter()
    model = burgers_model()
    relax = RelaxConfig(epsilon=1e-6)
    defects = {}

    # two formulations of the same step stay together, per step, in the
    # relaxed regime (multi-step walk) and in the stiff one (single step;
    # not every registered tableau is uniformly stable as epsilon -> 0)
    g = make_grid(0.0, 2.0 * np.pi, 50)
    u0 = 0.5 + np.sin(g.centers)
    worst = 0.0
    for eps, n_steps in ((1e-2, 10), (1e-6, 1)):
        a = subchar_speed(model, u0, RelaxConfig(epsilon=eps))
        h = 0.5 * g.dx / a
        for name in BUILTINS:
            tab = builtin_tableau(name)
            op = SpatialOp(g, a, "upwind1")
            y1, y2 = relax_init(u0, model), relax_init(u0, model)
            for _ in range(n_steps):
                y1, _ = imex_step(tab, op, model, eps, y1, h)
                y2 = imex_step_kform(tab, op, model, eps, y2, h)
                worst = max(worst, float(np.max(np.abs(y1.u - y2.u))),
                            float(np.max(np.abs(y1.v - y2.v))))
    defects["step forms"] = (worst, 1e-12)

    # three adjoint recursions produce one gradient
    prob = _problem(50, 0.5, 1e-6, "ars-222")
    a_prob = subchar_speed(model, u0, relax)
    prob = ControlProblem(grid=prob.grid, model=model,
                          relax=RelaxConfig(epsilon=1e-6, a=a_prob),
                          t_final=0.5, u_d=prob.u_d, tableau="ars-222")
    traj = solve_forward(prob, builtin_tableau("ars-222"), u0)
    grads = [assemble_gradient(solve_adjoint(traj, prob.u_d, form=f), u0, model)
             for f in ("ark", "xi")] + [zeta_gradient(traj, prob.u_d, u0)]
    form_defect = max(float(np.max(np.abs(grads[0] - grads[1]))),
                      float(np.max(np.abs(grads[1] - grads[2]))))
    defects["adjoint forms"] = (form_defect, 1e-11)

    # transpose pairing of the spatial operator
    rng = np.random.default_rng(0)
    dot_defect = 0.0
    for scheme in ("upwind1", "muscl2"):
        op = SpatialOp(g, a, scheme)
        base = RelaxState(u0, np.asarray(model.flux(u0), float))
        z = RelaxState(rng.standard_normal(50), rng.standard_normal(50))
        w = RelaxState(rng.standard_normal(50), rng.standard_normal(50))
        fwd = apply_dx_linearized(op, base, z)
        bwd = apply_dx_transpose(op, w, base=base)
        lhs = float(w.u @ fwd.u + w.v @ fwd.v)
        rhs = float(z.u @ bwd.u + z.v @ bwd.v)
        scale = float(np.hypot(np.linalg.norm(z.u), np.linalg.norm(z.v))
                      * np.hypot(np.linalg.norm(w.u), np.linalg.norm(w.v)))
        dot_defect = max(dot_defect, abs(lhs - rhs) / scale)
    defects["transpose dot test"] = (dot_defect, 1e-12)

    # mass is conserved over the full reference horizon
    mass_defect = 0.0
    for tableau, scheme in (("imex-euler", "upwind1"), ("ars-222", "muscl2")):
        gm = make_grid(0.0, 2.0 * np.pi, 100)
        pm = ControlProblem(grid=gm, model=model, relax=relax, t_final=2.0,
                            u_d=np.zeros(100), tableau=tableau, scheme=scheme)
        um = 0.5 + np.sin(gm.centers)
        trajm = solve_forward(pm, builtin_tableau(tableau), um,
                              store_stages=False)
        m0 = gm.dx * float(np.sum(um))
        mT = gm.dx * float(np.sum(trajm.steps[-1].u))
        mass_defect = max(mass_defect, abs(mT - m0) / abs(m0))
    defects["mass conservation"] = (mass_defect, 1e-11)

    # a constant equilibrium state is an exact fixed point
    ge = make_grid(0.0, 2.0 * np.pi, 40)
    ue = np.full(40, 0.7)
    ye = relax_init(ue, model)
    ae = subchar_speed(model, ue, relax)
    eq_defect = 0.0
    for name in BUILTINS:
        ope = SpatialOp(ge, ae, "upwind1")
        y1, _ = imex_step(builtin_tableau(name), ope, model, relax.epsilon,
                          ye, 0.5 * ge.dx / ae)
        eq_defect = max(eq_defect, float(np.max(np.abs(y1.u - ye.u))),
                        float(np.max(np.abs(y1.v - ye.v))))
    defects["equilibrium fixed point"] = (eq_defect, 1e-13)

    elapsed = time.perf_counter() - t0
    ok = all(val <= tol for val, tol in defects.values()) and elapsed < 60.0
    _report(4, "algebraic identities", ok,
            ", ".join(f"{k} {v:.1e}" for k, (v, _) in defects.items())
            + f"; {elapsed:.1f}s")
    for name, (val, tol) in defects.items():
        assert val <= tol, f"{name}: defect {val:.3e} exceeds {tol}"
    assert elapsed < 60.0


def test_acceptance_5_order_condition_checker():
    t0 = time.perf_counter()
    expected = {"imex-euler": 1, "ars-222": 2, "bpr-343": 3}
    orders, residuals = {}, {}
    for name, nominal in expected.items():
        rep = check_order(builtin_tableau(name))
        orders[name] = rep.forward_order
        residuals[name] = max(
            v for k, v in rep.condition_residuals.items()
            if any(k.startswith(f"order{j}") for j in range(1, nominal + 1)))
    gamma = 1.0 - 1.0 / np.sqrt(2.0)
    perturbed = ImexTableau(
        "perturbed", [[0.0, 0.0], [1.0, 0.0]],
        [[gamma, 0.0], [1.0 - 2.0 * gamma, gamma + 1e-3]],
        [0.5, 0.5], [0.5, 0.5])
    perturbed_order = check_order(perturbed).forward_order
    elapsed = time.perf_counter() - t0
    ok = (orders == expected
          and all(r <= 1e-12 for r in residuals.values())
          and perturbed_order < 2 and elapsed < 1.0)
    _report(5, "order-condition checker", ok,
            f"orders {orders}, worst residual {max(residuals.values()):.1e}, "
            f"perturbed certified at {perturbed_order}; {elapsed:.2f}s")
    assert orders == expected
    for name, res in residuals.items():
        assert res <= 1e-12, f"{name}: residual {res:.3e}"
    assert perturbed_order < 2
    assert elapsed < 1.0
