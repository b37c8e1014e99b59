import dataclasses

import numpy as np
import pytest

from relaxopt.core import (RelaxConfig, RelaxState, advection_model,
                           burgers_model, make_grid, relax_init)
from relaxopt.adjoint import (CostateState, adjoint_step_ark, adjoint_step_xi,
                              adjoint_step_zeta, assemble_gradient, export_gradient,
                              solve_adjoint, terminal_costate)
from relaxopt.forward import imex_step, solve_forward
from relaxopt.optimize import (ControlProblem, fd_gradient, reduced_cost,
                               _frozen_speed_problem)
from relaxopt.spatial import SpatialOp
from relaxopt.tableau import adjoint_coeffs, builtin_tableau, make_imex_tableau


def upwind_increment(a, dx, u, v):
    """Loop reference for the upwind divergence (shared with the forward tests)."""
    n = len(u)
    fp = [v[i] + a * u[i] for i in range(n)]
    fm = [v[(i + 1) % n] - a * u[(i + 1) % n] for i in range(n)]
    u_face = [(fp[i] - fm[i]) / (2.0 * a) for i in range(n)]
    v_face = [(fp[i] + fm[i]) / 2.0 for i in range(n)]
    out_u = [(v_face[i] - v_face[i - 1]) / dx for i in range(n)]
    out_v = [a * a * (u_face[i] - u_face[i - 1]) / dx for i in range(n)]
    return np.array(out_u), np.array(out_v)


def transport_matrix(a, dx, n):
    """Dense 2n x 2n matrix of the upwind divergence, built from unit vectors."""
    cols = []
    for j in range(2 * n):
        z = np.zeros(2 * n)
        z[j] = 1.0
        du, dv = upwind_increment(a, dx, z[:n], z[n:])
        cols.append(np.concatenate([du, dv]))
    return np.column_stack(cols)


def _tracking_setup(n=50, t_final=0.5, tableau="ars-222", eps=1e-6):
    g = make_grid(0.0, 2.0 * np.pi, n)
    prob = ControlProblem(grid=g, model=burgers_model(),
                          relax=RelaxConfig(epsilon=eps), t_final=t_final,
                          u_d=np.full(n, 0.5), tableau=tableau)
    u0 = 0.5 + np.sin(g.centers)
    return _frozen_speed_problem(prob, u0), u0


def test_terminal_costate_values():
    u_T = np.array([1.0, 2.0, 3.0])
    p = terminal_costate(u_T, u_T, 0.1)
    assert np.array_equal(p.p, np.zeros(3))
    assert np.array_equal(p.q, np.zeros(3))
    p = terminal_costate(u_T, u_T - 1.0, 0.1)
    assert np.allclose(p.p, 0.1, atol=1e-16)
    assert np.array_equal(p.q, np.zeros(3))


def test_terminal_costate_is_cost_gradient():
    # J(u) = dx/2 * sum (u - u_d)^2; terminal costate must be dJ/du
    rng = np.random.default_rng(0)
    u_T = rng.standard_normal(20)
    u_d = rng.standard_normal(20)
    dx = 0.31
    delta = rng.standard_normal(20)
    th = 1e-5
    J = lambda u: 0.5 * dx * np.sum((u - u_d) ** 2)
    fd = (J(u_T + th * delta) - J(u_T - th * delta)) / (2 * th)
    pT = terminal_costate(u_T, u_d, dx)
    assert abs(fd - pT.p @ delta) <= 1e-8


def test_imex_euler_backward_matches_four_line_oracle():
    # independent reference: dense transpose of the transport operator plus
    # the reversed source elimination, composed exactly as the first-order
    # backward scheme is written
    rng = np.random.default_rng(5)
    n = 12
    g = make_grid(0.0, 2.0 * np.pi, n)
    model = burgers_model()
    a, eps = 1.9, 1e-6
    op = SpatialOp(g, a)
    tab = builtin_tableau("imex-euler")
    u = 0.4 + 0.6 * rng.standard_normal(n)
    y = relax_init(u, model)
    h = 0.5 * g.dx / a
    _, stages = imex_step(tab, op, model, eps, y, h)

    p_next = CostateState(rng.standard_normal(n), rng.standard_normal(n))
    p_n = adjoint_step_ark(adjoint_coeffs(tab), tab, op, model, eps,
                           stages, p_next, h)

    T = transport_matrix(a, g.dx, n)
    z = np.concatenate([p_next.p, p_next.q])
    star = z - h * (T.T @ z)
    p_star, q_star = star[:n], star[n:]
    k = h / eps
    q_prev = q_star / (1.0 + k)
    p_prev = p_star + k * model.flux_deriv(stages[0].u) * q_prev
    assert np.max(np.abs(p_n.p - p_prev)) <= 1e-14
    assert np.max(np.abs(p_n.q - q_prev)) <= 1e-14


def test_zero_terminal_costate_stays_zero():
    prob, u0 = _tracking_setup(n=20, tableau="ars-222")
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    rec = solve_adjoint(traj, traj.steps[-1].u)   # u_d equals the terminal state
    for c in rec.costates:
        assert np.array_equal(c.p, np.zeros(20))
        assert np.array_equal(c.q, np.zeros(20))
    assert np.array_equal(assemble_gradient(rec, u0, prob.model), np.zeros(20))


@pytest.mark.parametrize("tableau", ["imex-euler", "ars-222"])
def test_sweep_is_transpose_of_forward_propagator(tableau):
    # linear flux makes every step a fixed linear map; the backward sweep on
    # the full horizon must apply the exact transpose of their composition
    n = 16
    g = make_grid(0.0, 2.0 * np.pi, n)
    model = advection_model(0.8)
    cfg = RelaxConfig(epsilon=1e-4, a=1.1)
    tab = builtin_tableau(tableau)

    from types import SimpleNamespace
    prob = SimpleNamespace(grid=g, model=model, relax=cfg, t_final=0.9,
                           c_cfl=0.5, scheme="upwind1", limiter="minmod")
    u0 = np.sin(g.centers)
    traj = solve_forward(prob, tab, u0)
    op = traj.op

    # dense matrix of one step, column by column (imex_step is linear here)
    def step_matrix(h):
        cols = []
        for j in range(2 * n):
            z = np.zeros(2 * n)
            z[j] = 1.0
            y1, _ = imex_step(tab, op, model, cfg.epsilon,
                              RelaxState(z[:n], z[n:]), h)
            cols.append(np.concatenate([y1.u, y1.v]))
        return np.column_stack(cols)

    M = np.eye(2 * n)
    for h in traj.dts:
        M = step_matrix(float(h)) @ M

    rng = np.random.default_rng(9)
    for _ in range(4):
        z = rng.standard_normal(n)
        u_d = traj.steps[-1].u - z / g.dx     # makes the terminal costate (z, 0)
        rec = solve_adjoint(traj, u_d)
        got = np.concatenate([rec.costates[0].p, rec.costates[0].q])
        want = M.T @ np.concatenate([z, np.zeros(n)])
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_three_forms_agree():
    prob, u0 = _tracking_setup(n=32, tableau="ars-222")
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    grads = {}
    for form in ("ark", "xi", "zeta"):
        rec = solve_adjoint(traj, prob.u_d, form=form)
        assert rec.form_used == form
        grads[form] = assemble_gradient(rec, u0, prob.model)
    assert np.max(np.abs(grads["ark"] - grads["xi"])) <= 1e-11
    assert np.max(np.abs(grads["xi"] - grads["zeta"])) <= 1e-11

    prob_e, u0_e = _tracking_setup(n=32, tableau="imex-euler")
    traj_e = solve_forward(prob_e, prob_e.resolve_tableau(), u0_e)
    g_ark = assemble_gradient(solve_adjoint(traj_e, prob_e.u_d, form="ark"),
                              u0_e, prob_e.model)
    g_xi = assemble_gradient(solve_adjoint(traj_e, prob_e.u_d, form="xi"),
                             u0_e, prob_e.model)
    assert np.max(np.abs(g_ark - g_xi)) <= 1e-12


@pytest.mark.parametrize("form", ["ark", "xi", "zeta"])
def test_sweep_record_keeps_costates_only(form):
    prob, u0 = _tracking_setup(n=24, tableau="ars-222")
    tab = prob.resolve_tableau()
    traj = solve_forward(dataclasses.replace(prob, scheme="muscl2"), tab, u0)
    kept = [np.concatenate([st.u, st.v]) for st in traj.steps]
    rec = solve_adjoint(traj, prob.u_d, form=form)
    assert len(rec.costates) == 1   # the time-0 costate, all the gradient reads
    assert rec.stage_costates_tilde == [] and rec.stage_costates == []
    # the sweep wrote into no forward state
    for x, st in zip(kept, traj.steps):
        assert np.array_equal(x, np.concatenate([st.u, st.v]))
    # replaying every step from the terminal costate gives the kept one bit for bit
    step = {"ark": lambda *a: adjoint_step_ark(adjoint_coeffs(tab), *a),
            "xi": adjoint_step_xi, "zeta": adjoint_step_zeta}[form]
    p = terminal_costate(traj.steps[-1].u, prob.u_d, traj.grid.dx)
    for n in reversed(range(traj.n_steps)):
        p = step(tab, traj.op, prob.model, traj.epsilon, traj.stages[n], p,
                 float(traj.dts[n]))
    assert np.array_equal(p.p, rec.costates[0].p)
    assert np.array_equal(p.q, rec.costates[0].q)


def test_zero_weight_tableau_falls_back_to_xi():
    # a consistent pair whose second explicit weight is zero: the ark
    # multipliers are undefined there, so the sweep must switch forms
    tab = make_imex_tableau("zero-weight",
                           [[0.0, 0.0], [1.0, 0.0]],
                           [[0.5, 0.0], [0.0, 0.5]],
                           [1.0, 0.0], [0.5, 0.5])
    prob, u0 = _tracking_setup(n=24, tableau="imex-euler")
    traj = solve_forward(prob, tab, u0)
    rec = solve_adjoint(traj, prob.u_d, form="ark")
    assert rec.form_used == "xi"
    grad = assemble_gradient(rec, u0, prob.model)
    fd = fd_gradient(prob_with_tab(prob, tab), u0)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(grad - fd)) <= 1e-4 * scale


def prob_with_tab(prob, tab):
    import dataclasses
    return dataclasses.replace(prob, tableau=tab)


def test_builtin_zero_weight_tableau_uses_fallback():
    prob, u0 = _tracking_setup(n=24, tableau="ars-443")
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    rec = solve_adjoint(traj, prob.u_d, form="ark")
    assert rec.form_used == "xi"
    grad = assemble_gradient(rec, u0, prob.model)
    fd = fd_gradient(prob, u0)
    assert np.max(np.abs(grad - fd)) <= 1e-4 * np.max(np.abs(fd))


def test_sweep_is_linear_in_terminal_costate():
    prob, u0 = _tracking_setup(n=20)
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    u_T = traj.steps[-1].u
    rec1 = solve_adjoint(traj, prob.u_d)
    # u_d' chosen so the terminal residual (and hence costate) is scaled by 3
    u_d3 = u_T - 3.0 * (u_T - prob.u_d)
    rec3 = solve_adjoint(traj, u_d3)
    g1 = assemble_gradient(rec1, u0, prob.model)
    g3 = assemble_gradient(rec3, u0, prob.model)
    assert np.max(np.abs(g3 - 3.0 * g1)) <= 1e-13 * max(1.0, np.max(np.abs(g3)))


def test_assemble_gradient_composition():
    # gradient = p0 + f'(u0) * q0 for the relaxation initialization v0 = f(u0)
    n = 10
    rng = np.random.default_rng(2)
    p0 = rng.standard_normal(n)
    q0 = rng.standard_normal(n)
    u0 = rng.standard_normal(n)
    rec = type("R", (), {})()
    rec.costates = [CostateState(p0, q0)]
    c = 1.7
    got = assemble_gradient(rec, u0, advection_model(c))
    assert np.allclose(got, p0 + c * q0, atol=1e-15, rtol=0.0)
    got_b = assemble_gradient(rec, u0, burgers_model())
    assert np.allclose(got_b, p0 + u0 * q0, atol=1e-15, rtol=0.0)


@pytest.mark.parametrize("tableau", ["imex-euler", "ars-222"])
def test_directional_derivatives_match_fd(tableau):
    prob, u0 = _tracking_setup(n=50, tableau=tableau)
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    grad = assemble_gradient(solve_adjoint(traj, prob.u_d), u0, prob.model)
    rng = np.random.default_rng(13)
    th = 1e-6
    for _ in range(10):
        delta = rng.standard_normal(50)
        fd = (reduced_cost(prob, u0 + th * delta)
              - reduced_cost(prob, u0 - th * delta)) / (2 * th)
        dd = float(grad @ delta)
        assert abs(fd - dd) <= max(1e-5 * abs(dd), 1e-9)


def test_componentwise_gradient_error_small():
    prob, u0 = _tracking_setup(n=50, tableau="ars-222")
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    grad = assemble_gradient(solve_adjoint(traj, prob.u_d), u0, prob.model)
    fd = fd_gradient(prob, u0)
    mask = np.abs(fd) > 1e-12
    rel = np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask])
    assert np.max(rel) <= 1e-5


def test_solve_adjoint_requires_stages():
    prob, u0 = _tracking_setup(n=16)
    traj = solve_forward(prob, prob.resolve_tableau(), u0, store_stages=False)
    with pytest.raises(ValueError):
        solve_adjoint(traj, prob.u_d)
    with pytest.raises(ValueError):
        traj2 = solve_forward(prob, prob.resolve_tableau(), u0)
        solve_adjoint(traj2, prob.u_d, form="nope")


def test_export_gradient_schema(tmp_path):
    prob, u0 = _tracking_setup(n=8)
    traj = solve_forward(prob, prob.resolve_tableau(), u0)
    grad = assemble_gradient(solve_adjoint(traj, prob.u_d), u0, prob.model)
    path = tmp_path / "grad.csv"
    export_gradient(prob.grid, u0, grad, str(path), header="case A")
    lines = path.read_text().splitlines()
    assert lines[0] == "# case A"
    assert lines[1] == "i,x,u0,grad"
    assert len(lines) == 2 + 8
    row = lines[2].split(",")
    assert row[0] == "0"
    assert float(row[1]) == prob.grid.centers[0]
    assert float(row[2]) == u0[0]
    assert float(row[3]) == grad[0]
