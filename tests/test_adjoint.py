import dataclasses

import numpy as np
import pytest

from relaxopt.core import (RelaxConfig, RelaxState, advection_model,
                           burgers_model, make_grid, relax_init)
from relaxopt.adjoint import (adjoint_step_ark, adjoint_step_xi, assemble_gradient,
                              solve_adjoint, terminal_costate)
from relaxopt.forward import imex_step, solve_forward
from relaxopt.optimize import (ControlProblem, fd_gradient, reduced_cost,
                               steepest_descent, _frozen_speed_problem)
from relaxopt import adjoint as adjoint_module, tableau as tableau_module
from relaxopt.spatial import SpatialOp
from relaxopt.tableau import ImexTableau, ZeroWeightError, builtin_names, builtin_tableau

from oracles import zeta_gradient


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
    assert type(p) is RelaxState
    assert np.array_equal(p.u, np.zeros(3))
    assert np.array_equal(p.v, np.zeros(3))
    p = terminal_costate(u_T, u_T - 1.0, 0.1)
    assert np.allclose(p.u, 0.1, atol=1e-16)
    assert np.array_equal(p.v, np.zeros(3))
    # mismatched shapes and 2-D fields are rejected
    for bad_T, bad_d in ((u_T, u_T[:2]), (np.ones((2, 3)), np.zeros((2, 3)))):
        with pytest.raises(ValueError):
            terminal_costate(bad_T, bad_d, 0.1)


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
    assert abs(fd - pT.u @ delta) <= 1e-8


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

    p_next = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
    p_n = adjoint_step_ark(tab, op, model, eps, stages, p_next, h)

    T = transport_matrix(a, g.dx, n)
    z = np.concatenate([p_next.u, p_next.v])
    star = z - h * (T.T @ z)
    p_star, q_star = star[:n], star[n:]
    k = h / eps
    q_prev = q_star / (1.0 + k)
    p_prev = p_star + k * model.flux_deriv(stages[0].u) * q_prev
    assert np.max(np.abs(p_n.u - p_prev)) <= 1e-14
    assert np.max(np.abs(p_n.v - q_prev)) <= 1e-14


def test_zero_terminal_costate_stays_zero():
    prob, u0 = _tracking_setup(n=20, tableau="ars-222")
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    rec = solve_adjoint(traj, traj.steps[-1].u)   # u_d equals the terminal state
    for c in rec.costates:
        assert np.array_equal(c.u, np.zeros(20))
        assert np.array_equal(c.v, np.zeros(20))
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
                           c_cfl=0.5, scheme="upwind1")
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
        got = np.concatenate([rec.costates[0].u, rec.costates[0].v])
        want = M.T @ np.concatenate([z, np.zeros(n)])
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_three_forms_agree():
    prob, u0 = _tracking_setup(n=32, tableau="ars-222")
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    grads = {"zeta": zeta_gradient(traj, prob.u_d, u0)}
    for form in ("ark", "xi"):
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


# an id without a scheme suffix is the muscl2 case
@pytest.mark.parametrize("form, scheme",
                         [pytest.param(f, "muscl2", id=f) for f in ("ark", "xi")]
                         + [pytest.param(f, "upwind1", id=f"{f}-upwind1")
                            for f in ("ark", "xi")])
def test_sweep_record_keeps_costates_only(form, scheme):
    prob, u0 = _tracking_setup(n=24, tableau="ars-222")
    tab = prob.resolve_tableau()
    traj = solve_forward(dataclasses.replace(prob, scheme=scheme), tab, u0)
    held = [a for st in traj.steps for a in (st.u, st.v)]
    held += [a for step in traj.stages for st in step for a in (st.u, st.v) if a is not None]
    kept = [a.copy() for a in held]
    rec = solve_adjoint(traj, prob.u_d, form=form)
    assert len(rec.costates) == 1   # the time-0 costate, all the gradient reads
    assert type(rec.costates[0]) is RelaxState
    assert rec.stage_costates_tilde == [] and rec.stage_costates == []
    # the sweep wrote into no array of the forward record
    for x, a in zip(kept, held):
        assert np.array_equal(x, a)
    # replaying every step from the terminal costate gives the kept one bit for bit
    step = {"ark": adjoint_step_ark, "xi": adjoint_step_xi}[form]
    p = terminal_costate(traj.steps[-1].u, prob.u_d, traj.grid.dx)
    for n in reversed(range(traj.n_steps)):
        p = step(tab, traj.op, prob.model, traj.epsilon, traj.stages[n], p,
                 float(traj.dts[n]))
    assert np.array_equal(p.u, rec.costates[0].u)
    assert np.array_equal(p.v, rec.costates[0].v)


@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
@pytest.mark.parametrize("name", builtin_names())
def test_sweep_scales_its_plan_once_per_step_size_as_bare_steps_do(monkeypatch, name, scheme):
    # the sweep scales the adjoint plan once per step size, h and the
    # shortened last step, and a bare stepper once per call; both give the
    # same bits on every registered pair, in both forms
    eps = 1.0 if name == "bpr-343" else 1e-6
    prob, u0 = _tracking_setup(n=24, tableau=name, eps=eps)
    prob = dataclasses.replace(prob, scheme=scheme)
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    assert traj.dts[-1] < traj.h
    built, scaled_plan = [0], adjoint_module._scaled_plan

    def counted(*args):
        built[0] += 1
        return scaled_plan(*args)
    monkeypatch.setattr(adjoint_module, "_scaled_plan", counted)
    for form in adjoint_module.FORMS:
        built[0] = 0
        rec = solve_adjoint(traj, prob.u_d, form=form)
        assert built == [2], form
        step = {"ark": adjoint_step_ark, "xi": adjoint_step_xi}[rec.form_used]
        p = terminal_costate(traj.steps[-1].u, prob.u_d, traj.grid.dx)
        for n in reversed(range(traj.n_steps)):
            p = step(tab, traj.op, prob.model, traj.epsilon, traj.stages[n], p,
                     float(traj.dts[n]))
        assert built == [2 + traj.n_steps], form
        assert np.array_equal(p.u, rec.costates[0].u), form
        assert np.array_equal(p.v, rec.costates[0].v), form


def test_zero_weight_tableau_falls_back_to_xi():
    # a consistent pair whose second explicit weight is zero: the ark
    # multipliers are undefined there, so the sweep must switch forms
    tab = ImexTableau("zero-weight",
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
    # the ark step itself refuses the pair, naming the zero weight
    p_T = terminal_costate(traj.steps[-1].u, prob.u_d, traj.grid.dx)
    with pytest.raises(ZeroWeightError, match=r"w_tilde\[4\] = 0"):
        adjoint_step_ark(tab, traj.op, prob.model, traj.epsilon, traj.stages[-1], p_T,
                         float(traj.dts[-1]))
    grad = assemble_gradient(rec, u0, prob.model)
    fd = fd_gradient(prob, u0)
    assert np.max(np.abs(grad - fd)) <= 1e-4 * np.max(np.abs(fd))


def test_descent_reaches_the_xi_fallback_without_a_form_option():
    prob, u0 = _tracking_setup(n=24, tableau="ars-443")
    _, report = steepest_descent(prob, u0, max_iter=1)
    assert len(report.grad_norm_history) == 1
    traj = solve_forward(prob, prob.resolve_tableau(), u0)
    grad = assemble_gradient(solve_adjoint(traj, prob.u_d, form="xi"), u0, prob.model)
    assert report.grad_norm_history[0] == float(np.linalg.norm(grad))


@pytest.mark.parametrize("tableau", ["ars-222", "ars-443"])
def test_sweep_derives_no_coefficients(tableau, monkeypatch):
    # the pair carries its adjoint coefficients (None under a zero weight),
    # so a sweep reads them and never calls adjoint_coeffs
    prob, u0 = _tracking_setup(n=24, tableau=tableau)
    tab = prob.resolve_tableau()
    traj = solve_forward(prob, tab, u0)
    want = solve_adjoint(traj, prob.u_d)

    def underived(pair):
        raise AssertionError("solve_adjoint derived the adjoint coefficients")

    monkeypatch.setattr(tableau_module, "adjoint_coeffs", underived)
    monkeypatch.setattr(adjoint_module, "adjoint_coeffs", underived)
    rec = solve_adjoint(traj, prob.u_d)
    assert rec.form_used == ("ark" if tab.adjoint_coeffs is not None else "xi")
    assert rec.form_used == ("xi" if tableau == "ars-443" else "ark")
    assert np.array_equal(rec.costates[0].u, want.costates[0].u)
    assert np.array_equal(rec.costates[0].v, want.costates[0].v)


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
    rec.costates = [RelaxState(p0, q0)]
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

