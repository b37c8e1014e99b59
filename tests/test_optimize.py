import dataclasses

import numpy as np
import pytest

from relaxopt.core import RelaxConfig, burgers_model, make_grid, subchar_speed
from relaxopt.adjoint import assemble_gradient, solve_adjoint
from relaxopt.forward import solve_forward
from relaxopt.optimize import (ControlProblem, SubcharacteristicError, alpha_sweep, cost,
                               export_trace, fd_gradient, reduced_cost, steepest_descent,
                               _frozen_speed_problem)


def _problem(n=50, t_final=0.5, tableau="ars-222", u_d=None, eps=1e-6, a=None):
    g = make_grid(0.0, 2.0 * np.pi, n)
    relax = RelaxConfig(epsilon=eps) if a is None else RelaxConfig(epsilon=eps, a=a)
    if u_d is None:
        u_d = np.full(n, 0.5)
    return ControlProblem(grid=g, model=burgers_model(), relax=relax,
                          t_final=t_final, u_d=u_d, tableau=tableau)


def _tracking_problem(n, tableau="imex-euler"):
    """The reference tracking setup: target generated from 1/2 + sin(x)."""
    g = make_grid(0.0, 2.0 * np.pi, n)
    model = burgers_model()
    src = 0.5 + np.sin(g.centers)
    relax = RelaxConfig(epsilon=1e-6)
    relax = dataclasses.replace(relax, a=subchar_speed(model, src, relax))
    probe = ControlProblem(grid=g, model=model, relax=relax, t_final=2.0,
                           u_d=np.zeros(n), tableau=tableau)
    traj = solve_forward(probe, probe.resolve_tableau(), src, store_stages=False)
    return dataclasses.replace(probe, u_d=traj.steps[-1].u)


def test_cost_values():
    u = np.array([3.0, 4.0])
    assert cost(u, u, 2.0) == 0.0
    assert cost(u, np.zeros(2), 2.0) == 25.0
    ones = np.ones(100)
    assert abs(cost(ones, np.zeros(100), 0.01) - 0.5) <= 1e-15


def test_reduced_cost_at_generated_target_is_zero():
    prob = _tracking_problem(40)
    src = 0.5 + np.sin(prob.grid.centers)
    assert reduced_cost(prob, src) <= 1e-20
    assert reduced_cost(prob, np.full(40, 0.5)) > 0.1


def test_fd_gradient_zero_horizon_limit():
    # T = 0 collapses the map to the identity, so the gradient of the
    # tracking term is exactly dx * (u0 - u_d)
    n = 12
    rng = np.random.default_rng(1)
    u_d = rng.standard_normal(n)
    prob = _problem(n=n, t_final=0.0, u_d=u_d)
    u0 = rng.standard_normal(n)
    grad = fd_gradient(prob, u0)
    assert np.max(np.abs(grad - prob.grid.dx * (u0 - u_d))) <= 1e-9
    # at the minimum the central difference cancels exactly
    prob0 = _problem(n=n, t_final=0.0, u_d=u0)
    assert np.array_equal(fd_gradient(prob0, u0), np.zeros(n))


def test_fd_gradient_checks_registered_tableau_once(monkeypatch):
    import relaxopt.tableau as tableau
    calls = []
    check_order = tableau.check_order
    monkeypatch.setattr(tableau, "check_order",
                        lambda *args, **kw: calls.append(1) or check_order(*args, **kw))
    fd_gradient(_problem(n=8, t_final=0.0), np.zeros(8))
    assert len(calls) == 1


def test_fd_gradient_truncation_is_second_order():
    prob = _problem(n=50)
    u0 = 0.5 + np.sin(prob.grid.centers)
    fp = _frozen_speed_problem(prob, u0)
    traj = solve_forward(fp, fp.resolve_tableau(), u0)
    g_adj = assemble_gradient(solve_adjoint(traj, fp.u_d), u0, fp.model)
    e_big = np.max(np.abs(fd_gradient(prob, u0, theta=2e-3) - g_adj))
    e_small = np.max(np.abs(fd_gradient(prob, u0, theta=1e-3) - g_adj))
    assert 3.5 <= e_big / e_small <= 4.5


def test_descent_converged_start_takes_zero_iterations():
    prob = _tracking_problem(40)
    src = 0.5 + np.sin(prob.grid.centers)
    u0, rep = steepest_descent(prob, src, alpha=0.097, tol=1e-2)
    assert rep.iterations == 0
    assert rep.converged
    assert len(rep.cost_history) == 1
    assert np.array_equal(u0, src)


def test_descent_reproduces_reference_iteration_count():
    prob = _tracking_problem(100)
    _, rep = steepest_descent(prob, np.full(100, 0.5), alpha=0.097,
                              tol=1e-2, max_iter=200)
    assert rep.converged
    assert 40 <= rep.iterations <= 48        # reference value is 44
    assert rep.final_cost < 1e-2
    hist = rep.cost_history
    assert len(hist) == rep.iterations + 1
    assert len(rep.grad_norm_history) == rep.iterations
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_descent_iteration_cap_reports_not_converged():
    prob = _tracking_problem(40)
    _, rep = steepest_descent(prob, np.full(40, 0.5), alpha=0.097,
                              tol=1e-2, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.final_cost >= 1e-2
    assert len(rep.cost_history) == 4


def test_descent_freezes_speed_like_explicit_config():
    # a run with relax.a unset must match one with the frozen speed pre-set
    prob = _tracking_problem(40)
    unset = dataclasses.replace(prob, relax=dataclasses.replace(prob.relax, a=None))
    a = max(subchar_speed(prob.model, np.full(40, 0.5), unset.relax),
            subchar_speed(prob.model, prob.u_d, unset.relax))
    pinned = dataclasses.replace(prob, relax=dataclasses.replace(prob.relax, a=a))
    _, rep_unset = steepest_descent(unset, np.full(40, 0.5), alpha=0.097, max_iter=10)
    _, rep_pinned = steepest_descent(pinned, np.full(40, 0.5), alpha=0.097, max_iter=10)
    assert rep_unset.cost_history == rep_pinned.cost_history


def test_descent_validates_parameters():
    prob = _problem(n=10)
    start = np.full(10, 0.5)
    for bad_alpha in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            steepest_descent(prob, start, alpha=bad_alpha)
    with pytest.raises(ValueError):
        steepest_descent(prob, start, tol=0.0)
    with pytest.raises(ValueError):
        steepest_descent(prob, start, max_iter=-1)


def test_descent_stops_when_an_iterate_outruns_the_frozen_speed():
    # alpha = 0.9 at N=300 overshoots: iterate 5 is the first whose speeds
    # exceed the frozen a (1.2 times the generating profile's top speed),
    # twelve iterations before a solve would turn non-finite
    prob = _tracking_problem(300)
    with pytest.raises(SubcharacteristicError) as err:
        steepest_descent(prob, np.full(300, 0.5), alpha=0.9)
    assert err.value.iteration == 5
    assert err.value.margin == pytest.approx(1.0011, abs=5e-5)
    assert err.value.a == prob.relax.a
    assert "iterate 5" in str(err.value) and f"a = {prob.relax.a:.6g}" in str(err.value)


def test_control_problem_validation():
    g = make_grid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(),
                       t_final=1.0, u_d=np.zeros(9), tableau="imex-euler")
    with pytest.raises(ValueError):
        ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(),
                       t_final=1.0, u_d=np.zeros(10), tableau="imex-euler",
                       c_cfl=0.0)
    with pytest.raises(ValueError):
        ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(),
                       t_final=-0.5, u_d=np.zeros(10), tableau="imex-euler")


def test_alpha_sweep_returns_report_per_candidate():
    prob = _tracking_problem(40)
    out = alpha_sweep(prob, np.full(40, 0.5), alphas=(0.097, 0.2), max_iter=60)
    assert [a for a, _ in out] == [0.097, 0.2]
    assert all(rep.step_size == a for a, rep in out)
    assert all(rep.iterations <= 60 for _, rep in out)


def test_export_trace_schema_and_determinism(tmp_path):
    prob = _tracking_problem(40)
    _, rep = steepest_descent(prob, np.full(40, 0.5), alpha=0.097,
                              tol=1e-2, max_iter=5)
    p1 = tmp_path / "trace1.csv"
    export_trace(rep, str(p1), header="alpha 0.097")
    lines = p1.read_text().splitlines()
    assert lines[0] == "# alpha 0.097"
    assert lines[1] == "iter,cost,grad_norm,wall_time_s"
    assert len(lines) == 2 + len(rep.cost_history)
    first = lines[2].split(",")
    assert first[0] == "0"
    assert float(first[1]) == rep.cost_history[0]
    assert float(first[3]) == 0.0
    last = lines[-1].split(",")
    assert last[0] == str(rep.iterations)
    assert last[2] == "nan"

    # a repeat run differs only in the wall-time column
    _, rep2 = steepest_descent(prob, np.full(40, 0.5), alpha=0.097,
                               tol=1e-2, max_iter=5)
    p2 = tmp_path / "trace2.csv"
    export_trace(rep2, str(p2), header="alpha 0.097")
    strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
    assert strip(p1.read_text()) == strip(p2.read_text())
