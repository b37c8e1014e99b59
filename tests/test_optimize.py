import dataclasses
import inspect

import numpy as np
import pytest

from relaxopt.core import FluxModel, RelaxConfig, burgers_model, make_grid, subchar_speed
from relaxopt.adjoint import assemble_gradient, solve_adjoint
from relaxopt.forward import solve_forward
from relaxopt.optimize import (DEFAULT_ALPHA, ControlProblem, SubcharacteristicError, cost,
                               export_trace, fd_gradient, reduced_cost, steepest_descent,
                               _frozen_speed_problem)
from relaxopt.cli import RunConfig
from relaxopt.studies import tracking_problem, tracking_table
from relaxopt.tableau import builtin_names, builtin_tableau


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


def test_fd_gradient_makes_no_check_order_call_for_a_registered_pair(monkeypatch):
    import relaxopt.tableau as tableau
    calls = []
    check_order = tableau.check_order
    monkeypatch.setattr(tableau, "check_order",
                        lambda *args, **kw: calls.append(1) or check_order(*args, **kw))
    fd_gradient(_problem(n=8, t_final=0.0), np.zeros(8))
    assert calls == []


def test_problem_holds_the_registered_pair_of_its_name():
    prob = _problem(n=8, tableau="bpr-343")
    assert prob.tableau is builtin_tableau("bpr-343")
    assert prob.resolve_tableau() is prob.tableau
    assert dataclasses.replace(prob, t_final=0.1).tableau is prob.tableau
    with pytest.raises(ValueError) as exc:
        _problem(n=8, tableau="nope")
    assert "nope" in str(exc.value)
    assert all(name in str(exc.value) for name in builtin_names())


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
    assert rep.cost_increases == 0


def test_bare_descent_call_converges_on_the_readme_problem():
    # the README's library-use example, with the default step every reader shares
    template = ControlProblem(grid=make_grid(0.0, 2.0 * np.pi, 100), model=burgers_model(),
                              relax=RelaxConfig(epsilon=1e-6), t_final=2.0,
                              u_d=np.zeros(100), tableau="imex-euler")
    _, rep = steepest_descent(tracking_problem(template, 100), np.full(100, 0.5))
    assert rep.converged and rep.iterations == 44 and rep.cost_increases == 0
    assert DEFAULT_ALPHA == 0.097
    for fn in (steepest_descent, tracking_table):
        assert inspect.signature(fn).parameters["alpha"].default == DEFAULT_ALPHA
    assert RunConfig().alpha == DEFAULT_ALPHA


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
    # a NaN margin stops the descent as well: f' = sqrt is NaN where u0 < 0
    root = FluxModel(lambda u: u ** 1.5 / 1.5, np.sqrt, name="root")
    nan_prob = dataclasses.replace(_problem(n=10, a=1.0), model=root)
    with np.errstate(invalid="ignore"), pytest.raises(SubcharacteristicError) as err:
        steepest_descent(nan_prob, np.full(10, -1.0))
    assert err.value.iteration == 0 and np.isnan(err.value.margin)


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
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="t_final must be finite"):
            ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(),
                           t_final=bad, u_d=np.zeros(10), tableau="imex-euler")
        with pytest.raises(ValueError, match="c_cfl must be finite"):
            ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(),
                           t_final=1.0, u_d=np.zeros(10), tableau="imex-euler",
                           c_cfl=bad)
        # a non-finite target used to surface as a NaN cost, or as an error
        # naming u_field from the speed choice of the descent
        u_d = np.zeros(10)
        u_d[3] = bad
        with pytest.raises(ValueError, match="u_d contains non-finite"):
            ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(),
                           t_final=1.0, u_d=u_d, tableau="imex-euler")


def test_fd_gradient_requires_a_finite_theta():
    prob = _problem(n=8, t_final=0.0)
    for bad in (np.inf, np.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="theta"):
            fd_gradient(prob, np.zeros(8), theta=bad)
    # a finite theta whose perturbed cost, or perturbed control, overflows
    # names theta too, not u0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="theta = 1e.300 .*component 0"):
            fd_gradient(prob, np.zeros(8), theta=1e300)
    with pytest.raises(ValueError, match="theta = 1e.308 perturbs u0"):
        fd_gradient(prob, np.ones(8), theta=1e308)


def test_descent_requires_an_integral_max_iter():
    # Grid's rule: 3, 3.0 and np.int64(3) all give 3 updates, and 2.5 raises
    # (it made 3 updates before)
    prob = _problem(n=10, t_final=0.0)
    start = np.full(10, 0.5) + 0.1 * np.sin(prob.grid.centers)
    counts = []
    for good in (3, 3.0, np.int64(3)):
        _, report = steepest_descent(prob, start, tol=1e-30, max_iter=good)
        counts.append(report.iterations)
    assert counts == [3, 3, 3]
    for bad in (2.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="max_iter"):
            steepest_descent(prob, start, tol=1e-30, max_iter=bad)


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


def test_control_problem_compares_and_hashes_by_identity():
    # u_d is an array, so a field-wise == would ask numpy for the truth value of
    # an elementwise comparison
    problem, again = _problem(), _problem()
    assert problem == problem and problem != again
    assert len({problem, again, problem}) == 2
