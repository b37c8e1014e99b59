"""Property test of the inputs each public entry point checks where it enters.

Every draw of a field, finite, infinite or NaN, either builds an object whose
derived values are finite or raises a ValueError that names the field:
Grid's bounds, SpatialOp's speed, ControlProblem's u_d, fd_gradient's theta
and steepest_descent's tol and max_iter.  Sizes stay small (n_cells <= 8,
max_iter <= 5) and every FD or descent call has t_final = 0, so no real solve
runs.  The command line passes its float keys to those checks unchanged: a
value outside a key's domain makes main exit 1 naming the key, with runs
small enough (16 cells, t_final 0.05) that a missed check costs little.
No example database is written (database=None); the cache hypothesis
keeps under .hypothesis/ ignores itself, and the root .gitignore lists it, so
a run leaves no untracked file in the checkout.
"""
import contextlib
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from relaxopt.cli import _COMMANDS, _PROBLEM_FIELDS, main  # noqa: E402
from relaxopt.core import RelaxConfig, burgers_model, make_grid  # noqa: E402
from relaxopt.optimize import ControlProblem, fd_gradient, steepest_descent  # noqa: E402
from relaxopt.spatial import SCHEMES, SpatialOp  # noqa: E402

# finite floats of every size, both infinities and NaN
VALUES = st.floats(allow_nan=True, allow_infinity=True)
N = 8
SETTINGS = settings(database=None, deadline=None, max_examples=60)


def _built_or_named(build, *fields):
    """build(), or None when it raises a ValueError whose message names every field."""
    try:
        return build()
    except ValueError as exc:
        assert all(f in str(exc) for f in fields), (fields, str(exc))
        return None


def _problem(u_d=None):
    g = make_grid(0.0, 2.0 * np.pi, N)
    return ControlProblem(grid=g, model=burgers_model(), relax=RelaxConfig(epsilon=1e-6),
                          t_final=0.0, u_d=np.full(N, 0.5) if u_d is None else u_d,
                          tableau="imex-euler")


@SETTINGS
@given(x_min=VALUES, x_max=VALUES, n_cells=st.integers(2, N))
def test_grid_bounds(x_min, x_max, n_cells):
    grid = _built_or_named(lambda: make_grid(x_min, x_max, n_cells), "x_min", "x_max")
    if grid is not None:
        assert 0 < grid.dx < np.inf
        assert np.all(np.isfinite(grid.centers)) and grid.centers.shape == (n_cells,)


@SETTINGS
@given(a=VALUES, scheme=st.sampled_from(SCHEMES))
def test_spatial_op_speed(a, scheme):
    op = _built_or_named(lambda: SpatialOp(make_grid(0.0, 1.0, N), a, scheme), "speed a")
    if op is not None:
        wk = op.work
        assert all(np.isfinite(c) for c in (wk.a, wk.two_a, wk.a_sq, wk.dx))


@SETTINGS
@given(u_d=st.lists(VALUES, min_size=N, max_size=N))
def test_control_problem_target(u_d):
    problem = _built_or_named(lambda: _problem(np.array(u_d)), "u_d")
    if problem is not None:
        assert np.all(np.isfinite(problem.u_d))


@SETTINGS
@given(theta=VALUES)
def test_fd_gradient_theta(theta):
    problem = _problem()
    u0 = 0.5 + np.sin(problem.grid.centers)
    # a huge theta overflows the perturbed cost, which numpy reports as a
    # warning before fd_gradient raises
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _built_or_named(lambda: fd_gradient(problem, u0, theta=theta), "theta")
    if grad is not None:
        assert grad.shape == (N,) and np.all(np.isfinite(grad))


@SETTINGS
@given(max_iter=st.integers(-2, 5) | st.floats(max_value=5.0)
       | st.sampled_from([np.inf, np.nan]))
def test_descent_max_iter(max_iter):
    problem = _problem()
    u0 = 0.5 + np.sin(problem.grid.centers)
    run = _built_or_named(lambda: steepest_descent(problem, u0, tol=1e-30, max_iter=max_iter),
                          "max_iter")
    if run is not None:
        u, report = run
        assert report.iterations == max_iter
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(report.cost_history))


@SETTINGS
@given(tol=VALUES)
def test_descent_tol(tol):
    # an infinite tol would stop every run before its first update
    problem = _problem()
    u0 = 0.5 + np.sin(problem.grid.centers)
    run = _built_or_named(lambda: steepest_descent(problem, u0, tol=tol, max_iter=2), "tol")
    if run is not None:
        assert 0 < tol < np.inf
        _, report = run
        assert report.converged == (report.final_cost < tol)
        assert (report.iterations == 0) == (report.cost_history[0] < tol)


# Values outside each float key's domain: NaN, both infinities, and the
# finite values the key refuses.  t_final may be 0 except in an order study.
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
_NOT_POSITIVE = _NON_FINITE | st.floats(max_value=0.0)
_OUTSIDE = {
    "x_min": _NON_FINITE,
    "x_max": _NON_FINITE,
    "epsilon": _NOT_POSITIVE,
    "c_cfl": _NOT_POSITIVE,
    "tol": _NOT_POSITIVE,
    "theta": _NOT_POSITIVE,
    "t_final": _NON_FINITE | st.floats(max_value=0.0, exclude_max=True),
    "alpha": _NON_FINITE | st.floats(max_value=0.0) | st.floats(min_value=1.0),
}
# small runs, so that a value the library let through would cost little
_SMALL = {"n_cells": "16", "t_final": "0.05", "grid_sizes": "16", "max_iter": "2",
          "levels": "3", "n_cells_gradient": "16"}
_CLI_CASES = [(command, key) for command, (_, reads) in _COMMANDS.items()
              for key in _PROBLEM_FIELDS + reads if key in _OUTSIDE]


@pytest.mark.parametrize("command, key", _CLI_CASES)
def test_cli_values_outside_their_domain_exit_1_and_name_their_key(command, key, tmp_path,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELAXOPT_OUTPUT_DIR", raising=False)
    reads = _PROBLEM_FIELDS + _COMMANDS[command][1]
    small = [f"--{name.replace('_', '-')}={text}" for name, text in _SMALL.items()
             if name in reads and name != key]
    outside = _OUTSIDE[key]
    if command == "order-study" and key == "t_final":
        outside = _NOT_POSITIVE

    # tmp_path is one directory for every example, and each example checks it is still empty
    @settings(database=None, deadline=None, max_examples=10)
    @given(value=outside)
    def run(value):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, *small, f"--{key.replace('_', '-')}={value!r}"])
        assert rc == 1, (value, err.getvalue())
        assert key in err.getvalue(), (value, err.getvalue())
        assert list(tmp_path.iterdir()) == []
    run()
