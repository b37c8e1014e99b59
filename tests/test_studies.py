import dataclasses

import numpy as np
import pytest

from relaxopt.adjoint import assemble_gradient, solve_adjoint
from relaxopt.core import RelaxConfig, burgers_model, make_grid
from relaxopt.forward import solve_forward
from relaxopt.optimize import ControlProblem, _frozen_speed_problem, fd_gradient
from relaxopt.studies import (OrderStudyResult, TrackingTableRow, consistency_checks,
                              export_order_study, export_tracking_table, fit_order,
                              gradient_report, temporal_order_study, tracking_problem,
                              tracking_table)
from relaxopt.tableau import builtin_tableau


def _template(n=16, eps=1.0, t_final=0.5, a=None):
    g = make_grid(0.0, 2.0 * np.pi, n)
    relax = RelaxConfig(epsilon=eps) if a is None else RelaxConfig(epsilon=eps, a=a)
    return ControlProblem(grid=g, model=burgers_model(), relax=relax,
                          t_final=t_final, u_d=np.zeros(n), tableau="imex-euler")


def test_fit_order_recovers_synthetic_slopes():
    quadratic = [(0.1, 1e-2), (0.05, 2.5e-3), (0.025, 6.25e-4)]
    slope, monotone = fit_order(quadratic)
    assert abs(slope - 2.0) <= 1e-12
    assert monotone

    linear = [(0.2, 4e-1), (0.1, 2e-1), (0.05, 1e-1), (0.025, 5e-2)]
    slope, monotone = fit_order(linear)
    assert abs(slope - 1.0) <= 1e-12
    assert monotone


def test_fit_order_flags_non_monotone_and_drops_zeros():
    bumpy = [(0.1, 1e-2), (0.05, 2e-2), (0.025, 1e-3)]
    _, monotone = fit_order(bumpy)
    assert not monotone

    # a zero error level is dropped from the fit, not treated as -inf
    with_zero = [(0.1, 1e-2), (0.05, 0.0), (0.025, 2.5e-3)]
    slope, monotone = fit_order(with_zero)
    assert abs(slope - 1.0) <= 1e-12
    # a positive error after a zero one breaks monotonicity
    assert not monotone

    # zero errors after a positive or a zero error keep it
    slope, monotone = fit_order([(0.1, 1e-2), (0.05, 0.0), (0.025, 0.0)])
    assert np.isnan(slope)
    assert monotone

    with pytest.raises(ValueError):
        fit_order([(0.1, 1e-2)])


def test_order_study_result_validates_shape():
    good = [(0.1, 1e-2), (0.05, 2e-3), (0.025, 4e-4)]
    with pytest.raises(ValueError):
        OrderStudyResult(tableau="t", levels=good[:2], target_order=1,
                         gradient_levels=good, adjoint_target_order=1)
    shuffled = [good[1], good[0], good[2]]
    with pytest.raises(ValueError):
        OrderStudyResult(tableau="t", levels=shuffled, target_order=1,
                         gradient_levels=good, adjoint_target_order=1)


def test_order_study_result_fits_its_own_levels():
    good = [(0.1, 1e-2), (0.05, 2.5e-3), (0.025, 6.25e-4)]
    bumpy = [(0.1, 1e-2), (0.05, 2e-2), (0.025, 1e-3)]
    res = OrderStudyResult(tableau="t", levels=good, target_order=2,
                           gradient_levels=bumpy, adjoint_target_order=2)
    assert res.observed_order == fit_order(good)[0]
    assert res.observed_gradient_order == fit_order(bumpy)[0]
    assert res.inconclusive
    assert not OrderStudyResult(tableau="t", levels=good, target_order=2,
                                gradient_levels=good, adjoint_target_order=2).inconclusive
    for derived in ("observed_order", "observed_gradient_order", "inconclusive"):
        with pytest.raises(TypeError):
            OrderStudyResult(tableau="t", levels=good, target_order=2, gradient_levels=good,
                             adjoint_target_order=2, **{derived: 1.0})


def test_order_study_rejects_a_zero_horizon_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_forward ran")
    monkeypatch.setattr("relaxopt.studies.solve_forward", no_solve)
    with pytest.raises(ValueError, match="t_final"):
        temporal_order_study(_template(t_final=0.0), "imex-euler")


def test_temporal_order_study_first_order_tableau():
    res = temporal_order_study(_template(), "imex-euler",
                               n_cells_forward=256, n_cells_gradient=128)
    assert res.tableau == "imex-euler"
    assert res.target_order == 1 and res.adjoint_target_order == 1
    assert abs(res.observed_order - 1.0) <= 0.2
    assert abs(res.observed_gradient_order - 1.0) <= 0.2
    assert not res.inconclusive
    hs = [h for h, _ in res.levels]
    assert all(abs(h2 - h1 / 2) <= 1e-15 for h1, h2 in zip(hs, hs[1:]))
    assert len(res.levels) == 4 and len(res.gradient_levels) == 4


def test_temporal_order_study_second_order_tableau():
    res = temporal_order_study(_template(), "ars-222",
                               n_cells_forward=256, n_cells_gradient=128)
    assert res.target_order == 2 and res.adjoint_target_order == 2
    assert abs(res.observed_order - 2.0) <= 0.2
    assert abs(res.observed_gradient_order - 2.0) <= 0.2
    assert not res.inconclusive


def test_temporal_order_study_rejects_too_few_levels():
    with pytest.raises(ValueError):
        temporal_order_study(_template(), "imex-euler", levels=2)


def test_tracking_table_single_grid():
    rows = tracking_table(_template(eps=1e-6, t_final=2.0), [100])
    assert len(rows) == 1
    row = rows[0]
    assert row.n_cells == 100
    assert row.converged
    assert row.final_cost < 1e-2
    assert 40 <= row.iterations <= 48       # reference value is 44
    assert row.wall_time_s > 0.0
    assert row.cost_increases == 0


def test_tracking_table_counts_the_updates_that_raised_the_cost():
    # muscl2 at N = 150: the cost first rises at update 21 and first dips
    # below 0.065 at update 40, so this run converges after 10 rises
    template = dataclasses.replace(_template(eps=1e-6, t_final=2.0), scheme="muscl2")
    row, = tracking_table(template, [150], tol=0.065)
    assert (row.converged, row.iterations, row.cost_increases) == (True, 40, 10)


def test_tracking_problem_takes_an_integral_grid_size():
    # a fractional size is refused by Grid rather than truncated, and the
    # row's size is the grid's
    template = _template()
    with pytest.raises(ValueError, match="n_cells must be an integer"):
        tracking_problem(template, 20.7)
    assert tracking_problem(template, 100.0).grid.n_cells == 100
    row, = tracking_table(template, [100.0], max_iter=0)
    assert type(row.n_cells) is int and row.n_cells == 100


def test_tracking_table_rejects_empty_grid_list():
    with pytest.raises(ValueError):
        tracking_table(_template(), [])


def test_gradient_report_matches_fd():
    tpl = _template(n=50, eps=1e-6)
    prob = dataclasses.replace(tpl, u_d=np.full(50, 0.5), tableau="ars-222")
    u0 = 0.5 + np.sin(prob.grid.centers)
    rep = gradient_report(prob, u0)
    assert rep.max_rel_err <= 1e-6
    frozen = _frozen_speed_problem(prob, u0)
    traj = solve_forward(frozen, frozen.resolve_tableau(), u0, store_stages=True)
    g_adj = assemble_gradient(solve_adjoint(traj, frozen.u_d), u0, frozen.model)
    g_fd = fd_gradient(prob, u0, theta=1e-6)
    assert rep.max_rel_err == np.max(np.abs(g_adj - g_fd)) / np.max(np.abs(g_fd))


def test_gradient_report_zero_gradient_at_attained_target():
    # target generated by the same frozen-speed map: both gradients vanish
    tpl = _template(n=30, eps=1e-6, a=1.8)
    u0 = 0.5 + np.sin(tpl.grid.centers)
    traj = solve_forward(tpl, tpl.resolve_tableau(), u0, store_stages=False)
    prob = dataclasses.replace(tpl, u_d=traj.steps[-1].u)
    traj = solve_forward(prob, prob.resolve_tableau(), u0, store_stages=True)
    g_adj = assemble_gradient(solve_adjoint(traj, prob.u_d), u0, prob.model)
    assert np.max(np.abs(g_adj)) <= 1e-12
    assert np.max(np.abs(fd_gradient(prob, u0, theta=1e-6))) <= 1e-9


@pytest.mark.parametrize("name", ["ars-222", "ars-443"])
def test_consistency_checks_rows(name):
    # ars-443 has a zero weight, so every sweep falls back to xi: nothing to compare
    rows = consistency_checks(_template(n=50, eps=1e-6), builtin_tableau(name), seed=0)
    assert [row[0] for row in rows] == ["weight-consistency", "transpose-dot-test",
                                        "adjoint-form-equivalence", "gradient-vs-fd"]
    forms = rows[2][1]
    assert forms is (None if name == "ars-443" else True)
    assert all(passed is not False for _, passed, _ in rows)


def test_export_order_study_schema(tmp_path):
    res = temporal_order_study(_template(), "imex-euler", levels=3,
                               n_cells_forward=64, n_cells_gradient=48)
    path = tmp_path / "order.csv"
    export_order_study([res], str(path), header="study 1")
    lines = path.read_text().splitlines()
    assert lines[0] == "# study 1"
    assert lines[1] == "tableau,h,err_forward,err_gradient"
    assert len(lines) == 2 + 2 * 3
    fwd, grad = lines[2:5], lines[5:8]
    for ln in fwd:
        parts = ln.split(",")
        assert parts[0] == "imex-euler"
        assert parts[3] == "" and float(parts[2]) >= 0.0
    for ln in grad:
        parts = ln.split(",")
        assert parts[2] == "" and float(parts[3]) >= 0.0

    again = tmp_path / "order2.csv"
    export_order_study([res], str(again), header="study 1")
    assert again.read_bytes() == path.read_bytes()


def test_export_tracking_table_schema(tmp_path):
    rows = [TrackingTableRow(n_cells=100, iterations=44, wall_time_s=1.25,
                             final_cost=0.0099),
            TrackingTableRow(n_cells=150, iterations=43, wall_time_s=2.5,
                             final_cost=0.0098, converged=False)]
    path = tmp_path / "tracking.csv"
    export_tracking_table(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "N,iterations,wall_s,final_cost"
    assert lines[1].split(",")[:2] == ["100", "44"]
    assert float(lines[2].split(",")[3]) == 0.0098

