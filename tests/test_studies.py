import dataclasses
import math

import numpy as np
import pytest

from relaxopt.core import RelaxConfig, burgers_model, make_grid
from relaxopt.forward import solve_forward
from relaxopt.optimize import ControlProblem
from relaxopt.studies import (GradientReport, OrderStudyResult, TrackingTableRow,
                              export_gradient_report, export_order_study,
                              export_tracking_table, fit_order, gradient_report,
                              temporal_order_study, tracking_table)


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
    slope, _ = fit_order(with_zero)
    assert abs(slope - 1.0) <= 1e-12

    with pytest.raises(ValueError):
        fit_order([(0.1, 1e-2)])


def test_order_study_result_validates_shape():
    good = [(0.1, 1e-2), (0.05, 2e-3), (0.025, 4e-4)]
    with pytest.raises(ValueError):
        OrderStudyResult(tableau="t", levels=good[:2], observed_order=1.0,
                         target_order=1, gradient_levels=good,
                         observed_gradient_order=1.0, adjoint_target_order=1,
                         inconclusive=False)
    shuffled = [good[1], good[0], good[2]]
    with pytest.raises(ValueError):
        OrderStudyResult(tableau="t", levels=shuffled, observed_order=1.0,
                         target_order=1, gradient_levels=good,
                         observed_gradient_order=1.0, adjoint_target_order=1,
                         inconclusive=False)


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


def test_tracking_table_rejects_empty_grid_list():
    with pytest.raises(ValueError):
        tracking_table(_template(), [])


def test_gradient_report_matches_fd():
    tpl = _template(n=50, eps=1e-6)
    prob = dataclasses.replace(tpl, u_d=np.full(50, 0.5), tableau="ars-222")
    u0 = 0.5 + np.sin(prob.grid.centers)
    rep = gradient_report(prob, u0)
    assert rep.max_rel_err <= 1e-6
    assert rep.mean_rel_err <= rep.max_rel_err
    assert rep.theta == 1e-6
    assert 0.0 < rep.richardson < 1e-6
    assert len(rep.rows) == 50
    idx, xs, adj, fd, rel = zip(*rep.rows)
    assert list(idx) == list(range(50))
    assert np.allclose(xs, prob.grid.centers)
    assert max(rel) == rep.max_rel_err


def test_gradient_report_zero_gradient_at_attained_target():
    # target generated by the same frozen-speed map: both gradients vanish
    tpl = _template(n=30, eps=1e-6, a=1.8)
    u0 = 0.5 + np.sin(tpl.grid.centers)
    traj = solve_forward(tpl, tpl.resolve_tableau(), u0, store_stages=False)
    prob = dataclasses.replace(tpl, u_d=traj.steps[-1].u)
    rep = gradient_report(prob, u0, theta=1e-6)
    assert all(abs(ga) <= 1e-12 for _, _, ga, _, _ in rep.rows)
    assert all(abs(gf) <= 1e-9 for _, _, _, gf, _ in rep.rows)


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


def test_export_gradient_report_schema(tmp_path):
    rep = GradientReport(rows=[(0, 0.1, 1.0, 1.0 + 1e-9, 1e-9),
                               (1, 0.3, -2.0, -2.0, 0.0)],
                         max_rel_err=1e-9, mean_rel_err=5e-10,
                         theta=1e-6, richardson=2e-10)
    path = tmp_path / "grad.csv"
    export_gradient_report(rep, str(path), header="case A")
    lines = path.read_text().splitlines()
    assert lines[0] == "# case A"
    assert lines[1].startswith("# theta=1e-06 max_rel_err=1e-09")
    assert "richardson=2e-10" in lines[1]
    assert lines[2] == "i,x,adjoint_grad,fd_grad,rel_err"
    assert len(lines) == 5
    assert lines[3].split(",")[0] == "0"
    assert math.isclose(float(lines[4].split(",")[2]), -2.0)
