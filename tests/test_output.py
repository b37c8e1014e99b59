"""The CSV writer every exporter shares: cell formatting and all-or-nothing replacement."""

import numpy as np
import pytest

from relaxopt import (OptimizerReport, OrderStudyResult, TrackingTableRow, export_order_study,
                      export_trace, export_tracking_table)
from relaxopt.output import write_csv


def test_cells_format_as_python_scalars(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(str(path), ("a", "b", "c", "d", "e"),
              [(0.1, np.float64(1 / 3), 7, "ars-222", None),
               (float("nan"), np.float64(-0.0), -3, "", None)],
              comments=("first", None, "", "second"))
    assert path.read_bytes() == (b"# first\n# second\na,b,c,d,e\n"
                                 b"0.1,0.3333333333333333,7,ars-222,\n"
                                 b"nan,-0.0,-3,,\n")


class _Boom:
    """A cell whose formatting raises, so a write fails after its first rows."""

    def __float__(self):
        raise RuntimeError("boom")


def _trace(path):
    export_trace(OptimizerReport(cost_history=[1.0, _Boom(), 0.5], converged=False, wall_time=0.0,
                                 grad_norm_history=[2.0, 1.0], iter_wall_times=[0.1, 0.2]),
                 path, header="h")


def _order_study(path):
    levels = [(0.4, 1e-2), (0.2, 2.5e-3), (0.1, 6e-4)]
    res = OrderStudyResult(tableau="ars-222", levels=levels, target_order=2,
                           gradient_levels=list(levels), adjoint_target_order=2)
    # after construction, which fits slopes to the levels
    res.gradient_levels[1] = (0.2, _Boom())
    export_order_study([res], path, header="h")


def _tracking_table(path):
    rows = [TrackingTableRow(100, 44, 0.5, 0.0099), TrackingTableRow(150, 43, 0.6, _Boom())]
    export_tracking_table(rows, path, header="h")


def _rows_that_raise(path):
    # the CLI's control.csv, which cmd_optimize writes with write_csv directly
    def rows():
        yield 0, 0.5
        raise RuntimeError("boom")
    write_csv(path, ("i", "u0"), rows(), comments=("h",))


# export_trajectory's case, a solve that diverges midway, is
# test_forward::test_diverging_export_leaves_the_path_as_it_was
@pytest.mark.parametrize("export", [_trace, _order_study, _tracking_table, _rows_that_raise])
def test_a_failed_export_leaves_the_earlier_file(tmp_path, export):
    path = tmp_path / "out.csv"
    path.write_bytes(b"# earlier run\nN,iterations\n100,44\n")
    with pytest.raises(RuntimeError, match="boom"):
        export(str(path))
    assert path.read_bytes() == b"# earlier run\nN,iterations\n100,44\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
