"""Optimal control of scalar 1-D conservation laws via relaxation and discrete adjoints."""

from .core import (Grid, FluxModel, RelaxState, RelaxConfig, make_grid,
                   burgers_model, advection_model, custom_model,
                   check_flux_deriv, subchar_speed, relax_init)
from .tableau import (ImexTableau, AdjointCoeffs, OrderReport, ZeroWeightError,
                      TableauParseError, make_imex_tableau, adjoint_coeffs,
                      check_order, builtin_tableau, builtin_names, load_tableau_file)
from .spatial import SpatialOp, minmod, apply_dx, apply_dx_linearized, apply_dx_transpose
from .forward import (DivergenceError, Trajectory, imex_step, solve_forward,
                      export_trajectory)
from .adjoint import (CostateState, AdjointSweepRecord, terminal_costate,
                      adjoint_step_ark, adjoint_step_xi, adjoint_step_zeta,
                      solve_adjoint, assemble_gradient, export_gradient)
from .optimize import (ControlProblem, OptimizerReport, SubcharacteristicError, cost,
                       reduced_cost, fd_gradient, steepest_descent, alpha_sweep,
                       export_trace)
from .studies import (OrderStudyResult, TrackingTableRow, GradientReport,
                      fit_order, temporal_order_study, tracking_problem, tracking_table,
                      gradient_report, export_order_study,
                      export_tracking_table, export_gradient_report)

__version__ = "0.1.0"
