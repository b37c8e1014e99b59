"""Experiment harness: temporal order studies, tracking tables, gradient checks.

Each study is deterministic given its configuration; re-running reproduces the
CSV outputs byte-for-byte apart from wall-clock columns.  Studies always emit
the raw (h, error) pairs alongside fitted slopes so the numbers can be audited
externally.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import RelaxState, make_grid
from .tableau import ImexTableau, builtin_tableau, check_order
from .spatial import apply_dx_linearized, apply_dx_transpose
from .forward import solve_forward
from .adjoint import FORMS, solve_adjoint, assemble_gradient
from .optimize import (DEFAULT_ALPHA, ControlProblem, steepest_descent, fd_gradient,
                       _frozen_speed_problem)
from .output import write_csv

__all__ = [
    "OrderStudyResult", "TrackingTableRow", "GradientReport",
    "fit_order", "temporal_order_study", "tracking_problem", "tracking_table",
    "gradient_report", "consistency_checks",
    "export_order_study", "export_tracking_table",
]


@dataclass
class OrderStudyResult:
    """Temporal self-convergence data for one tableau.

    levels / gradient_levels hold (h, error) pairs sorted by decreasing h; the
    forward and gradient parts run on their own grids, so their h sequences
    differ.  observed_order, observed_gradient_order and inconclusive are
    derived from the levels with fit_order and are not constructor arguments:
    the observed_* are least-squares slopes of log error vs log h, and
    inconclusive is set when either error sequence fails to decrease
    monotonically (the data is still emitted).
    """
    tableau: str
    levels: List[Tuple[float, float]]
    observed_order: float = field(init=False)
    target_order: int
    gradient_levels: List[Tuple[float, float]]
    observed_gradient_order: float = field(init=False)
    adjoint_target_order: int
    inconclusive: bool = field(init=False)

    def __post_init__(self):
        if len(self.levels) < 3 or len(self.gradient_levels) < 3:
            raise ValueError("an order study needs at least 3 levels")
        for seq in (self.levels, self.gradient_levels):
            hs = [h for h, _ in seq]
            if any(h_next >= h_prev for h_prev, h_next in zip(hs, hs[1:])):
                raise ValueError("levels must be sorted by decreasing h")
        self.observed_order, mono_f = fit_order(self.levels)
        self.observed_gradient_order, mono_g = fit_order(self.gradient_levels)
        self.inconclusive = not (mono_f and mono_g)


@dataclass
class TrackingTableRow:
    """One grid size of the tracking experiment; cost_increases as in OptimizerReport."""
    n_cells: int
    iterations: int
    wall_time_s: float
    final_cost: float
    converged: bool = True
    cost_increases: int = 0


@dataclass
class GradientReport:
    """Adjoint-vs-FD comparison: max_i |adjoint_i - fd_i| / max_j |fd_j|.

    The global denominator max|fd| keeps near-zero components from blowing up
    the error.
    """
    max_rel_err: float


def fit_order(levels: Sequence[Tuple[float, float]]) -> Tuple[float, bool]:
    """Least-squares slope of log(err) vs log(h) and whether errors decrease monotonically.

    Zero errors (exact agreement, e.g. a linear problem) make the slope
    undefined; those levels are dropped from the fit, and a zero error after
    any other error does not break monotonicity (a positive error after a
    zero one does).
    """
    if len(levels) < 2:
        raise ValueError("need at least 2 (h, error) pairs to fit a slope")
    errs = [e for _, e in levels]
    monotone = all(e2 < e1 or e2 == 0.0 for e1, e2 in zip(errs, errs[1:]))
    pts = [(h, e) for h, e in levels if e > 0.0]
    if len(pts) < 2:
        return float("nan"), monotone
    lh = np.log([h for h, _ in pts])
    le = np.log([e for _, e in pts])
    slope = np.polyfit(lh, le, 1)[0]
    return float(slope), monotone


def _default_u0(x: np.ndarray) -> np.ndarray:
    return 0.5 + np.sin(x)


def _h_levels(t_final: float, h_cfl: float, levels: int) -> List[Tuple[int, float]]:
    """(n_steps, h) pairs with h halved per level, starting below the CFL bound.

    Step counts are exact divisors of t_final so every level lands on T with
    uniform steps.
    """
    n0 = int(np.ceil(t_final / h_cfl - 1e-12))
    return [(n0 * 2 ** k, t_final / (n0 * 2 ** k)) for k in range(levels)]


def temporal_order_study(template: ControlProblem, tab, levels: int = 4,
                         n_cells_forward: int = 2048, n_cells_gradient: int = 384,
                         u0_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                         ) -> OrderStudyResult:
    """Self-convergence study of the temporal order of the forward solve and of the gradient.

    The spatial grid is fixed and fine (forward part) so spatial error is
    common to all levels and cancels in the self-convergence differences; the
    gradient part uses a coarser grid because every level must store the
    whole trajectory, with its stages, for the adjoint sweep.  h is halved
    `levels` times starting from the largest uniform step below the CFL
    bound, errors are max-norm deviations from a reference computed at one
    quarter of the finest h, and slopes come from a log-log least-squares
    fit.  The control is u0_fn(x), 0.5 + sin(x) by default, and the
    gradient's target is u_d = 0.5.

    The template's epsilon is used as-is; order studies are meant to run in
    the resolved regime (epsilon = 1.0 in the shipped configuration) where the
    integrator's design order is visible.  Levels must be >= 3 and t_final
    positive; both are checked before any solve runs.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels for an order study, got {levels}")
    if not template.t_final > 0:
        raise ValueError(f"t_final must be positive for an order study, got {template.t_final}")
    if not isinstance(tab, ImexTableau):
        tab = builtin_tableau(tab)
    report = check_order(tab)
    u0_fn = u0_fn or _default_u0
    t_final = template.t_final

    def _part(n_cells: int) -> Tuple[List[Tuple[float, float]], Callable]:
        grid = make_grid(template.grid.x_min, template.grid.x_max, n_cells)
        problem = dataclasses.replace(
            template, grid=grid, u_d=np.full(n_cells, 0.5), tableau=tab)
        u0 = u0_fn(grid.centers)
        frozen = _frozen_speed_problem(problem, u0)
        a = frozen.relax.a
        h_cfl = template.c_cfl * grid.dx / a
        hs = _h_levels(t_final, h_cfl, levels)
        n_ref = hs[0][0] * 2 ** (levels + 1)
        return hs, (frozen, u0, grid, t_final / n_ref)

    def _forward_solution(frozen, u0, h):
        traj = solve_forward(frozen, tab, u0, store_stages=False, dt=h)
        return traj.steps[-1].u

    def _gradient(frozen, u0, h):
        traj = solve_forward(frozen, tab, u0, store_stages=True, dt=h)
        rec = solve_adjoint(traj, frozen.u_d)
        return assemble_gradient(rec, u0, frozen.model)

    hs_f, (frozen_f, u0_f, _, h_ref_f) = _part(n_cells_forward)
    ref_f = _forward_solution(frozen_f, u0_f, h_ref_f)
    fwd_levels = [(h, float(np.max(np.abs(_forward_solution(frozen_f, u0_f, h) - ref_f))))
                  for _, h in hs_f]

    hs_g, (frozen_g, u0_g, _, h_ref_g) = _part(n_cells_gradient)
    ref_g = _gradient(frozen_g, u0_g, h_ref_g)
    grad_levels = [(h, float(np.max(np.abs(_gradient(frozen_g, u0_g, h) - ref_g))))
                   for _, h in hs_g]

    return OrderStudyResult(
        tableau=tab.name, levels=fwd_levels, target_order=report.forward_order,
        gradient_levels=grad_levels, adjoint_target_order=report.adjoint_system_order)


def tracking_problem(template: ControlProblem, n_cells: int) -> ControlProblem:
    """The tracking problem on n_cells cells: its target is generated by a forward solve.

    The desired state u_d is the forward solution at t_final launched from
    0.5 + sin(x).  The relaxation speed is computed from that generating
    profile unless the template fixes one, and the returned problem keeps it,
    so target generation and every later solve share one speed and minimize
    a single well-defined discrete objective.  n_cells must be integral, as
    for Grid (100, 100.0 and np.int64(100) all give 100).
    """
    grid = make_grid(template.grid.x_min, template.grid.x_max, n_cells)
    target_src = _default_u0(grid.centers)
    probe = _frozen_speed_problem(
        dataclasses.replace(template, grid=grid, u_d=np.zeros(grid.n_cells)), target_src)
    traj = solve_forward(probe, probe.tableau, target_src, store_stages=False)
    return dataclasses.replace(probe, u_d=traj.steps[-1].u)


def tracking_table(template: ControlProblem, grid_sizes: Sequence[int],
                   alpha: float = DEFAULT_ALPHA, tol: float = 1e-2,
                   max_iter: int = 500) -> List[TrackingTableRow]:
    """Run the tracking experiment once per grid size and tabulate the results.

    Per grid: the problem comes from tracking_problem, the optimizer starts
    from the constant 0.5, and the row records iterations, the descent's wall
    time, final cost and the number of updates that raised the cost.  The
    default step size is calibrated so the shipped configuration reproduces
    the reference iteration counts {44, 43, 42, 41} on N = {100, 150, 200,
    300}.  Non-convergence is recorded in the row (converged=False), never
    raised.  Rows come back in the order of grid_sizes regardless of how
    long each takes.
    """
    if len(grid_sizes) == 0:
        raise ValueError("grid_sizes must be nonempty")
    rows: List[TrackingTableRow] = []
    for n in grid_sizes:
        problem = tracking_problem(template, n)
        u0_start = np.full(problem.grid.n_cells, 0.5)
        _, rep = steepest_descent(problem, u0_start, alpha=alpha, tol=tol,
                                  max_iter=max_iter)
        rows.append(TrackingTableRow(n_cells=problem.grid.n_cells, iterations=rep.iterations,
                                     wall_time_s=rep.wall_time,
                                     final_cost=rep.final_cost,
                                     converged=rep.converged,
                                     cost_increases=rep.cost_increases))
    return rows


def gradient_report(problem: ControlProblem, u0: np.ndarray,
                    theta: float = 1e-6) -> GradientReport:
    """Compare the adjoint gradient against central finite differences with step theta.

    The FD baseline freezes the relaxation speed at its u0 value so both
    gradients differentiate the same discrete map.
    """
    u0 = np.asarray(u0, dtype=float)
    frozen = _frozen_speed_problem(problem, u0)
    traj = solve_forward(frozen, frozen.tableau, u0, store_stages=True)
    rec = solve_adjoint(traj, frozen.u_d)
    g_adj = assemble_gradient(rec, u0, frozen.model)
    g_fd = fd_gradient(problem, u0, theta=theta)
    scale = float(np.max(np.abs(g_fd)))
    denom = scale if scale > 0.0 else 1.0
    rel = np.abs(g_adj - g_fd) / denom
    return GradientReport(max_rel_err=float(np.max(rel)))


def consistency_checks(template: ControlProblem, tab: ImexTableau, seed: int = 0,
                       theta: float = 1e-6) -> List[Tuple[str, Optional[bool], str]]:
    """(name, passed, detail) rows for the pair's weights, transpose, adjoint forms and gradient.

    The problem is the template's with the pair `tab`, target u_d = 0.5 and
    control 0.5 + sin(x), its relaxation speed frozen at the control's.  The rows, in
    order: both weight vectors sum to 1 (1e-12); the transpose stencil pairs
    with the linearized one on random vectors drawn from `seed` (1e-12); the
    gradients of every adjoint form agree (1e-11); the adjoint gradient
    matches central differences with step theta (1e-4).  passed is None for
    the form comparison when a zero weight leaves only the xi form.  theta
    must be finite and positive, which is checked before any solve runs.
    """
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
    checks: List[Tuple[str, Optional[bool], str]] = []

    weight_res = max(abs(float(np.sum(tab.w_tilde)) - 1.0),
                     abs(float(np.sum(tab.w)) - 1.0))
    checks.append(("weight-consistency", weight_res <= 1e-12,
                   f"max |sum(weights) - 1| = {weight_res:.2e}"))

    grid, model = template.grid, template.model
    u0 = _default_u0(grid.centers)
    problem = _frozen_speed_problem(
        dataclasses.replace(template, u_d=np.full(grid.n_cells, 0.5), tableau=tab), u0)
    traj = solve_forward(problem, tab, u0, store_stages=True)

    rng = np.random.default_rng(seed)
    z_u, z_v = rng.standard_normal(grid.n_cells), rng.standard_normal(grid.n_cells)
    w_u, w_v = rng.standard_normal(grid.n_cells), rng.standard_normal(grid.n_cells)
    base = RelaxState(u0, np.asarray(model.flux(u0), float))
    fwd = apply_dx_linearized(traj.op, base, RelaxState(z_u, z_v))
    bwd = apply_dx_transpose(traj.op, RelaxState(w_u, w_v), base=base)
    lhs = float(w_u @ fwd.u + w_v @ fwd.v)
    rhs = float(z_u @ bwd.u + z_v @ bwd.v)
    scale = max(1e-30,
                float(np.linalg.norm(np.concatenate([z_u, z_v]))
                      * np.linalg.norm(np.concatenate([w_u, w_v]))))
    dot_rel = abs(lhs - rhs) / scale
    checks.append(("transpose-dot-test", dot_rel <= 1e-12,
                   f"relative defect = {dot_rel:.2e}"))

    if tab.adjoint_coeffs is None:
        # every sweep falls back to xi, so there is no second form to compare
        checks.append(("adjoint-form-equivalence", None,
                       "a zero weight leaves only the xi form"))
    else:
        records = [solve_adjoint(traj, problem.u_d, form=form) for form in FORMS]
        grads = [assemble_gradient(rec, u0, model) for rec in records]
        form_diff = max(float(np.max(np.abs(g - g_next)))
                        for g, g_next in zip(grads, grads[1:]))
        used = ",".join(rec.form_used for rec in records)
        checks.append(("adjoint-form-equivalence", form_diff <= 1e-11,
                       f"max gradient difference = {form_diff:.2e} over {used}"))

    rep = gradient_report(problem, u0, theta=theta)
    checks.append(("gradient-vs-fd", rep.max_rel_err <= 1e-4,
                   f"max relative error = {rep.max_rel_err:.2e} (theta={theta})"))
    return checks


def export_order_study(results: Sequence[OrderStudyResult], path: str,
                       header: Optional[str] = None) -> None:
    """CSV with columns tableau,h,err_forward,err_gradient.

    Forward and gradient levels run on different grids with different h
    sequences, so each row carries one error and leaves the other column
    empty.
    """
    rows = []
    for res in results:
        rows += [(res.tableau, h, err, None) for h, err in res.levels]
        rows += [(res.tableau, h, None, err) for h, err in res.gradient_levels]
    write_csv(path, ("tableau", "h", "err_forward", "err_gradient"), rows,
              comments=(header,))


def export_tracking_table(rows: Sequence[TrackingTableRow], path: str,
                          header: Optional[str] = None) -> None:
    """CSV with columns N,iterations,wall_s,final_cost."""
    write_csv(path, ("N", "iterations", "wall_s", "final_cost"),
              [(r.n_cells, r.iterations, r.wall_time_s, r.final_cost) for r in rows],
              comments=(header,))

