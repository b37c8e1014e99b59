"""Reduced tracking objective, finite-difference oracle, and steepest descent.

The control is the initial profile u0; the objective is the discrete tracking
functional J = dx/2 * sum_i (u_i(T) - u_d_i)^2 evaluated after a forward solve
of the relaxation system.  The descent loop consumes the discrete-adjoint
gradient; the finite-difference path exists purely as an independent oracle.
A ControlProblem holds its IMEX pair itself, a registry name being resolved
when the problem is built, so every solve here reads `problem.tableau`.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .adjoint import assemble_gradient, solve_adjoint
from .core import FluxModel, Grid, RelaxConfig, _count, subchar_speed
from .forward import solve_forward
from .output import write_csv
from .tableau import ImexTableau, builtin_tableau

# The descent step that gives the reference iteration counts {44, 43, 42, 41}
# on the tracking setup at N = {100, 150, 200, 300}.
DEFAULT_ALPHA = 0.097


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Everything a reduced-cost evaluation needs besides the control itself.

    `tableau` may be given as an ImexTableau or as a registry name, which
    the constructor resolves to the registered pair (an unknown name raises
    ValueError there), so the field always holds an ImexTableau.  t_final = 0
    is allowed as a degenerate edge (the forward solve is then the identity),
    which keeps the finite-difference oracle testable without time stepping.
    u_d must hold one finite value per cell.  A problem compares and hashes
    by identity, since u_d is an array.
    """

    grid: Grid
    model: FluxModel
    relax: RelaxConfig
    t_final: float
    u_d: np.ndarray
    tableau: ImexTableau
    c_cfl: float = 0.5
    scheme: str = "upwind1"

    def __post_init__(self):
        object.__setattr__(self, "u_d", np.asarray(self.u_d, dtype=float))
        if not isinstance(self.tableau, ImexTableau):
            object.__setattr__(self, "tableau", builtin_tableau(self.tableau))
        if self.u_d.shape != (self.grid.n_cells,):
            raise ValueError(
                f"u_d has shape {self.u_d.shape}, expected ({self.grid.n_cells},)")
        if not np.all(np.isfinite(self.u_d)):
            raise ValueError("u_d contains non-finite entries")
        if not 0 <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if not 0 < self.c_cfl < np.inf:
            raise ValueError(f"c_cfl must be finite and positive, got {self.c_cfl}")

    def resolve_tableau(self) -> ImexTableau:
        """The problem's pair, the `tableau` field."""
        return self.tableau


class SubcharacteristicError(RuntimeError):
    """A descent iterate breaks the sub-characteristic condition of the frozen speed.

    steepest_descent raises it before the forward solve of an iterate whose
    margin max_i |f'(u0_i)| / a exceeds 1 or is NaN: the frozen speed a no
    longer dominates the iterate's characteristic speeds, so the relaxation
    approximation has lost its stability requirement.  `iteration` counts the
    control updates made before that iterate.
    """

    def __init__(self, iteration: int, margin: float, a: float):
        self.iteration = iteration
        self.margin = margin
        self.a = a
        super().__init__(
            f"descent iterate {iteration} breaks the sub-characteristic condition: "
            f"max|f'(u)|/a = {margin:.6g} > 1 with frozen a = {a:.6g}")


@dataclass
class OptimizerReport:
    """Descent run summary; cost_history[k] is the cost after k control updates.

    iterations, final_cost and cost_increases are derived from cost_history.
    converged says only that the last cost fell below tol; cost_increases
    says whether the descent went down on the way there.
    """

    cost_history: List[float]
    converged: bool
    wall_time: float
    grad_norm_history: List[float] = field(default_factory=list)
    iter_wall_times: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of control updates: one fewer than the costs recorded."""
        return len(self.cost_history) - 1

    @property
    def final_cost(self) -> float:
        """Cost of the last control, cost_history[-1]."""
        return self.cost_history[-1]

    @property
    def cost_increases(self) -> int:
        """Number of control updates whose cost exceeds the cost before them."""
        c = self.cost_history
        return sum(b > a for a, b in zip(c, c[1:]))


def cost(u_T: np.ndarray, u_d: np.ndarray, dx: float) -> float:
    """Tracking objective dx/2 * sum (u_T - u_d)^2."""
    u_T = np.asarray(u_T, float)
    u_d = np.asarray(u_d, float)
    if u_T.shape != u_d.shape:
        raise ValueError(f"shape mismatch: {u_T.shape} vs {u_d.shape}")
    d = u_T - u_d
    return 0.5 * dx * float(d @ d)


def reduced_cost(problem: ControlProblem, u0: np.ndarray) -> float:
    """Objective as a function of the control alone: forward solve, then cost at T."""
    traj = solve_forward(problem, problem.tableau, u0, store_stages=False)
    return cost(traj.steps[-1].u, problem.u_d, problem.grid.dx)


def _frozen_speed_problem(problem: ControlProblem, *fields: np.ndarray) -> ControlProblem:
    """Freeze the relaxation speed at the largest speed computed from `fields`.

    Does nothing when problem.relax.a is already set.  Recomputing the speed
    per perturbed solve would make the discrete objective non-smooth in u0
    (the CFL step count and upwinding weights jump with max|f'|), corrupting
    central differences; the adjoint differentiates the scheme at fixed
    speed, so fixed speed is the consistent comparison.
    """
    if problem.relax.a is not None:
        return problem
    a = max(subchar_speed(problem.model, np.asarray(f, float), problem.relax)
            for f in fields)
    return replace(problem, relax=replace(problem.relax, a=a))


def fd_gradient(problem: ControlProblem, u0: np.ndarray, theta: float = 1e-6) -> np.ndarray:
    """Central-difference gradient oracle, perturbation theta*(1+|u0_i|) per component.

    theta must be positive and finite, and so must every perturbed control
    and difference quotient: a theta so large that u0 +- theta*(1+|u0_i|) or
    a perturbed cost overflows raises ValueError.
    """
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
    u0 = np.asarray(u0, dtype=float)
    # the largest perturbed entry, rounded as the loop below rounds it; a
    # non-finite u0 is left to the solves, which name it
    top = float(np.max(np.abs(u0), initial=0.0))
    if math.isfinite(top) and not math.isfinite(top + theta * (1.0 + top)):
        raise ValueError(f"theta = {theta} perturbs u0 beyond the float range")
    frozen = _frozen_speed_problem(problem, u0)
    grad = np.zeros_like(u0)
    for i in range(u0.size):
        th = theta * (1.0 + abs(u0[i]))
        up = u0.copy()
        up[i] += th
        dn = u0.copy()
        dn[i] -= th
        grad[i] = (reduced_cost(frozen, up) - reduced_cost(frozen, dn)) / (2.0 * th)
    if not np.all(np.isfinite(grad)):
        i = int(np.argmin(np.isfinite(grad)))
        raise ValueError(f"theta = {theta} gives a non-finite difference quotient "
                         f"at component {i}")
    return grad


def steepest_descent(problem: ControlProblem, u0_start: np.ndarray,
                     alpha: float = DEFAULT_ALPHA, tol: float = 1e-2,
                     max_iter: int = 500) -> Tuple[np.ndarray, OptimizerReport]:
    """Fixed-step descent on the reduced objective until it drops below tol.

    The update is u0 <- u0 - alpha * (grad / dx): dividing the discrete
    gradient by dx steps along the function-space gradient, which keeps the
    iteration count essentially grid-independent.

    The relaxation speed is frozen for the whole run: problem.relax.a when
    set, else the larger of the speeds computed from the start control and
    from the desired state.  Re-deriving the speed from each iterate would
    change the step size and upwinding between iterations, so the objective
    being minimized would itself drift; in practice that drift destabilizes
    the late iterations on fine grids.  Set relax.a explicitly if the
    iterates may travel outside the speed range spanned by those two fields.
    An iterate whose characteristic speeds exceed the frozen speed
    (max|f'(u0)|/a > 1) raises SubcharacteristicError before its forward
    solve runs.  alpha must lie in (0, 1) and tol in (0, inf), so an
    infinite tol cannot stop the run before its first update; max_iter must
    be integral, as Grid's n_cells is (3, 3.0 and np.int64(3) all give 3).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    max_iter = _count(max_iter, "max_iter", 0)
    dx = problem.grid.dx
    u0 = np.asarray(u0_start, dtype=float).copy()
    problem = _frozen_speed_problem(problem, u0, problem.u_d)
    a = problem.relax.a

    t_start = time.perf_counter()
    costs: List[float] = []
    grad_norms: List[float] = []
    iter_times: List[float] = []
    iterations = 0
    while True:
        margin = float(np.max(np.abs(np.asarray(problem.model.flux_deriv(u0), float)))) / a
        if not margin <= 1.0:   # a NaN margin fails too
            raise SubcharacteristicError(iterations, margin, a)
        traj = solve_forward(problem, problem.tableau, u0, store_stages=True)
        costs.append(cost(traj.steps[-1].u, problem.u_d, dx))
        if costs[-1] < tol or iterations >= max_iter:
            break
        record = solve_adjoint(traj, problem.u_d)
        grad = assemble_gradient(record, u0, problem.model)
        grad_norms.append(float(np.linalg.norm(grad)))
        u0 = u0 - alpha * (grad / dx)
        iterations += 1
        iter_times.append(time.perf_counter() - t_start)

    report = OptimizerReport(cost_history=costs, converged=costs[-1] < tol,
                             wall_time=time.perf_counter() - t_start,
                             grad_norm_history=grad_norms,
                             iter_wall_times=iter_times)
    return u0, report


def export_trace(report: OptimizerReport, path: str, header: Optional[str] = None) -> None:
    """Write the descent trace as CSV rows (iter, cost, grad_norm, wall_time_s).

    Row k holds the cost after k updates; the gradient norm is the one
    evaluated at that iterate (nan on the final row, where no further gradient
    was computed).  wall_time_s is cumulative and the only nondeterministic
    column.
    """
    norms, times = report.grad_norm_history, report.iter_wall_times
    rows = ((k, c, norms[k] if k < len(norms) else float("nan"),
             times[k - 1] if 0 < k <= len(times) else 0.0)
            for k, c in enumerate(report.cost_history))
    write_csv(path, ("iter", "cost", "grad_norm", "wall_time_s"), rows,
              comments=(header,))
