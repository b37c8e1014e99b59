"""Reduced tracking objective, finite-difference oracle, and steepest descent.

The control is the initial profile u0; the objective is the discrete tracking
functional J = dx/2 * sum_i (u_i(T) - u_d_i)^2 evaluated after a forward solve
of the relaxation system.  The descent loop consumes the discrete-adjoint
gradient; the finite-difference path exists purely as an independent oracle.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .adjoint import assemble_gradient, solve_adjoint
from .core import FluxModel, Grid, RelaxConfig, subchar_speed
from .forward import solve_forward
from .tableau import ImexTableau, builtin_tableau


@dataclass(frozen=True)
class ControlProblem:
    """Everything a reduced-cost evaluation needs besides the control itself.

    `tableau` may be a registry name or an ImexTableau instance.  t_final = 0
    is allowed as a degenerate edge (the forward solve is then the identity),
    which keeps the finite-difference oracle testable without time stepping.
    """

    grid: Grid
    model: FluxModel
    relax: RelaxConfig
    t_final: float
    u_d: np.ndarray
    tableau: Union[str, ImexTableau]
    c_cfl: float = 0.5
    scheme: str = "upwind1"
    limiter: str = "minmod"

    def __post_init__(self):
        object.__setattr__(self, "u_d", np.asarray(self.u_d, dtype=float))
        if self.u_d.shape != (self.grid.n_cells,):
            raise ValueError(
                f"u_d has shape {self.u_d.shape}, expected ({self.grid.n_cells},)")
        if self.t_final < 0:
            raise ValueError(f"t_final must be >= 0, got {self.t_final}")
        if not self.c_cfl > 0:
            raise ValueError(f"c_cfl must be positive, got {self.c_cfl}")

    def resolve_tableau(self) -> ImexTableau:
        if isinstance(self.tableau, ImexTableau):
            return self.tableau
        return builtin_tableau(self.tableau)


class SubcharacteristicError(RuntimeError):
    """A descent iterate breaks the sub-characteristic condition of the frozen speed.

    steepest_descent raises it before the forward solve of an iterate whose
    margin max_i |f'(u0_i)| / a exceeds 1: the frozen speed a no longer
    dominates the iterate's characteristic speeds, so the relaxation
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
    """Descent run summary; cost_history[k] is the cost after k control updates."""

    iterations: int
    final_cost: float
    cost_history: List[float]
    step_size: float
    converged: bool
    wall_time: float
    grad_norm_history: List[float] = field(default_factory=list)
    iter_wall_times: List[float] = field(default_factory=list)


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
    traj = solve_forward(problem, problem.resolve_tableau(), u0, store_stages=False)
    return cost(traj.steps[-1].u, problem.u_d, problem.grid.dx)


def _frozen_speed_problem(problem: ControlProblem, u0: np.ndarray) -> ControlProblem:
    """Freeze the relaxation speed at its value for the base control.

    Recomputing the speed per perturbed solve would make the discrete
    objective non-smooth in u0 (the CFL step count and upwinding weights jump
    with max|f'|), corrupting central differences; the adjoint differentiates
    the scheme at fixed speed, so fixed speed is the consistent comparison.
    """
    if problem.relax.a is not None:
        return problem
    a = subchar_speed(problem.model, np.asarray(u0, float), problem.relax)
    return replace(problem, relax=replace(problem.relax, a=a))


def fd_gradient(problem: ControlProblem, u0: np.ndarray, theta: float = 1e-6) -> np.ndarray:
    """Central-difference gradient oracle, perturbation theta*(1+|u0_i|) per component."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    u0 = np.asarray(u0, dtype=float)
    frozen = _frozen_speed_problem(problem, u0)
    # resolve a registry name once, not once per perturbed solve
    frozen = replace(frozen, tableau=frozen.resolve_tableau())
    grad = np.zeros_like(u0)
    for i in range(u0.size):
        th = theta * (1.0 + abs(u0[i]))
        up = u0.copy()
        up[i] += th
        dn = u0.copy()
        dn[i] -= th
        grad[i] = (reduced_cost(frozen, up) - reduced_cost(frozen, dn)) / (2.0 * th)
    return grad


def steepest_descent(problem: ControlProblem, u0_start: np.ndarray,
                     alpha: float = 0.9, tol: float = 1e-2, max_iter: int = 500,
                     adjoint_form: str = "ark") -> Tuple[np.ndarray, OptimizerReport]:
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
    solve runs.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    tab = problem.resolve_tableau()
    dx = problem.grid.dx
    u0 = np.asarray(u0_start, dtype=float).copy()
    if problem.relax.a is None:
        a = max(subchar_speed(problem.model, u0, problem.relax),
                subchar_speed(problem.model, problem.u_d, problem.relax))
        problem = replace(problem, relax=replace(problem.relax, a=a))
    a = problem.relax.a

    t_start = time.perf_counter()
    costs: List[float] = []
    grad_norms: List[float] = []
    iter_times: List[float] = []
    iterations = 0
    while True:
        margin = float(np.max(np.abs(np.asarray(problem.model.flux_deriv(u0), float)))) / a
        if margin > 1.0:
            raise SubcharacteristicError(iterations, margin, a)
        traj = solve_forward(problem, tab, u0, store_stages=True)
        costs.append(cost(traj.steps[-1].u, problem.u_d, dx))
        if costs[-1] < tol or iterations >= max_iter:
            break
        record = solve_adjoint(traj, problem.u_d, form=adjoint_form)
        grad = assemble_gradient(record, u0, problem.model)
        grad_norms.append(float(np.linalg.norm(grad)))
        u0 = u0 - alpha * (grad / dx)
        iterations += 1
        iter_times.append(time.perf_counter() - t_start)

    final = costs[-1]
    report = OptimizerReport(iterations=iterations, final_cost=final,
                             cost_history=costs, step_size=alpha,
                             converged=final < tol,
                             wall_time=time.perf_counter() - t_start,
                             grad_norm_history=grad_norms,
                             iter_wall_times=iter_times)
    return u0, report


def alpha_sweep(problem: ControlProblem, u0_start: np.ndarray,
                alphas: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                tol: float = 1e-2, max_iter: int = 500):
    """Run steepest_descent once per candidate step size; returns (alpha, report) pairs."""
    out = []
    for alpha in alphas:
        _, report = steepest_descent(problem, u0_start, alpha=alpha, tol=tol,
                                     max_iter=max_iter)
        out.append((float(alpha), report))
    return out


def export_trace(report: OptimizerReport, path: str, header: Optional[str] = None) -> None:
    """Write the descent trace as CSV rows (iter, cost, grad_norm, wall_time_s).

    Row k holds the cost after k updates; the gradient norm is the one
    evaluated at that iterate (nan on the final row, where no further gradient
    was computed).  wall_time_s is cumulative and the only nondeterministic
    column.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("iter,cost,grad_norm,wall_time_s\n")
        for k, c in enumerate(report.cost_history):
            gn = repr(report.grad_norm_history[k]) if k < len(report.grad_norm_history) else "nan"
            wt = repr(report.iter_wall_times[k - 1]) if 0 < k <= len(report.iter_wall_times) else repr(0.0)
            fh.write(f"{k},{c!r},{gn},{wt}\n")
