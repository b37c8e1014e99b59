"""IMEX time integration of the semi-discrete relaxation system.

One step advances  y' = -D_x g(y) + (1/epsilon) r(y)  with the transport term
taken explicitly and the stiff source r(y) = (0, f(u) - v) implicitly.  The
source is linear in v, so every implicit stage solves in closed form; no
Newton iteration is involved and the stepper stays exact for epsilon far
below the step size.

imex_step is the one step: the stage-value form, which also returns the stage
states the adjoint sweep transposes.  The algebraically equivalent slope form
is a test oracle (tests/oracles.py), not library code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import FluxModel, Grid, RelaxState, relax_init, subchar_speed
from .spatial import SpatialOp, apply_dx
from .tableau import ImexTableau


class DivergenceError(RuntimeError):
    """A stage or step produced non-finite values; carries step and stage indices.

    `time` is the start time of the failing step when the error comes from
    solve_forward, and None when it comes from a bare imex_step call.
    """

    def __init__(self, step: int, stage: int, time: Optional[float] = None):
        self.step = step
        self.stage = stage
        self.time = time
        at = f" (t={time:.6g})" if time is not None else ""
        super().__init__(f"non-finite state at step {step}, stage {stage}{at}")


@dataclass
class Trajectory:
    """Forward solve record: step states, per-step stage states, and solve metadata.

    times[n] is the time of steps[n]; stages[n] holds the s stage states used
    to advance from steps[n] to steps[n+1] (empty when stage storage was
    disabled).  dts[n] = times[n+1] - times[n] is kept explicitly so the
    backward sweep reuses the exact forward step sizes.  The pair is tab and
    the relaxation speed is op.a.
    """

    times: np.ndarray
    steps: List[RelaxState]
    stages: List[List[RelaxState]]
    h: float
    epsilon: float
    dts: np.ndarray
    tab: ImexTableau
    op: SpatialOp
    model: FluxModel

    @property
    def grid(self) -> Grid:
        return self.op.grid

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _require_finite(arr, step_index, stage_index):
    if not np.isfinite(arr).all():
        raise DivergenceError(step_index, stage_index)


def imex_step(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
              y_n: RelaxState, h: float, step_index: int = 0):
    """One IMEX step in stage-value form; returns (y_{n+1}, stage states).

    Stage i: the u-component is fully explicit (the source has zero first
    component); the v-component solves
        V = rhs + (h*a_ii/eps) * (f(U) - V)
    in closed form, evaluated as src = (f(U) - rhs)/(eps + h*a_ii) and
    V = rhs + h*a_ii*src.  This arrangement avoids amplifying stage rounding
    by 1/eps, so local-equilibrium states (v = f(u) constant) are exact fixed
    points.  The step update applies the explicit weights to the transport
    increments and the implicit weights to the source values.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    s = tab.s
    at, ai = tab.a_tilde, tab.a_impl
    stages: List[RelaxState] = []
    trans_u, trans_v, source = [], [], []   # per-stage transport increments and source values
    # overflow is reported through DivergenceError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(s):
            ru = y_n.u.copy()
            rv = y_n.v.copy()
            for j in range(i):
                if at[i, j] != 0.0:
                    ru -= (h * at[i, j]) * trans_u[j]
                    rv -= (h * at[i, j]) * trans_v[j]
                if ai[i, j] != 0.0:
                    rv += (h * ai[i, j]) * source[j]
            fu = np.asarray(model.flux(ru), float)
            src = (fu - rv) / (eps + h * ai[i, i])
            vi = rv + (h * ai[i, i]) * src
            _require_finite(ru, step_index, i)
            _require_finite(vi, step_index, i)
            stage = RelaxState(ru, vi)
            stages.append(stage)
            g = apply_dx(op, stage)
            trans_u.append(g.u)
            trans_v.append(g.v)
            source.append(src)
        u1 = y_n.u.copy()
        v1 = y_n.v.copy()
        for i in range(s):
            if tab.w_tilde[i] != 0.0:
                u1 -= (h * tab.w_tilde[i]) * trans_u[i]
                v1 -= (h * tab.w_tilde[i]) * trans_v[i]
            if tab.w[i] != 0.0:
                v1 += (h * tab.w[i]) * source[i]
        _require_finite(u1, step_index, s - 1)
        _require_finite(v1, step_index, s - 1)
    return RelaxState(u1, v1), stages


def _plan_steps(t_final: float, h: float) -> np.ndarray:
    """Step sizes covering [0, T]: nominal h with the last step shortened to land on T."""
    if t_final == 0.0:
        return np.zeros(0)
    n_full = int(np.floor(t_final / h + 1e-12))
    rem = t_final - n_full * h
    if n_full == 0:
        return np.array([t_final])
    if rem > 1e-12 * max(1.0, t_final):
        dts = np.full(n_full + 1, h)
        dts[-1] = rem
    else:
        dts = np.full(n_full, h)
        dts[-1] = t_final - (n_full - 1) * h
    return dts


def solve_forward(problem, tab: ImexTableau, u0: np.ndarray,
                  store_stages: bool = True, dt: Optional[float] = None) -> Trajectory:
    """Integrate the relaxation system from v = f(u0) to problem.t_final.

    `problem` supplies grid, model, relax (config), t_final, c_cfl, scheme and
    limiter.  The step size follows the CFL rule h = c_cfl * dx / a unless
    `dt` overrides it (used by the temporal order studies); the last step is
    shortened to land on t_final exactly.  The relaxation speed a comes from
    problem.relax.a when set, else it is recomputed from u0.  A non-finite
    stage raises DivergenceError with its step, stage and the time at the
    start of that step.
    """
    grid: Grid = problem.grid
    model: FluxModel = problem.model
    relax = problem.relax
    t_final = float(problem.t_final)
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.n_cells,):
        raise ValueError(f"u0 has shape {u0.shape}, expected ({grid.n_cells},)")

    a = relax.a if relax.a is not None else subchar_speed(model, u0, relax)
    op = SpatialOp(grid, a, getattr(problem, "scheme", "upwind1"),
                   getattr(problem, "limiter", "minmod"))
    if dt is not None:
        if not dt > 0:
            raise ValueError(f"dt override must be positive, got {dt}")
        h = float(dt)
    else:
        h = float(problem.c_cfl) * grid.dx / a
        if not h > 0:
            raise ValueError(f"CFL step size must be positive, got {h}")

    dts = _plan_steps(t_final, h)
    times = np.concatenate([[0.0], np.cumsum(dts)]) if len(dts) else np.zeros(1)
    if abs(times[-1] - t_final) > 1e-12 * max(1.0, t_final):
        raise AssertionError("step planning failed to land on t_final")
    y = relax_init(u0, model)
    steps = [y]
    stages: List[List[RelaxState]] = []
    for n, hn in enumerate(dts):
        try:
            y, stage_states = imex_step(tab, op, model, relax.epsilon, y, float(hn),
                                        step_index=n)
        except DivergenceError as err:
            # imex_step knows the step index, not the time; add the step's start time
            raise DivergenceError(err.step, err.stage, float(times[n])) from None
        steps.append(y)
        if store_stages:
            stages.append(stage_states)
    return Trajectory(times=times, steps=steps, stages=stages, h=h,
                      epsilon=relax.epsilon, dts=dts, tab=tab, op=op, model=model)


def export_trajectory(traj: Trajectory, path: str, stride: int = 1,
                      header: Optional[str] = None) -> None:
    """Write the trajectory as CSV rows (t, x, u, v), one row per cell per saved frame.

    Every stride-th frame is written and the final frame always included.
    `header` is an optional provenance comment emitted as a leading '# ' line.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n = traj.grid.n_cells
    xs = traj.grid.centers
    frames = list(range(0, len(traj.times), stride))
    if frames[-1] != len(traj.times) - 1:
        frames.append(len(traj.times) - 1)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("t,x,u,v\n")
        for f in frames:
            t = float(traj.times[f])
            st = traj.steps[f]
            for i in range(n):
                fh.write(f"{t!r},{float(xs[i])!r},{float(st.u[i])!r},{float(st.v[i])!r}\n")
