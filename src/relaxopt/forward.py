"""IMEX time integration of the semi-discrete relaxation system.

One step advances  y' = -D_x g(y) + (1/epsilon) r(y)  with the transport term
taken explicitly and the stiff source r(y) = (0, f(u) - v) implicitly.  The
source is linear in v, so every implicit stage solves in closed form; no
Newton iteration is involved and the stepper stays exact for epsilon far
below the step size.

imex_step is the one step: the stage-value form, which also returns the stage
states the adjoint sweep transposes.  The algebraically equivalent slope form
is a test oracle (tests/oracles.py), not library code.

A step reads its coefficients from the tableau's step plan (ImexTableau.plan),
built once with the pair: the nonzero entries as Python floats, so a step
neither slices the coefficient arrays nor compares numpy scalars with zero.
Finite values are checked once per step, on the result, with one sum per
field; only a non-finite sum pays for the elementwise scan, and a failure
names the first non-finite stage (see DivergenceError).  The stage states
and the result are built without re-validating arrays the step just made
(core._pair), and solve_forward enters np.errstate once per solve, not once
per step.  None of this touches an element's floating-point operations or
their order, so results are bit-identical to the per-stage formulation kept
in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import FluxModel, Grid, RelaxState, _pair, relax_init, subchar_speed
from .spatial import SpatialOp, apply_dx
from .tableau import ImexTableau


class DivergenceError(RuntimeError):
    """A time step produced a non-finite state; carries step and stage indices.

    Raised when the result of a step is non-finite.  `stage` names the first
    stage of that step whose state is non-finite, or the last stage when all
    of them are finite and only the update overflowed.  `time` is the start
    time of the failing step when the error comes from solve_forward, and
    None when it comes from a bare imex_step call.
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

    A full record (store_stages=True) has steps[n] at times[n] for every n,
    and stages[n] holds the s stage states used to advance from steps[n] to
    steps[n+1]; the adjoint sweep and export_trajectory need it.  A
    final-only record (store_stages=False) has steps == [y_T] and
    stages == [].  Either way steps[-1] is the state at times[-1] = t_final
    and n_steps counts the steps taken.  dts[n] = times[n+1] - times[n] is
    kept explicitly so the backward sweep reuses the exact forward step
    sizes.  The pair is tab and the relaxation speed is op.a.
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


def _accumulate(out, x, term):
    """x + term when out is still x, else out += term; x itself is never written.

    A combination summed this way allocates its result once, at the first
    term, and adds later terms into it, so a result that outlives the step
    (a stored stage or costate) is allocated before the step's temporaries.
    """
    if out is x:
        return x + term
    out += term
    return out


def _combine(u, v, h: float, terms, trans_u, trans_v, source):
    """(u, v) - h * sum ct (trans_u[j], trans_v[j]) + h * sum ci (0, source[j]) over terms (j, ct, ci).

    Terms are added left to right, and for v the transport term of j before
    its source term; a zero coefficient is skipped.  A component with no term
    is the input array itself.  Each product is rounded before it is added;
    a subtraction is written with a negated coefficient, which IEEE
    arithmetic rounds identically.
    """
    ru, rv = u, v
    for j, ct, ci in terms:
        if ct:
            c = -h * ct
            ru = _accumulate(ru, u, c * trans_u[j])
            rv = _accumulate(rv, v, c * trans_v[j])
        if ci:
            rv = _accumulate(rv, v, (h * ci) * source[j])
    return ru, rv


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
    increments and the implicit weights to the source values.  The
    coefficients come from tab.plan, so zero entries cost nothing.

    Finite values are checked once, on the result: if y_{n+1} has a
    non-finite entry, DivergenceError names step_index and the first stage
    whose u or v is non-finite, or stage s-1 when every stage is finite.  A
    non-finite stage that enters the result only through zero coefficients
    goes unreported.  The check sums each field and scans the elements only
    when that sum is not finite, so a finite state whose sum overflows
    passes.

    A bare call does not silence numpy's floating-point warnings; overflow
    in a step warns unless the caller is inside np.errstate, as
    solve_forward's step loop is.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    u, v = y_n.u, y_n.v
    stages: List[RelaxState] = []
    trans_u, trans_v, source = [], [], []   # per-stage transport increments and source values
    for terms, diag in tab.plan.stages:
        ru, rv = _combine(u, v, h, terms, trans_u, trans_v, source)
        src = np.asarray(model.flux(ru), float) - rv
        src /= eps + h * diag
        stage = _pair(RelaxState, ru, rv + (h * diag) * src)
        stages.append(stage)
        g = apply_dx(op, stage)
        trans_u.append(g.u)
        trans_v.append(g.v)
        source.append(src)
    u1, v1 = _combine(u, v, h, tab.plan.weights, trans_u, trans_v, source)
    if not math.isfinite(float(u1.sum()) + float(v1.sum())) and not _finite(u1, v1):
        bad = (i for i, st in enumerate(stages) if not _finite(st.u, st.v))
        raise DivergenceError(step_index, next(bad, tab.s - 1))
    return _pair(RelaxState, u1, v1), stages


def _finite(u, v) -> bool:
    return bool(np.isfinite(u).all() and np.isfinite(v).all())


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

    With store_stages=True the trajectory keeps every step state and every
    stage, which solve_adjoint and export_trajectory need.  With
    store_stages=False it keeps only the final state (steps == [y_T]), so
    its memory does not grow with the number of steps.
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
    # overflow is reported through DivergenceError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n, hn in enumerate(dts):
            try:
                y, stage_states = imex_step(tab, op, model, relax.epsilon, y, float(hn),
                                            step_index=n)
            except DivergenceError as err:
                # imex_step knows the step index, not the time; add the step's start time
                raise DivergenceError(err.step, err.stage, float(times[n])) from None
            if store_stages:
                steps.append(y)
                stages.append(stage_states)
            else:
                steps[0] = y
    return Trajectory(times=times, steps=steps, stages=stages, h=h,
                      epsilon=relax.epsilon, dts=dts, tab=tab, op=op, model=model)


def export_trajectory(traj: Trajectory, path: str, stride: int = 1,
                      header: Optional[str] = None) -> None:
    """Write the trajectory as CSV rows (t, x, u, v), one row per cell per saved frame.

    Every stride-th frame is written and the final frame always included.
    `header` is an optional provenance comment emitted as a leading '# ' line.
    The trajectory must be a full record (solved with store_stages=True).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if len(traj.steps) != len(traj.times):
        raise ValueError("trajectory keeps only its final state; "
                         "rerun solve_forward with store_stages=True to export frames")
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
