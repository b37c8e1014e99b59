"""IMEX time integration of the semi-discrete relaxation system.

One step advances  y' = -D_x g(y) + (1/epsilon) r(y)  with the transport term
taken explicitly and the stiff source r(y) = (0, f(u) - v) implicitly.  The
source is linear in v, so every implicit stage solves in closed form; no
Newton iteration is involved and the stepper stays exact for epsilon far
below the step size.

imex_step is the one step: the stage-value form, which also returns the stage
states the adjoint sweep transposes.  The algebraically equivalent slope form
is a test oracle (tests/oracles.py), not library code.  _march is the one
step loop: solve_forward keeps what the adjoint reads from it, and
export_trajectory writes its frames as they are reached.

A step reads its coefficients from a plan built from the pair's arrays for
its step size (_scaled_plan): the products -h*ct, h*ci, eps + h*a_ii and
h*a_ii of the nonzero entries, as read-only 0-d arrays, which numpy takes
as they are, where a Python float operand is converted on every call.  So a
step neither slices the coefficient arrays nor compares numpy scalars with
zero.  Each step looks its plan up itself: _scaled_plan is memoized per
(pair, eps, h) with a fixed-size functools.lru_cache.  A pair keeps
read-only copies of its arrays, so the plan is a pure function of the
three, and its constants are read-only, so every step and solve can share
it.  The steps of a solve, the perturbed solves of fd_gradient and the
iterations of a descent build it once per pair, eps and step size.  A
product term takes its output array positionally, through a name bound once
(_multiply), as in spatial.py, and the flux values enter their one
subtraction as the model returns them.  Each combination of a stage or of
the update is one loop over its plan row, with no Python call per term: the
first term allocates the result as x * c and adds the base to it, which
IEEE arithmetic rounds exactly as base + c * x, and every later term is
formed in the op's scratch array (SpatialOp.work.tmp) and added in place,
so a term allocates no temporary.  Finite values are checked once per step,
on the result, with one reduction over both fields, the dot product u.v:
any non-finite entry makes it non-finite (inf*0 and inf-inf give nan), so
only a non-finite product pays for the elementwise scan, and a failure
names the first non-finite stage (see DivergenceError).  The stage states
and the result are built without re-validating arrays the step just made
(core._pair), and a solve enters np.errstate once, not once per step.  None
of this touches an element's floating-point operations or their order, so
results are bit-identical to the per-stage formulation kept in
tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import List, Optional

import numpy as np

from .core import FluxModel, Grid, RelaxState, _const, _count, _pair, relax_init, subchar_speed
from .output import write_csv
from .spatial import SpatialOp, apply_dx
from .tableau import ImexTableau

# The step's product terms take their output positionally, through a name
# bound once (see spatial.py)
_multiply = np.multiply


class DivergenceError(RuntimeError):
    """A time step produced a non-finite state; carries step and stage indices.

    Raised when the result of a step is non-finite.  `stage` names the first
    stage of that step whose state is non-finite, or the last stage when all
    of them are finite and only the update overflowed.  From solve_forward,
    `step` is the failing step's index and `time` its start time; a bare
    imex_step call is step 0 of its own march and has no time (None).
    """

    def __init__(self, step: int, stage: int, time: Optional[float] = None):
        self.step = step
        self.stage = stage
        self.time = time
        at = f" (t={time:.6g})" if time is not None else ""
        super().__init__(f"non-finite state at step {step}, stage {stage}{at}")


@dataclass(slots=True)
class StoredStage:
    """A forward stage as a full record keeps it: its u, and its v only where it is read.

    The adjoint sweep reads a stored stage's u, for f'(U) in the source
    transpose, and passes the stage to apply_dx_transpose as its base, which
    reads u and v only when the transport operator is not linear (muscl2).
    So v is kept when not op.linear and is None under upwind1.
    """

    u: np.ndarray
    v: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    """Forward solve record: the final state, per-step stage states, and solve metadata.

    steps == [y_T], the state at times[-1] = t_final, whatever the record
    kind; no intermediate step state is kept, since no sweep reads one.  A
    full record (store_stages=True) also has stages[n], the s stages
    (StoredStage) used to advance from step n to step n+1, which the
    adjoint sweep transposes.  A stored stage keeps its v only when op is
    not linear (muscl2), where the transport transpose reads it; under
    upwind1 the record keeps each stage's u alone.  Stage 0 takes no terms,
    so its u is step n's own u array, the only part of that step state the
    record keeps.  A final-only record (store_stages=False) has
    stages == [].  n_steps counts the steps taken, and dts[n] =
    times[n+1] - times[n] is kept explicitly so the backward sweep reuses
    the exact forward step sizes.  The pair is tab and the relaxation speed
    is op.a.
    """

    times: np.ndarray
    steps: List[RelaxState]
    stages: List[List[StoredStage]]
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


@lru_cache(maxsize=64)
def _scaled_plan(tab: ImexTableau, eps: float, h: float) -> tuple:
    """The coefficients of one step of size h, as read-only 0-d arrays (core._const).

    One row per stage, (terms, eps + h*a_ii, h*a_ii), then the update row
    (terms, None, None).  Stage row i's terms hold (j, -h*a_tilde[i, j],
    h*a_impl[i, j]) for each j < i where either entry is nonzero, in order of
    j, and the update row's (j, -h*w_tilde[j], h*w[j]) for each j where
    either weight is nonzero; a zero entry (-0.0 too) gives None.  Each
    constant is the double the step would otherwise form from Python floats
    on every call.  Memoized per (tab, eps, h): the pair's arrays are
    read-only and the plan's constants too, so callers share one plan.
    """
    def row(ct_row, ci_row):
        return tuple((j, _const(-h * ct) if ct else None, _const(h * ci) if ci else None)
                     for j, (ct, ci) in enumerate(zip(ct_row, ci_row)) if ct or ci)
    at, ai = tab.a_tilde.tolist(), tab.a_impl.tolist()
    stages = tuple((row(at[i][:i], ai[i][:i]), _const(eps + h * ai[i][i]), _const(h * ai[i][i]))
                   for i in range(tab.s))
    return stages + ((row(tab.w_tilde.tolist(), tab.w.tolist()), None, None),)


def imex_step(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
              y_n: RelaxState, h: float):
    """One IMEX step in stage-value form; returns (y_{n+1}, stage states).

    Stage i: the u-component is fully explicit (the source has zero first
    component); the v-component solves
        V = rhs + (h*a_ii/eps) * (f(U) - V)
    in closed form, evaluated as src = (f(U) - rhs)/(eps + h*a_ii) and
    V = rhs + h*a_ii*src.  This arrangement avoids amplifying stage rounding
    by 1/eps, so local-equilibrium states (v = f(u) constant) are exact fixed
    points.  The step update applies the explicit weights to the transport
    increments and the implicit weights to the source values.  The
    coefficients come from the pair's plan scaled by h, which the step
    looks up in the memo (_scaled_plan), so zero entries cost nothing and
    no product takes a Python float.

    A combination (u, v) - h * sum ct (trans_u[j], trans_v[j]) + h * sum ci
    (0, source[j]) adds its terms left to right, and for v the transport term
    of j before its source term.  Each product is rounded before it is
    added; a subtraction is written with a negated coefficient, which IEEE
    arithmetic rounds identically.  A component with no term is the input
    array itself, which is never written.

    Finite values are checked once, on the result: if y_{n+1} has a
    non-finite entry, DivergenceError names the first stage whose u or v
    is non-finite, or stage s-1 when every stage is finite.  The step is
    step 0 of its own one-step march, so the error names step 0 and no
    time; solve_forward's loop (_march) relabels it with its own step and
    that step's start time.  A non-finite stage that enters the result only
    through zero coefficients goes unreported.  The check takes the dot
    product of the two fields and scans the elements only when that is not
    finite, so a finite state whose product overflows passes.

    A bare call does not silence numpy's floating-point warnings; overflow
    in a step, or in the check's dot product, warns unless the caller is
    inside np.errstate, as solve_forward's step loop is.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    u, v = y_n.u, y_n.v
    stages: List[RelaxState] = []
    trans_u, trans_v, source = [], [], []   # per-stage transport increments and source values
    tmp = op.work.tmp                       # one product term, before it is added
    # the s stage rows, then the update row (weights, no diagonal)
    for terms, denom, hdiag in _scaled_plan(tab, eps, h):
        ru, rv = u, v
        for j, ct, ci in terms:
            if ct is not None:
                if ru is u:
                    ru = trans_u[j] * ct
                    ru += u
                else:
                    _multiply(trans_u[j], ct, tmp)
                    ru += tmp
                if rv is v:
                    rv = trans_v[j] * ct
                    rv += v
                else:
                    _multiply(trans_v[j], ct, tmp)
                    rv += tmp
            if ci is not None:
                if rv is v:
                    rv = source[j] * ci
                    rv += v
                else:
                    _multiply(source[j], ci, tmp)
                    rv += tmp
        if denom is None:
            break
        src = model.flux(ru) - rv
        src /= denom
        sv = src * hdiag
        sv += rv
        stage = _pair(ru, sv)
        stages.append(stage)
        g = apply_dx(op, stage)
        trans_u.append(g.u)
        trans_v.append(g.v)
        source.append(src)
    if not math.isfinite(ru.dot(rv)) and not _finite(ru, rv):
        bad = (i for i, st in enumerate(stages) if not _finite(st.u, st.v))
        raise DivergenceError(0, next(bad, tab.s - 1))
    return _pair(ru, rv), stages


def _finite(u, v) -> bool:
    return bool(np.isfinite(u).all() and np.isfinite(v).all())


def _plan_steps(t_final: float, h: float) -> np.ndarray:
    """Step sizes covering [0, T]: nominal h with the last step shortened to land on T."""
    if t_final == 0.0:
        return np.zeros(0)
    n_full = int(np.floor(t_final / h + 1e-12))
    n = max(1, n_full + (t_final - n_full * h > 1e-12 * max(1.0, t_final)))
    dts = np.full(n, h)
    dts[-1] = t_final - (n - 1) * h
    return dts


def _initial_record(problem, tab: ImexTableau, u0: np.ndarray,
                    dt: Optional[float]) -> Trajectory:
    """The checked record at time 0 that solve_forward and export_trajectory march from.

    steps == [y_0] and stages == []; times, dts, h, op and the rest already
    describe the whole solve.
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
    op = SpatialOp(grid, a, problem.scheme)
    if dt is not None:
        if not 0 < dt < np.inf:
            raise ValueError(f"dt override must be positive and finite, got {dt}")
        h = float(dt)
    else:
        h = float(problem.c_cfl) * grid.dx / a
        if not h > 0:
            raise ValueError(f"CFL step size must be positive, got {h}")

    dts = _plan_steps(t_final, h)
    times = np.concatenate([[0.0], np.cumsum(dts)]) if len(dts) else np.zeros(1)
    if not abs(times[-1] - t_final) <= 1e-12 * max(1.0, t_final):
        raise AssertionError("step planning failed to land on t_final")
    return Trajectory(times=times, steps=[relax_init(u0, model)], stages=[], h=h,
                      epsilon=relax.epsilon, dts=dts, tab=tab, op=op, model=model)


def _march(traj: Trajectory):
    """Yield (y_{n+1}, stage states of step n) for every step of traj, from traj.steps[0].

    The one step loop.  It keeps no state but the current one, and enters no
    np.errstate: a consumer holds that around its whole loop, so overflow is
    reported through DivergenceError, which gets the failing step's index
    and start time here.
    """
    tab, op, model, eps = traj.tab, traj.op, traj.model, traj.epsilon
    y = traj.steps[0]
    for n, hn in enumerate(traj.dts.tolist()):
        try:
            y, stage_states = imex_step(tab, op, model, eps, y, hn)
        except DivergenceError as err:
            # imex_step is step 0 of its own march; name this march's step and its start time
            raise DivergenceError(n, err.stage, float(traj.times[n])) from None
        yield y, stage_states


def solve_forward(problem, tab: ImexTableau, u0: np.ndarray,
                  store_stages: bool = True, dt: Optional[float] = None) -> Trajectory:
    """Integrate the relaxation system from v = f(u0) to problem.t_final.

    `problem` supplies grid, model, relax (config), t_final, c_cfl and
    scheme.  The step size follows the CFL rule h = c_cfl * dx / a unless
    `dt` overrides it (used by the temporal order studies); the last step is
    shortened to land on t_final exactly.  The relaxation speed a comes from
    problem.relax.a when set, else it is recomputed from u0.  A non-finite
    stage raises DivergenceError with its step, stage and the time at the
    start of that step.

    Either way the trajectory keeps only the final state, steps == [y_T].
    With store_stages=True it also keeps every step's stages, which
    solve_adjoint needs; a stage keeps only what the adjoint reads
    (StoredStage: its u, and its v unless op.linear).  With
    store_stages=False it keeps no stages (stages == []), so its memory does
    not grow with the number of steps.
    """
    traj = _initial_record(problem, tab, u0, dt)
    keep_v = not traj.op.linear   # only a nonlinear transport transpose reads a stage's v
    with np.errstate(over="ignore", invalid="ignore"):
        for y, stage_states in _march(traj):
            traj.steps[0] = y
            if store_stages:
                traj.stages.append([StoredStage(st.u, st.v if keep_v else None)
                                    for st in stage_states])
    return traj


def export_trajectory(problem, tab: ImexTableau, u0: np.ndarray, path: str,
                      stride: int = 1, header: Optional[str] = None) -> Trajectory:
    """Solve as solve_forward does and write the solution as CSV rows (t, x, u, v).

    One row per cell per saved frame: every stride-th step state from time 0,
    and the final one always; stride must be integral (8, 8.0 and
    np.int64(8) all give 8) and at least 1.  `header` is an optional
    provenance comment emitted as a leading '# ' line.  The rows stream through write_csv as the
    solve reaches each frame, so memory does not grow with the number of
    steps or frames, and `path` is replaced only when the solve completes: a
    solve that raises (such as DivergenceError) leaves it as it was.
    Returns the final-only Trajectory (steps == [y_T], stages == []).
    """
    stride = _count(stride, "stride", 1)
    traj = _initial_record(problem, tab, u0, None)
    xs = traj.grid.centers.tolist()
    last = traj.n_steps

    def rows():
        for n, (y, _) in enumerate(chain([(traj.steps[0], None)], _march(traj))):
            traj.steps[0] = y
            if n % stride == 0 or n == last:
                t = float(traj.times[n])
                for x, u, v in zip(xs, y.u.tolist(), y.v.tolist()):
                    yield t, x, u, v

    with np.errstate(over="ignore", invalid="ignore"):
        write_csv(path, ("t", "x", "u", "v"), rows(), comments=(header,))
    return traj
