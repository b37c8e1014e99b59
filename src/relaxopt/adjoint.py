"""Backward costate sweeps for the discrete forward scheme, and gradient assembly.

A costate is a RelaxState on the same cell pair as the state: its u part
(p) is adjoint to u and its v part (q) is adjoint to v, as the discrete
adjoint is the transpose of the same 2x2 relaxation system.

solve_adjoint is the one sweep.  Its steps transpose the linearized forward
step exactly, so the assembled gradient is the exact gradient of the
discrete objective.  Every step runs one function, _adjoint_step, through
a coefficient plan of one of two forms, built here from the pair's arrays
(_scaled_plan):

* ark: stage-costate form (Hager's transformed adjoint), from
  ImexTableau.adjoint_coeffs; needs every tableau weight nonzero (default
  path).
* xi: scaled-variable form, from the pair's entries; never divides by a
  weight (automatic fallback when ImexTableau.adjoint_coeffs is None).

adjoint_step_ark and adjoint_step_xi name the two forms and take the same
arguments, so solve_adjoint picks one before its loop.  The increment
(zeta) form is a third, algebraically equal recursion; it is kept in
tests/oracles.py as the oracle both forms are checked against.

Each backward stage inverts the same scalar-linear implicit relation as the
forward solver, in closed form.  The transport transpose reuses the stored
forward stages, which also freeze the limiter choices of the second-order
scheme.  A step reads a stage only through its u (for f'(U) in the source
transpose) and passes the stage on as the base of apply_dx_transpose, so
the RelaxState stages of a bare imex_step and the StoredStage entries of a
full record, which keep no v under the linear upwind1 operator, work alike.
A step keeps only the costate it returns; its per-stage variables are
dropped when the step ends, and the sweep keeps only the time-zero costate
that the gradient reads.  The source transpose reads only the q part of a
stage costate, so no step computes the p part.  A step calls
apply_dx_transpose on its own sums and returns its own sums, both wrapped
as RelaxStates without re-validation (core._pair).

A plan holds the nonzero coefficients scaled for one step size: the
products -h*c, the stage solve's 1 + h*a_ii/eps, the starts that are not
1.0 and eps itself, as read-only 0-d arrays, which numpy takes as they are,
where a Python float operand is converted on every call.  Each stepper
looks its plan up itself: _scaled_plan is memoized per (form, pair, eps, h)
with a fixed-size functools.lru_cache, as the forward plan is, so a sweep
builds one plan per distinct step size and a descent's sweeps after the
first build none.  So a step indexes no tableau array, forms no coefficient
and builds no term lists, and its product terms take their output
positionally through a name bound once (_multiply).  Each combination is
one loop over its plan row, with no Python call per term: as in imex_step,
the first term allocates the result as x * c and adds the base, and every
later term is formed in the op's scratch array (SpatialOp.work.tmp) and
added in place.  The step stores the source's second component as q / eps
and puts its sign on the coefficients.  Through the ark plan it is
bit-identical to the array-indexing version kept in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Union

import numpy as np

from .core import FluxModel, RelaxState, _const, _pair
from .forward import StoredStage, Trajectory
from .spatial import SpatialOp, apply_dx_transpose
from .tableau import ImexTableau, adjoint_coeffs

FORMS = ("ark", "xi")

# The step's product terms take their output positionally, through a name
# bound once (see spatial.py)
_multiply = np.multiply

# A step's stages, as imex_step returns them or as a full record stores them:
# the steppers read each stage's u and pass the stage on as the transpose's base.
Stage = Union[RelaxState, StoredStage]


@dataclass
class AdjointSweepRecord:
    """Backward sweep output mirroring the forward Trajectory's indexing.

    costates holds one costate, the one at times[0] that assemble_gradient
    reads; the sweep drops every later costate once the step before it is
    done.  stage_costates_tilde and stage_costates are always empty lists:
    the sweep stores no per-stage variables.  All three stay lists so that
    code taking their len() (the benchmark's record byte count) keeps
    working.
    """

    costates: List[RelaxState]
    stage_costates_tilde: List[List[RelaxState]]
    stage_costates: List[List[RelaxState]]
    form_used: str


def terminal_costate(u_T: np.ndarray, u_d: np.ndarray, dx: float) -> RelaxState:
    """Gradient of the tracking objective dx/2 * sum (u_T - u_d)^2 at the final time.

    The v-component of the state does not enter the objective, so the costate's
    v part starts at zero; its u part carries the dx weight so the assembled
    gradient differentiates the discrete objective itself.  Both inputs must
    be 1-D fields of one length; the costate is built from them without
    re-validation (core._pair).
    """
    u_T = np.asarray(u_T, dtype=float)
    u_d = np.asarray(u_d, dtype=float)
    if u_T.shape != u_d.shape or u_T.ndim != 1:
        raise ValueError(f"u_T and u_d must be 1-D fields of equal length, "
                         f"got {u_T.shape} and {u_d.shape}")
    return _pair(dx * (u_T - u_d), np.zeros_like(u_T))


@lru_cache(maxsize=64)
def _scaled_plan(form: str, tab: ImexTableau, eps: float, h: float) -> tuple:
    """The coefficients of one adjoint step of size h in `form`, in the order it uses them.

    Returns (eps, rows), eps being the divisor of the source costates.
    Every constant is a read-only 0-d array (core._const), the double
    _adjoint_step would otherwise form from Python floats on every call.
    Stage rows come for i = s-1 down to 0, as (i, start_t, start_q, coupled,
    trans, src, solve): the stage's accumulator starts at start_t times the
    next costate and the q part of its source costate at start_q times its
    q, a start being None where it is 1.0.  coupled holds (j, -h*cf_t,
    (h*cf_s, -(h*cf_s))) for each j > i where either coefficient is nonzero,
    with None for a zero one (-0.0 too); trans holds (j, -(h*cf)) for each
    nonzero cf with j >= i, src the same for j > i, and solve is
    1.0 + h*a_impl[i, i]/eps.  The update row (None, None, None, weights,
    (), (), None) follows, weights in the format of coupled.

    "ark" reads tab.adjoint_coeffs: coupled w_tilde[j] - alpha_tilde[i, j]
    and w[j] - alpha[i, j], trans w_tilde[j] - beta_tilde[i, j], src
    w[j] - beta[i, j], starts 1.0 and the pair's weights.  "xi" reads the
    entries, for any weights: coupled a_tilde[j, i] twice, trans and src
    a_impl[j, i], starts w_tilde[i] and w[i], and weights 1.0.  Memoized per
    (form, tab, eps, h), as forward._scaled_plan is.
    """
    s, ones = tab.s, [1.0] * tab.s
    if form == "ark":
        cf = tab.adjoint_coeffs
        wt, w = tab.w_tilde, tab.w
        start_t = start_q = ones
        coupled_t, coupled_s = (wt - cf.alpha_tilde).tolist(), (w - cf.alpha).tolist()
        trans, src = (wt - cf.beta_tilde).tolist(), (w - cf.beta).tolist()
        weights = wt.tolist(), w.tolist()
    else:
        start_t, start_q = tab.w_tilde.tolist(), tab.w.tolist()
        coupled_t = coupled_s = tab.a_tilde.T.tolist()
        trans = src = tab.a_impl.T.tolist()
        weights = ones, ones
    diag = tab.a_impl.diagonal().tolist()

    def start(c):
        return None if c == 1.0 else _const(c)

    def coupled(first, cf_t, cf_s):
        return tuple((j, _const(-h * ct) if ct else None,
                      (_const(h * cs), _const(-(h * cs))) if cs else None)
                     for j, ct, cs in zip(range(first, s), cf_t[first:], cf_s[first:])
                     if ct or cs)

    def negated(first, cf):
        return tuple((j, _const(-(h * c))) for j, c in zip(range(first, s), cf[first:]) if c)

    rows = tuple(
        (i, start(start_t[i]), start(start_q[i]),
         coupled(i + 1, coupled_t[i], coupled_s[i]), negated(i, trans[i]),
         negated(i + 1, src[i]), _const(1.0 + h * diag[i] / eps))
        for i in reversed(range(s)))
    return _const(eps), rows + ((None, None, None, coupled(0, *weights), (), (), None),)


def _adjoint_step(plan: tuple, tab: ImexTableau, op: SpatialOp, model: FluxModel,
                  stages: List[Stage], p_next: RelaxState) -> RelaxState:
    """One backward step through a scaled adjoint step plan (_scaled_plan); returns p_n.

    Stages are processed in reverse; the implicit coupling in the q-component
    is eliminated in closed form, mirroring the forward stage solve.  Each
    combination starts from p_next, scaled by the row's start coefficient
    unless that is 1.0: a scaled start allocates the result, else the first
    term does (as x * c, to which p_next is added), and later terms, each
    formed in op.work.tmp, add into it left to right, so p_next is never
    written.  The update is one more row after the stages.

    The source transpose reads only the q part of a stage costate, so the p
    part is never formed.  src[j] holds (f'(U_j) q_j / eps, q_j / eps): the
    second component is stored without its minus sign, and every term that
    reads it negates its coefficient instead, which IEEE arithmetic rounds
    identically.
    """
    p, q = p_next.u, p_next.v
    eps, rows = plan
    trans = [None] * tab.s   # D^T of the tilde stage costates; they contribute -trans
    src = [None] * tab.s     # source contributions of the stage costates, q part unsigned
    tmp = op.work.tmp        # one product term, before it is added
    for i, start_t, start_q, coupled, trans_terms, src_terms, solve in rows:
        acc_p, acc_q = (p, q) if start_t is None else (start_t * p, start_t * q)
        for j, c, cs in coupled:
            if c is not None:
                t_p, t_q = trans[j]
                if acc_p is p:   # every term adds to both, so acc_q is q exactly when acc_p is p
                    acc_p = t_p * c
                    acc_p += p
                    acc_q = t_q * c
                    acc_q += q
                else:
                    _multiply(t_p, c, tmp)
                    acc_p += tmp
                    _multiply(t_q, c, tmp)
                    acc_q += tmp
            if cs is not None:
                c, neg_c = cs
                s_p, s_q = src[j]
                if acc_p is p:
                    acc_p = s_p * c
                    acc_p += p
                    acc_q = s_q * neg_c
                    acc_q += q
                else:
                    _multiply(s_p, c, tmp)
                    acc_p += tmp
                    _multiply(s_q, neg_c, tmp)
                    acc_q += tmp
        if i is None:
            return _pair(acc_p, acc_q)
        t = apply_dx_transpose(op, _pair(acc_p, acc_q), stages[i])
        trans[i] = t.u, t.v

        b_q = q if start_q is None else start_q * q
        for terms, part in ((trans_terms, trans), (src_terms, src)):
            for j, c in terms:
                if b_q is q:
                    b_q = part[j][1] * c
                    b_q += q
                else:
                    _multiply(part[j][1], c, tmp)
                    b_q += tmp
        pq = b_q / solve
        s_p = model.flux_deriv(stages[i].u) * pq
        s_p /= eps
        src[i] = (s_p, pq / eps)


def adjoint_step_ark(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
                     stages: List[Stage], p_next: RelaxState, h: float) -> RelaxState:
    """One backward step in stage-costate form, through tab.adjoint_coeffs; returns p_n.

    Needs every weight nonzero; on a pair with a zero weight (adjoint_coeffs
    is None) it raises the ZeroWeightError that names the weight.  The
    step looks up its plan, _scaled_plan("ark", tab, eps, h).
    """
    if tab.adjoint_coeffs is None:
        adjoint_coeffs(tab)   # raises ZeroWeightError naming the zero weight
    return _adjoint_step(_scaled_plan("ark", tab, eps, h), tab, op, model, stages, p_next)


def adjoint_step_xi(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
                    stages: List[Stage], p_next: RelaxState, h: float) -> RelaxState:
    """One backward step in scaled-variable form, through the pair's entries; returns p_n.

    Defined for any weights.  When all weights are nonzero, stage row i
    forms w_tilde[i] times the ark form's tilde stage costate and w[i] times
    the q part of its stage costate.  The step looks up its plan,
    _scaled_plan("xi", tab, eps, h).
    """
    return _adjoint_step(_scaled_plan("xi", tab, eps, h), tab, op, model, stages, p_next)


def solve_adjoint(traj: Trajectory, u_d: np.ndarray, form: str = "ark") -> AdjointSweepRecord:
    """Full backward sweep from the terminal costate to time zero.

    form "ark", the default, runs the ark plan and falls back to "xi"
    automatically when the tableau has a zero weight; form_used names the
    plan that ran.  form "xi" runs the xi plan on any tableau, for checks
    that compare the two.  The trajectory must have been stored with
    stages.
    """
    if form not in FORMS:
        raise ValueError(f"unknown adjoint form '{form}'; available: {', '.join(FORMS)}")
    n_steps = traj.n_steps
    if n_steps > 0 and len(traj.stages) != n_steps:
        raise ValueError("trajectory was solved without stage storage; rerun with store_stages=True")

    tab, op, model, eps = traj.tab, traj.op, traj.model, traj.epsilon
    form_used = "ark" if form == "ark" and tab.adjoint_coeffs is not None else "xi"
    step = adjoint_step_ark if form_used == "ark" else adjoint_step_xi
    p = terminal_costate(traj.steps[-1].u, np.asarray(u_d, float), traj.grid.dx)
    for h, stages in zip(reversed(traj.dts.tolist()), reversed(traj.stages)):
        p = step(tab, op, model, eps, stages, p, h)
    return AdjointSweepRecord(costates=[p], stage_costates_tilde=[],
                              stage_costates=[], form_used=form_used)


def assemble_gradient(record: AdjointSweepRecord, u0: np.ndarray,
                      model: FluxModel) -> np.ndarray:
    """Reduced gradient with respect to the initial control:  p_0 + f'(u0) * q_0.

    p_0 and q_0 are the u and v parts of the time-zero costate; the f'(u0)
    factor transposes the pointwise initialization v_0 = f(u_0).  u0 must
    be a 1-D field of the costate's length.
    """
    c0 = record.costates[0]
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != c0.u.shape:
        raise ValueError(f"u0 must be a 1-D field of the costate's length {c0.u.size}, "
                         f"got shape {u0.shape}")
    return c0.u + np.asarray(model.flux_deriv(u0), float) * c0.v
