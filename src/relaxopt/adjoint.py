"""Backward costate sweeps for the discrete forward scheme, and gradient assembly.

solve_adjoint is the one sweep.  Its steps transpose the linearized forward
step exactly, so the assembled gradient is the exact gradient of the
discrete objective.  A step comes in one of two forms, chosen by the tableau:

* ark: stage-costate form using the derived coefficient matrices; needs every
  tableau weight nonzero (default path).
* xi: scaled-variable form that never divides by a weight (automatic fallback
  when the coefficient matrices are undefined).

The increment (zeta) form is a third, algebraically equal recursion; it is
kept in tests/oracles.py as the oracle both forms are checked against.

Each backward stage inverts the same scalar-linear implicit relation as the
forward solver, in closed form.  The transport transpose reuses the stored
forward stages, which also freeze the limiter choices of the second-order
scheme.  A stepper reads a stage only through its u (for f'(U) in the source
transpose) and passes the stage on as the base of apply_dx_transpose, so
the RelaxState stages of a bare imex_step and the StoredStage entries of a
full record, which keep no v under the linear upwind1 operator, work alike.
A step keeps only the costate it returns; its per-stage variables are
dropped when the step ends, and the sweep keeps only the time-zero costate
that the gradient reads.  The source transpose reads only the q part of a
stage costate, so no form computes the p part, and the transport transpose
wraps the stepper's own sums without re-validating them (core._pair).

The ark step reads its coefficient differences from AdjointCoeffs.plan and
its weights and implicit diagonal from ImexTableau.plan, both built once
with the pair (the pair keeps its AdjointCoeffs as ImexTableau.adjoint_coeffs,
None when a weight is zero), so a sweep derives no coefficients and a step
does no numpy-scalar arithmetic and builds no term lists.  It
stores the source's second component as q / eps and puts its sign on the
coefficients, and wraps the costate it returns without re-validating it.
It is bit-identical to the array-indexing version kept in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .core import FluxModel, RelaxState, _pair
from .forward import StoredStage, Trajectory, _accumulate
from .spatial import SpatialOp, apply_dx_transpose
from .tableau import AdjointCoeffs, ImexTableau

FORMS = ("ark", "xi")

# A step's stages, as imex_step returns them or as a full record stores them:
# the steppers read each stage's u and pass the stage on as the transpose's base.
Stage = Union[RelaxState, StoredStage]


@dataclass
class CostateState:
    """Costate pair: p adjoint to u, q adjoint to v."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.p.shape != self.q.shape or self.p.ndim != 1:
            raise ValueError(
                f"p and q must be 1-D fields of equal length, got {self.p.shape} and {self.q.shape}"
            )


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

    costates: List[CostateState]
    stage_costates_tilde: List[List[CostateState]]
    stage_costates: List[List[CostateState]]
    form_used: str


def terminal_costate(u_T: np.ndarray, u_d: np.ndarray, dx: float) -> CostateState:
    """Gradient of the tracking objective dx/2 * sum (u_T - u_d)^2 at the final time.

    The v-component of the state does not enter the objective, so q starts at
    zero; p carries the dx weight so the assembled gradient differentiates the
    discrete objective itself.
    """
    u_T = np.asarray(u_T, dtype=float)
    u_d = np.asarray(u_d, dtype=float)
    if u_T.shape != u_d.shape:
        raise ValueError(f"shape mismatch: {u_T.shape} vs {u_d.shape}")
    return CostateState(dx * (u_T - u_d), np.zeros_like(u_T))


def _transport_transpose(op: SpatialOp, p, q, base: Stage):
    """Spatial transpose D^T (p, q) at stage `base`; transport contributes its negative.

    p and q are the stepper's own sums or the parts of p_next, a costate
    the library built or validated, so they are wrapped without
    re-validation (core._pair).
    """
    out = apply_dx_transpose(op, _pair(RelaxState, p, q), base)
    return out.u, out.v


def _source_transpose(fprime, eps, q):
    """Costate contribution of the stiff source: (f'(U) q / eps, -q / eps).

    It reads only the q part of a stage costate, so no stepper forms the p part.
    """
    return fprime * q / eps, -q / eps


def adjoint_step_ark(coeffs: AdjointCoeffs, tab: ImexTableau, op: SpatialOp,
                     model: FluxModel, eps: float, stages: List[Stage],
                     p_next: CostateState, h: float) -> CostateState:
    """One backward step in stage-costate form; returns p_n.

    Stages are processed in reverse; the implicit coupling in the q-component
    is eliminated in closed form, mirroring the forward stage solve.  The
    coefficients come from coeffs.plan and tab.plan.  Each combination starts
    from p_next and adds its terms left to right (forward._accumulate), so
    p_next is never written.

    The source transpose reads only the q part of a stage costate, so the p
    part is never formed.  src[j] holds (f'(U_j) q_j / eps, q_j / eps): the
    second component is stored without its minus sign, and every term that
    reads it negates its coefficient instead, which IEEE arithmetic rounds
    identically.
    """
    s = tab.s
    p, q = p_next.p, p_next.q
    fprime = [np.asarray(model.flux_deriv(st.u), float) for st in stages]
    trans = [None] * s   # D^T of the tilde stage costates; they contribute -trans
    src = [None] * s     # source contributions of the stage costates, q part unsigned
    for i, coupled, trans_terms, src_terms in coeffs.plan:
        acc_p, acc_q = p, q
        for j, cf_t, cf_s in coupled:
            if cf_t:   # cf_t = (wt_j / wt_i) * a_tilde[j, i]
                c = -h * cf_t
                acc_p = _accumulate(acc_p, p, c * trans[j][0])
                acc_q = _accumulate(acc_q, q, c * trans[j][1])
            if cf_s:   # cf_s = (w_j / wt_i) * a_tilde[j, i]
                c = h * cf_s
                acc_p = _accumulate(acc_p, p, c * src[j][0])
                acc_q = _accumulate(acc_q, q, -c * src[j][1])
        trans[i] = _transport_transpose(op, acc_p, acc_q, stages[i])

        b_q = q
        for j, cf in trans_terms:   # cf = (wt_j / w_i) * a_impl[j, i]
            b_q = _accumulate(b_q, q, (-h * cf) * trans[j][1])
        for j, cf in src_terms:     # cf = (w_j / w_i) * a_impl[j, i]
            b_q = _accumulate(b_q, q, -(h * cf) * src[j][1])
        k = h * tab.plan.stages[i][1] / eps
        pq = b_q / (1.0 + k)
        src[i] = (fprime[i] * pq / eps, pq / eps)

    out_p, out_q = p, q
    for i, wt, w in tab.plan.weights:   # the ark form has every weight nonzero
        c = -h * wt
        out_p = _accumulate(out_p, p, c * trans[i][0])
        out_q = _accumulate(out_q, q, c * trans[i][1])
        c = h * w
        out_p = _accumulate(out_p, p, c * src[i][0])
        out_q = _accumulate(out_q, q, -c * src[i][1])
    return _pair(CostateState, out_p, out_q)


def adjoint_step_xi(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
                    stages: List[Stage], p_next: CostateState, h: float) -> CostateState:
    """One backward step in scaled-variable form; defined for any weights.

    When all weights are nonzero its tilde stage variables equal h * w_tilde_i
    times the stage costates of the ark form.  Only the q part of the
    non-tilde stage variable is formed: the source transpose reads no other.
    """
    s = tab.s
    at, ai = tab.a_tilde, tab.a_impl
    fprime = [np.asarray(model.flux_deriv(st.u), float) for st in stages]
    theta_p = [None] * s   # combined transported+source stage contributions
    theta_q = [None] * s
    sum_p = np.zeros_like(p_next.p)
    sum_q = np.zeros_like(p_next.q)
    for i in reversed(range(s)):
        xt_p = (h * tab.w_tilde[i]) * p_next.p
        xt_q = (h * tab.w_tilde[i]) * p_next.q
        for j in range(i + 1, s):
            if at[j, i] != 0.0:
                xt_p += (h * at[j, i]) * theta_p[j]
                xt_q += (h * at[j, i]) * theta_q[j]
        t_p, t_q = _transport_transpose(op, xt_p, xt_q, stages[i])

        b_q = (h * tab.w[i]) * p_next.q - (h * ai[i, i]) * t_q
        for j in range(i + 1, s):
            if ai[j, i] != 0.0:
                b_q += (h * ai[j, i]) * theta_q[j]
        k = h * ai[i, i] / eps
        xi_q = b_q / (1.0 + k)
        s_p, s_q = _source_transpose(fprime[i], eps, xi_q)
        theta_p[i] = s_p - t_p
        theta_q[i] = s_q - t_q
        sum_p += theta_p[i]
        sum_q += theta_q[i]
    return CostateState(p_next.p + sum_p, p_next.q + sum_q)


def solve_adjoint(traj: Trajectory, u_d: np.ndarray, form: str = "ark") -> AdjointSweepRecord:
    """Full backward sweep from the terminal costate to time zero.

    form "ark", the default, uses the coefficient-matrix step and falls back
    to "xi" automatically when the tableau has a zero weight; form_used
    names the step that ran.  form "xi" runs the xi step on any tableau, for
    checks that compare the two.  The trajectory must have been stored with
    stages.
    """
    if form not in FORMS:
        raise ValueError(f"unknown adjoint form '{form}'; available: {', '.join(FORMS)}")
    n_steps = traj.n_steps
    if n_steps > 0 and len(traj.stages) != n_steps:
        raise ValueError("trajectory was solved without stage storage; rerun with store_stages=True")

    coeffs = traj.tab.adjoint_coeffs if form == "ark" else None
    form_used = "ark" if coeffs is not None else "xi"

    p = terminal_costate(traj.steps[-1].u, np.asarray(u_d, float), traj.grid.dx)
    for n in reversed(range(n_steps)):
        h = float(traj.dts[n])
        if coeffs is not None:
            p = adjoint_step_ark(coeffs, traj.tab, traj.op, traj.model,
                                 traj.epsilon, traj.stages[n], p, h)
        else:
            p = adjoint_step_xi(traj.tab, traj.op, traj.model,
                                traj.epsilon, traj.stages[n], p, h)
    return AdjointSweepRecord(costates=[p], stage_costates_tilde=[],
                              stage_costates=[], form_used=form_used)


def assemble_gradient(record: AdjointSweepRecord, u0: np.ndarray,
                      model: FluxModel) -> np.ndarray:
    """Reduced gradient with respect to the initial control:  p_0 + f'(u0) * q_0.

    The f'(u0) factor transposes the pointwise initialization v_0 = f(u_0).
    """
    c0 = record.costates[0]
    u0 = np.asarray(u0, dtype=float)
    return c0.p + np.asarray(model.flux_deriv(u0), float) * c0.q
