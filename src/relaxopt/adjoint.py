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
stage costate, so no form computes the p part, and a stepper calls
apply_dx_transpose on its own sums, wrapped without re-validation
(core._pair).

The ark step reads its coefficient differences from AdjointCoeffs.plan and
its weights and implicit diagonal from ImexTableau.plan, both built once
with the pair (the pair keeps its AdjointCoeffs as ImexTableau.adjoint_coeffs,
None when a weight is zero), so a sweep derives no coefficients and a step
does no numpy-scalar arithmetic and builds no term lists.  Each of its
combinations is one loop over its plan row, with no Python call per term.
It stores the source's second component as q / eps and puts its sign on the
coefficients, and wraps the costate it returns without re-validating it.
It is bit-identical to the array-indexing version kept in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .core import FluxModel, RelaxState, _pair
from .forward import StoredStage, Trajectory
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
    from p_next: its first term allocates the result and later terms add
    into it left to right, so p_next is never written.  The update is one
    more row after the stages, with the weights as its coefficients.

    The source transpose reads only the q part of a stage costate, so the p
    part is never formed.  src[j] holds (f'(U_j) q_j / eps, q_j / eps): the
    second component is stored without its minus sign, and every term that
    reads it negates its coefficient instead, which IEEE arithmetic rounds
    identically.
    """
    s = tab.s
    p, q = p_next.p, p_next.q
    trans = [None] * s   # D^T of the tilde stage costates; they contribute -trans
    src = [None] * s     # source contributions of the stage costates, q part unsigned
    # the s stage rows, then the update row (i None, the weights as cf_t, cf_s)
    for i, coupled, trans_terms, src_terms in (*coeffs.plan, (None, tab.plan.weights, (), ())):
        acc_p, acc_q = p, q   # every term adds to both, so acc_q is q exactly when acc_p is p
        for j, cf_t, cf_s in coupled:
            if cf_t:   # cf_t = (wt_j / wt_i) * a_tilde[j, i]
                c = -h * cf_t
                t_p, t_q = trans[j]
                if acc_p is p:
                    acc_p = p + c * t_p
                    acc_q = q + c * t_q
                else:
                    acc_p += c * t_p
                    acc_q += c * t_q
            if cf_s:   # cf_s = (w_j / wt_i) * a_tilde[j, i]
                c = h * cf_s
                s_p, s_q = src[j]
                if acc_p is p:
                    acc_p = p + c * s_p
                    acc_q = q + -c * s_q
                else:
                    acc_p += c * s_p
                    acc_q += -c * s_q
        if i is None:
            out = object.__new__(CostateState)   # the step's own sums: no re-validation
            out.p, out.q = acc_p, acc_q
            return out
        t = apply_dx_transpose(op, _pair(acc_p, acc_q), stages[i])
        trans[i] = t.u, t.v

        b_q = q
        # cf = (wt_j / w_i) * a_impl[j, i] on trans, (w_j / w_i) * a_impl[j, i] on src
        for terms, part in ((trans_terms, trans), (src_terms, src)):
            for j, cf in terms:
                if b_q is q:
                    b_q = q + -(h * cf) * part[j][1]
                else:
                    b_q += -(h * cf) * part[j][1]
        k = h * tab.plan.stages[i][1] / eps
        pq = b_q / (1.0 + k)
        src[i] = (np.asarray(model.flux_deriv(stages[i].u), float) * pq / eps, pq / eps)


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
        t = apply_dx_transpose(op, _pair(xt_p, xt_q), stages[i])
        t_p, t_q = t.u, t.v

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

    tab, op, model, eps = traj.tab, traj.op, traj.model, traj.epsilon
    p = terminal_costate(traj.steps[-1].u, np.asarray(u_d, float), traj.grid.dx)
    for h, stages in zip(reversed(traj.dts.tolist()), reversed(traj.stages)):
        if coeffs is not None:
            p = adjoint_step_ark(coeffs, tab, op, model, eps, stages, p, h)
        else:
            p = adjoint_step_xi(tab, op, model, eps, stages, p, h)
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
