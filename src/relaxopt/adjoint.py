"""Backward costate sweeps for the discrete forward scheme, and gradient assembly.

All three sweeps transpose the linearized forward step exactly, so the
assembled gradient is the exact gradient of the discrete objective:

* ark: stage-costate form using the derived coefficient matrices; needs every
  tableau weight nonzero (default path).
* xi: scaled-variable form that never divides by a weight (automatic fallback
  when the coefficient matrices are undefined).
* zeta: increment form kept for cross-validation.

Each backward stage inverts the same scalar-linear implicit relation as the
forward solver, in closed form.  The transport transpose reuses the stored
forward stage states, which also freeze the limiter choices of the
second-order scheme.  A step keeps only the costate it returns; its
per-stage variables are dropped when the step ends.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import FluxModel, RelaxState
from .forward import Trajectory, _lincomb
from .spatial import SpatialOp, apply_dx_transpose
from .tableau import AdjointCoeffs, ImexTableau, ZeroWeightError, adjoint_coeffs

FORMS = ("ark", "xi", "zeta")


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

    def copy(self) -> "CostateState":
        return CostateState(self.p.copy(), self.q.copy())


@dataclass
class AdjointSweepRecord:
    """Backward sweep output mirroring the forward Trajectory's indexing.

    costates[n] corresponds to times[n], for all n_steps + 1 times;
    assemble_gradient reads costates[0].  stage_costates_tilde and
    stage_costates are always empty lists: the sweep stores no per-stage
    variables.  They stay fields so that code taking their len() (the
    benchmark's record byte count) keeps working.
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


def _transport_transpose(op: SpatialOp, p, q, base: RelaxState):
    """Spatial transpose D^T (p, q); the transport term contributes its negative."""
    out = apply_dx_transpose(op, RelaxState(p, q), base)
    return out.u, out.v


def _source_transpose(fprime, eps, p, q):
    """Costate contribution of the stiff source: (f'(U) q / eps, -q / eps)."""
    return fprime * q / eps, -q / eps


def _costate_lincomb(x: CostateState, terms):
    """_lincomb on both components: x + sum of c * (t_p, t_q) over terms (c, (t_p, t_q))."""
    return (_lincomb(x.p, [(c, t[0]) for c, t in terms]),
            _lincomb(x.q, [(c, t[1]) for c, t in terms]))


def adjoint_step_ark(coeffs: AdjointCoeffs, tab: ImexTableau, op: SpatialOp,
                     model: FluxModel, eps: float, stages: List[RelaxState],
                     p_next: CostateState, h: float) -> CostateState:
    """One backward step in stage-costate form; returns p_n.

    Stages are processed in reverse; the implicit coupling in the q-component
    is eliminated in closed form, mirroring the forward stage solve.
    """
    s = tab.s
    wt, w = tab.w_tilde, tab.w
    fprime = [np.asarray(model.flux_deriv(st.u), float) for st in stages]
    trans = [None] * s   # D^T of the tilde stage costates; they contribute -trans
    src = [None] * s     # source contributions of the stage costates
    for i in reversed(range(s)):
        terms = []
        for j in range(i + 1, s):
            cf_t = wt[j] - coeffs.alpha_tilde[i, j]   # = (wt_j / wt_i) * a_tilde[j, i]
            cf_s = w[j] - coeffs.alpha[i, j]          # = (w_j  / wt_i) * a_tilde[j, i]
            if cf_t != 0.0:
                terms.append((-h * cf_t, trans[j]))
            if cf_s != 0.0:
                terms.append((h * cf_s, src[j]))
        acc_p, acc_q = _costate_lincomb(p_next, terms)
        trans[i] = _transport_transpose(op, acc_p, acc_q, stages[i])

        terms = []
        for j in range(i, s):
            cf_t = wt[j] - coeffs.beta_tilde[i, j]    # = (wt_j / w_i) * a_impl[j, i]
            if cf_t != 0.0:
                terms.append((-h * cf_t, trans[j]))
        for j in range(i + 1, s):
            cf_s = w[j] - coeffs.beta[i, j]           # = (w_j / w_i) * a_impl[j, i]
            if cf_s != 0.0:
                terms.append((h * cf_s, src[j]))
        b_p, b_q = _costate_lincomb(p_next, terms)
        k = h * tab.a_impl[i, i] / eps
        pq = b_q / (1.0 + k)
        pp = b_p + k * fprime[i] * pq
        src[i] = _source_transpose(fprime[i], eps, pp, pq)

    terms = []
    for i in range(s):
        if wt[i] != 0.0:
            terms.append((-h * wt[i], trans[i]))
        if w[i] != 0.0:
            terms.append((h * w[i], src[i]))
    return CostateState(*_costate_lincomb(p_next, terms))


def adjoint_step_xi(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
                    stages: List[RelaxState], p_next: CostateState, h: float) -> CostateState:
    """One backward step in scaled-variable form; defined for any weights.

    When all weights are nonzero its tilde stage variables equal h * w_tilde_i
    times the stage costates of the ark form.
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

        b_p = (h * tab.w[i]) * p_next.p - (h * ai[i, i]) * t_p
        b_q = (h * tab.w[i]) * p_next.q - (h * ai[i, i]) * t_q
        for j in range(i + 1, s):
            if ai[j, i] != 0.0:
                b_p += (h * ai[j, i]) * theta_p[j]
                b_q += (h * ai[j, i]) * theta_q[j]
        k = h * ai[i, i] / eps
        xi_q = b_q / (1.0 + k)
        xi_p = b_p + k * fprime[i] * xi_q
        s_p, s_q = _source_transpose(fprime[i], eps, xi_p, xi_q)
        theta_p[i] = s_p - t_p
        theta_q[i] = s_q - t_q
        sum_p += theta_p[i]
        sum_q += theta_q[i]
    return CostateState(p_next.p + sum_p, p_next.q + sum_q)


def adjoint_step_zeta(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
                      stages: List[RelaxState], p_next: CostateState, h: float) -> CostateState:
    """One backward step in increment form; defined for any weights."""
    s = tab.s
    at, ai = tab.a_tilde, tab.a_impl
    fprime = [np.asarray(model.flux_deriv(st.u), float) for st in stages]
    z_p = [None] * s
    z_q = [None] * s
    for i in reversed(range(s)):
        gt_p = tab.w_tilde[i] * p_next.p
        gt_q = tab.w_tilde[i] * p_next.q
        gi_p = tab.w[i] * p_next.p
        gi_q = tab.w[i] * p_next.q
        for j in range(i + 1, s):
            if at[j, i] != 0.0:
                gt_p += at[j, i] * z_p[j]
                gt_q += at[j, i] * z_q[j]
            if ai[j, i] != 0.0:
                gi_p += ai[j, i] * z_p[j]
                gi_q += ai[j, i] * z_q[j]
        t_p, t_q = _transport_transpose(op, gt_p, gt_q, stages[i])
        s_p, s_q = _source_transpose(fprime[i], eps, gi_p, gi_q)
        k_p = h * (s_p - t_p)
        k_q = h * (s_q - t_q)
        k = h * ai[i, i] / eps
        z_q[i] = k_q / (1.0 + k)
        z_p[i] = k_p + k * fprime[i] * z_q[i]
    out_p = p_next.p + sum(z_p)
    out_q = p_next.q + sum(z_q)
    return CostateState(out_p, out_q)


_STEPPERS = {"xi": adjoint_step_xi, "zeta": adjoint_step_zeta}


def solve_adjoint(traj: Trajectory, u_d: np.ndarray, form: str = "ark") -> AdjointSweepRecord:
    """Full backward sweep from the terminal costate to time zero.

    form "ark" uses the coefficient-matrix sweep and falls back to "xi"
    automatically when the tableau has a zero weight; "xi" and "zeta" run
    those forms directly.  The trajectory must have been stored with stages.
    """
    if form not in FORMS:
        raise ValueError(f"unknown adjoint form '{form}'; available: {', '.join(FORMS)}")
    n_steps = traj.n_steps
    if n_steps > 0 and len(traj.stages) != n_steps:
        raise ValueError("trajectory was solved without stage storage; rerun with store_stages=True")

    coeffs = None
    form_used = form
    if form == "ark":
        try:
            coeffs = adjoint_coeffs(traj.tab)
        except ZeroWeightError:
            form_used = "xi"

    p = terminal_costate(traj.steps[-1].u, np.asarray(u_d, float), traj.grid.dx)
    costates: List[Optional[CostateState]] = [None] * (n_steps + 1)
    costates[n_steps] = p
    for n in reversed(range(n_steps)):
        h = float(traj.dts[n])
        if form_used == "ark":
            p = adjoint_step_ark(coeffs, traj.tab, traj.op, traj.model,
                                 traj.epsilon, traj.stages[n], p, h)
        else:
            p = _STEPPERS[form_used](traj.tab, traj.op, traj.model,
                                     traj.epsilon, traj.stages[n], p, h)
        costates[n] = p
    return AdjointSweepRecord(costates=costates, stage_costates_tilde=[],
                              stage_costates=[], form_used=form_used)


def assemble_gradient(record: AdjointSweepRecord, u0: np.ndarray,
                      model: FluxModel) -> np.ndarray:
    """Reduced gradient with respect to the initial control:  p_0 + f'(u0) * q_0.

    The f'(u0) factor transposes the pointwise initialization v_0 = f(u_0).
    """
    c0 = record.costates[0]
    u0 = np.asarray(u0, dtype=float)
    return c0.p + np.asarray(model.flux_deriv(u0), float) * c0.q


def export_gradient(grid, u0: np.ndarray, grad: np.ndarray, path: str,
                    header: Optional[str] = None) -> None:
    """Write the control and its gradient as CSV rows (i, x, u0, grad)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("i,x,u0,grad\n")
        for i in range(grid.n_cells):
            fh.write(f"{i},{float(grid.centers[i])!r},{float(u0[i])!r},{float(grad[i])!r}\n")
