"""Test-only reference implementations.

The `np.roll` stencils below are the spatial operator as first written: every
periodic neighbour comes from `np.roll`.  Production code builds the same
neighbours from slices; each element sees the same floating-point operations
in the same order, so the two must agree bit for bit (see test_spatial.py).

`imex_step_kform` is the IMEX step in slope form.  It is algebraically equal
to the library's stage-value `imex_step` but accumulates slopes instead of
increments, so the two agree to round-off, not bit for bit.

`ref_imex_step` and `ref_adjoint_step_ark` are the stage-value step and the
ark-form adjoint step as first written: they slice the tableau arrays, test
each numpy coefficient against zero and build a term list per combination
on every step, and `ref_imex_step` checks every stage for finite values.
The library's steps take the same coefficients from precomputed plans and
must agree with these bit for bit: `assert_steps_match_reference` checks
one step of each (used by test_step_oracles.py and test_random_pairs.py).

`adjoint_step_zeta` is the adjoint step in increment form, a third recursion
algebraically equal to the library's ark and xi steps; `zeta_gradient` sweeps
it over a stored trajectory.  The forms agree to round-off, not bit for bit
(test_adjoint.py, test_acceptance.py, test_random_pairs.py), and
`assert_steps_match_reference` also checks one xi step against it on every
pair.  Both references take the source transpose from `_source_transpose`.

`random_pair` draws a random IMEX pair with zero weights among its entries.
"""
from __future__ import annotations

from typing import List

import numpy as np

from relaxopt.adjoint import (AdjointSweepRecord, Stage, adjoint_step_ark, adjoint_step_xi,
                              assemble_gradient, terminal_costate)
from relaxopt.core import FluxModel, RelaxState
from relaxopt.forward import DivergenceError, imex_step
from relaxopt.spatial import SpatialOp, apply_dx, apply_dx_transpose
from relaxopt.tableau import AdjointCoeffs, ImexTableau, adjoint_coeffs


def _minmod(x, y):
    return np.where(x * y <= 0.0, 0.0, np.where(np.abs(x) <= np.abs(y), x, y))


def _minmod_masks(x, y):
    zero = x * y <= 0.0
    left = ~zero & (np.abs(x) <= np.abs(y))
    right = ~zero & ~left
    return zero, left, right


def _char_vars(op, u, v):
    return v + op.a * u, v - op.a * u


def _divergence(op, fp, fm):
    a, dx = op.a, op.grid.dx
    u_face = (fp - fm) / (2.0 * a)
    v_face = 0.5 * (fp + fm)
    out_u = (v_face - np.roll(v_face, 1)) / dx
    out_v = a * a * (u_face - np.roll(u_face, 1)) / dx
    return out_u, out_v


def roll_apply_dx(op, state):
    """apply_dx with `np.roll` neighbours."""
    wp, wm = _char_vars(op, state.u, state.v)
    if op.scheme == "upwind1":
        fp = wp
        fm = np.roll(wm, -1)
    else:
        dp = wp - np.roll(wp, 1)
        sp = _minmod(dp, np.roll(dp, -1))
        fp = wp + 0.5 * sp
        dm = wm - np.roll(wm, 1)
        sm = _minmod(dm, np.roll(dm, -1))
        fm = np.roll(wm - 0.5 * sm, -1)
    return RelaxState(*_divergence(op, fp, fm))


def _limiter_masks(op, base):
    bwp, bwm = _char_vars(op, base.u, base.v)
    dp = bwp - np.roll(bwp, 1)
    dm = bwm - np.roll(bwm, 1)
    return (_minmod_masks(dp, np.roll(dp, -1)),
            _minmod_masks(dm, np.roll(dm, -1)))


def _frozen_slope(w, masks):
    _, left, right = masks
    d = w - np.roll(w, 1)
    return np.where(left, d, 0.0) + np.where(right, np.roll(d, -1), 0.0)


def roll_apply_dx_linearized(op, base, delta):
    """apply_dx_linearized with `np.roll` neighbours."""
    if op.scheme == "upwind1":
        return roll_apply_dx(op, delta)
    fp_masks, fm_masks = _limiter_masks(op, base)
    wp, wm = _char_vars(op, delta.u, delta.v)
    fp = wp + 0.5 * _frozen_slope(wp, fp_masks)
    fm = np.roll(wm - 0.5 * _frozen_slope(wm, fm_masks), -1)
    return RelaxState(*_divergence(op, fp, fm))


def _slope_transpose(sbar, masks):
    _, left, right = masks
    dbar = np.where(left, sbar, 0.0) + np.roll(np.where(right, sbar, 0.0), 1)
    return dbar - np.roll(dbar, -1)


def roll_apply_dx_transpose(op, costate, base=None):
    """apply_dx_transpose with `np.roll` neighbours."""
    zu, zv = costate.u, costate.v
    a, dx = op.a, op.grid.dx
    vf_bar = (zu - np.roll(zu, -1)) / dx
    uf_bar = a * a * (zv - np.roll(zv, -1)) / dx
    fp_bar = uf_bar / (2.0 * a) + 0.5 * vf_bar
    fm_bar = -uf_bar / (2.0 * a) + 0.5 * vf_bar
    if op.scheme == "upwind1":
        wp_bar = fp_bar
        wm_bar = np.roll(fm_bar, 1)
    else:
        fp_masks, fm_masks = _limiter_masks(op, base)
        wp_bar = fp_bar + 0.5 * _slope_transpose(fp_bar, fp_masks)
        pre = np.roll(fm_bar, 1)
        wm_bar = pre - 0.5 * _slope_transpose(pre, fm_masks)
    return RelaxState(a * (wp_bar - wm_bar), wp_bar + wm_bar)


def imex_step_kform(tab, op, model, eps, y_n, h):
    """One IMEX step in slope form: accumulates transport and source slopes.

    The implicit slope of stage i solves K = (f(U) - V_pre) / (eps + h*a_ii)
    where V_pre collects all previously known contributions.  Unlike
    `imex_step` it returns no stage states and does not check for non-finite
    values.
    """
    at, ai = tab.a_tilde, tab.a_impl
    kt_u, kt_v, k_v = [], [], []   # explicit (transport) slopes and implicit source slopes
    for i in range(tab.s):
        yu = y_n.u.copy()
        yv = y_n.v.copy()
        for j in range(i):
            if at[i, j] != 0.0:
                yu += (h * at[i, j]) * kt_u[j]
                yv += (h * at[i, j]) * kt_v[j]
            if ai[i, j] != 0.0:
                yv += (h * ai[i, j]) * k_v[j]
        fu = np.asarray(model.flux(yu), float)
        ki = (fu - yv) / (eps + h * ai[i, i])
        yv = yv + (h * ai[i, i]) * ki
        g = apply_dx(op, RelaxState(yu, yv))
        kt_u.append(-g.u)
        kt_v.append(-g.v)
        k_v.append(ki)
    u1 = y_n.u.copy()
    v1 = y_n.v.copy()
    for i in range(tab.s):
        if tab.w_tilde[i] != 0.0:
            u1 += (h * tab.w_tilde[i]) * kt_u[i]
            v1 += (h * tab.w_tilde[i]) * kt_v[i]
        if tab.w[i] != 0.0:
            v1 += (h * tab.w[i]) * k_v[i]
    return RelaxState(u1, v1)


def _require_finite(arr, stage_index):
    # a bare step is step 0 of its own march, as imex_step reports it
    if not np.isfinite(arr).all():
        raise DivergenceError(0, stage_index)


def _lincomb(x, terms):
    """x + c_1 t_1 + c_2 t_2 + ..., added left to right; x itself when terms is empty.

    The first term allocates the result and later terms add into it, so x is
    never written and needs no copy.  Each product is rounded before it is
    added, as in x.copy() followed by +=; a subtraction is written with a
    negated coefficient, which IEEE arithmetic rounds identically.
    """
    out = x
    for c, t in terms:
        if out is x:
            out = x + c * t
        else:
            out += c * t
    return out


def _combine(y: RelaxState, h, ct, ci, trans_u, trans_v, source):
    """(u, v) = y - h * sum_j ct[j] (trans_u[j], trans_v[j]) + h * sum_j ci[j] (0, source[j]).

    Zero coefficients are skipped; for v the transport term of j is added
    before its source term.  A component with no term is y's own array.
    """
    tu, tv = [], []
    for j in range(len(ct)):
        if ct[j] != 0.0:
            c = -h * ct[j]
            tu.append((c, trans_u[j]))
            tv.append((c, trans_v[j]))
        if ci[j] != 0.0:
            tv.append((h * ci[j], source[j]))
    return _lincomb(y.u, tu), _lincomb(y.v, tv)


def ref_imex_step(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
                  y_n: RelaxState, h: float):
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
            ru, rv = _combine(y_n, h, at[i, :i], ai[i, :i], trans_u, trans_v, source)
            fu = np.asarray(model.flux(ru), float)
            src = (fu - rv) / (eps + h * ai[i, i])
            vi = rv + (h * ai[i, i]) * src
            _require_finite(ru, i)
            _require_finite(vi, i)
            stage = RelaxState(ru, vi)
            stages.append(stage)
            g = apply_dx(op, stage)
            trans_u.append(g.u)
            trans_v.append(g.v)
            source.append(src)
        u1, v1 = _combine(y_n, h, tab.w_tilde, tab.w, trans_u, trans_v, source)
        _require_finite(u1, s - 1)
        _require_finite(v1, s - 1)
    return RelaxState(u1, v1), stages


def _transport_transpose(op, p, q, base):
    """Spatial transpose D^T (p, q) at stage `base`, as its two parts."""
    out = apply_dx_transpose(op, RelaxState(p, q), base)
    return out.u, out.v


def _source_transpose(fprime, eps, q):
    """Costate contribution of the stiff source: (f'(U) q / eps, -q / eps)."""
    return fprime * q / eps, -q / eps


def _costate_lincomb(x: RelaxState, terms):
    """_lincomb on both components: x + sum of c * (t_p, t_q) over terms (c, (t_p, t_q))."""
    return (_lincomb(x.u, [(c, t[0]) for c, t in terms]),
            _lincomb(x.v, [(c, t[1]) for c, t in terms]))


def ref_adjoint_step_ark(coeffs: AdjointCoeffs, tab: ImexTableau, op: SpatialOp,
                         model: FluxModel, eps: float, stages: List[RelaxState],
                         p_next: RelaxState, h: float) -> RelaxState:
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
        _, b_q = _costate_lincomb(p_next, terms)
        k = h * tab.a_impl[i, i] / eps
        pq = b_q / (1.0 + k)
        src[i] = _source_transpose(fprime[i], eps, pq)

    terms = []
    for i in range(s):
        if wt[i] != 0.0:
            terms.append((-h * wt[i], trans[i]))
        if w[i] != 0.0:
            terms.append((h * w[i], src[i]))
    return RelaxState(*_costate_lincomb(p_next, terms))


def adjoint_step_zeta(tab: ImexTableau, op: SpatialOp, model: FluxModel, eps: float,
                      stages: List[Stage], p_next: RelaxState, h: float) -> RelaxState:
    """One backward step in increment form; defined for any weights.

    The implicit-weight combination is formed for q only, the one part the
    source transpose reads.
    """
    s = tab.s
    at, ai = tab.a_tilde, tab.a_impl
    fprime = [np.asarray(model.flux_deriv(st.u), float) for st in stages]
    z_p = [None] * s
    z_q = [None] * s
    for i in reversed(range(s)):
        gt_p = tab.w_tilde[i] * p_next.u
        gt_q = tab.w_tilde[i] * p_next.v
        gi_q = tab.w[i] * p_next.v
        for j in range(i + 1, s):
            if at[j, i] != 0.0:
                gt_p += at[j, i] * z_p[j]
                gt_q += at[j, i] * z_q[j]
            if ai[j, i] != 0.0:
                gi_q += ai[j, i] * z_q[j]
        t_p, t_q = _transport_transpose(op, gt_p, gt_q, stages[i])
        s_p, s_q = _source_transpose(fprime[i], eps, gi_q)
        k_p = h * (s_p - t_p)
        k_q = h * (s_q - t_q)
        k = h * ai[i, i] / eps
        z_q[i] = k_q / (1.0 + k)
        z_p[i] = k_p + k * fprime[i] * z_q[i]
    return RelaxState(p_next.u + sum(z_p), p_next.v + sum(z_q))


def zeta_gradient(traj, u_d, u0) -> np.ndarray:
    """Gradient from a full sweep of zeta steps, for comparison with solve_adjoint's forms.

    It runs the same terminal costate and gradient assembly as solve_adjoint
    and assemble_gradient, so only the step recursion differs.
    """
    p = terminal_costate(traj.steps[-1].u, np.asarray(u_d, float), traj.grid.dx)
    for n in reversed(range(traj.n_steps)):
        p = adjoint_step_zeta(traj.tab, traj.op, traj.model, traj.epsilon,
                              traj.stages[n], p, float(traj.dts[n]))
    record = AdjointSweepRecord(costates=[p], stage_costates_tilde=[],
                                stage_costates=[], form_used="zeta")
    return assemble_gradient(record, u0, traj.model)


def random_pair(rng, zero_weights=True):
    """Random pair with s in 1..4 stages.

    The explicit matrix is strictly lower triangular and the implicit one
    lower triangular.  With zero_weights about a quarter of the weights are
    zero; without, the weights are nonzero and about a quarter of the matrix
    entries are zero instead.
    """
    s = int(rng.integers(1, 5))
    a_tilde = np.tril(rng.uniform(0.0, 1.0, (s, s)), -1)
    a_impl = np.tril(rng.uniform(0.0, 1.0, (s, s)))
    if zero_weights:
        w_tilde = rng.uniform(0.0, 1.0, s) * (rng.random(s) > 0.25)
        w = rng.uniform(0.0, 1.0, s) * (rng.random(s) > 0.25)
    else:
        a_tilde *= rng.random((s, s)) > 0.25
        a_impl *= rng.random((s, s)) > 0.25
        w_tilde = rng.uniform(0.1, 1.0, s)
        w = rng.uniform(0.1, 1.0, s)
    return ImexTableau(f"random-{s}", a_tilde, a_impl, w_tilde, w)


def assert_steps_match_reference(tab, op, model, eps, y, h, p_next):
    """imex_step and, when every weight is nonzero, adjoint_step_ark equal the references.

    Asserts bitwise equality of the step, its stages and the ark step's
    costate, and that adjoint_step_xi, which runs on every pair, agrees with
    adjoint_step_zeta to round-off.  The source transpose scales q by 1/eps
    and the closed-form stage solve divides h/eps back out, so round-off is
    measured against (1 + h/eps) times the size of p_next.  Neither adjoint
    step may write into p_next or any stage array.  Returns whether the ark
    step ran.
    """
    y1, stages = imex_step(tab, op, model, eps, y, h)
    r1, ref_stages = ref_imex_step(tab, op, model, eps, y, h)
    assert np.array_equal(y1.u, r1.u) and np.array_equal(y1.v, r1.v)
    assert len(stages) == len(ref_stages) == tab.s
    for st, ref in zip(stages, ref_stages):
        assert np.array_equal(st.u, ref.u) and np.array_equal(st.v, ref.v)
    inputs = [p_next.u, p_next.v] + [arr for st in stages for arr in (st.u, st.v)]
    kept = [arr.copy() for arr in inputs]

    got = adjoint_step_xi(tab, op, model, eps, stages, p_next, h)
    want = adjoint_step_zeta(tab, op, model, eps, stages, p_next, h)
    tol = 1e-14 * (1.0 + h / eps) * max(np.max(np.abs(p_next.u)), np.max(np.abs(p_next.v)))
    assert np.max(np.abs(got.u - want.u)) <= tol and np.max(np.abs(got.v - want.v)) <= tol, tab
    ark = tab.adjoint_coeffs is not None
    if ark:   # the reference derives its coefficients afresh
        got = adjoint_step_ark(tab, op, model, eps, stages, p_next, h)
        want = ref_adjoint_step_ark(adjoint_coeffs(tab), tab, op, model, eps, stages, p_next, h)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
    assert all(np.array_equal(arr, k) for arr, k in zip(inputs, kept))
    return ark
