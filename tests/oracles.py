"""Test-only reference implementations.

The `np.roll` stencils below are the spatial operator as first written: every
periodic neighbour comes from `np.roll`.  Production code builds the same
neighbours from slices; each element sees the same floating-point operations
in the same order, so the two must agree bit for bit (see test_spatial.py).

`imex_step_kform` is the IMEX step in slope form.  It is algebraically equal
to the library's stage-value `imex_step` but accumulates slopes instead of
increments, so the two agree to round-off, not bit for bit.
"""
from __future__ import annotations

import numpy as np

from relaxopt.core import RelaxState
from relaxopt.spatial import apply_dx


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
