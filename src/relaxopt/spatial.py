"""Discrete spatial operator for the linear transport part, and its exact transpose.

The relaxation system transports the characteristic combinations
w+ = v + a*u (speed +a) and w- = v - a*u (speed -a).  Interface values are
upwinded per characteristic family: cell i owns interfaces i-1/2 and i+1/2,
the w+ value at i+1/2 comes from cell i, the w- value from cell i+1.  The
operator returns the divergence of g(y) = (v, a^2 u), i.e. the increment pair

    out_u[i] = (v_face[i+1/2] - v_face[i-1/2]) / dx
    out_v[i] = a^2 * (u_face[i+1/2] - u_face[i-1/2]) / dx

with periodic wraparound.  Time steppers subtract this (the semi-discrete
equation is y' = -D_x g(y) + source).

The transpose used by the adjoint sweep is the exact linear-algebraic
transpose of this map; for the limited second-order scheme it transposes the
linearization with the limiter choices frozen at a given base state.
SpatialOp.linear says which case applies: under upwind1 neither the
transpose nor the linearization reads a base state, so a stored forward
record need not keep the stage v that only a base would supply.

Periodic neighbours come from slice helpers, each filling one
`np.empty_like` buffer: `_prev` (x[i-1]), `_next` (x[i+1]), `_back_diff`
(x[i] - x[i-1]), `_fwd_diff` (x[i] - x[i+1]), and `_next_sub` and `_prev_sub`,
which write a difference x - y straight into its shifted place, all with
wraparound.  They replace numpy's `roll`, which costs several times more per
call at these sizes.  The operators compute a*u once and scale their own
temporaries in place (/ (2a), * 0.5, / dx, * a^2), and the transpose forms
fm_bar = vf_bar/2 - uf_bar/(2a), which IEEE arithmetic rounds exactly as
(-uf_bar)/(2a) + vf_bar/2.  Each output element sees the same floating-point
operations in the same order as the `roll` formulas, so the results are
bit-identical to them; the test-only reference in tests/oracles.py checks
that with `np.array_equal`.  `apply_dx` and `apply_dx_transpose` wrap their
own output arrays without re-validating them (core._pair).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, RelaxState, _pair

SCHEMES = ("upwind1", "muscl2")


@dataclass(frozen=True)
class SpatialOp:
    """Transport discretization: grid, frozen speed a, scheme and slope limiter."""

    grid: Grid
    a: float
    scheme: str = "upwind1"
    limiter: str = "minmod"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}'; available: {', '.join(SCHEMES)}")
        if self.limiter != "minmod":
            raise ValueError(f"unknown limiter '{self.limiter}'; available: minmod")
        if not self.a > 0:
            raise ValueError(f"speed a must be positive, got {self.a}")

    @property
    def linear(self) -> bool:
        """Whether apply_dx is linear in the state (upwind1).

        Its transpose and linearization then read no base state; muscl2's
        limiter branches depend on the state, so they need one.
        """
        return self.scheme == "upwind1"


def _prev(x):
    """x[i-1] with periodic wraparound (roll by +1)."""
    out = np.empty_like(x)
    out[1:] = x[:-1]
    out[0] = x[-1]
    return out


def _next(x):
    """x[i+1] with periodic wraparound (roll by -1)."""
    out = np.empty_like(x)
    out[:-1] = x[1:]
    out[-1] = x[0]
    return out


def _back_diff(x):
    """x[i] - x[i-1] with periodic wraparound (x minus its roll by +1)."""
    out = np.empty_like(x)
    np.subtract(x[1:], x[:-1], out=out[1:])
    out[0] = x[0] - x[-1]
    return out


def _fwd_diff(x):
    """x[i] - x[i+1] with periodic wraparound (x minus its roll by -1)."""
    out = np.empty_like(x)
    np.subtract(x[:-1], x[1:], out=out[:-1])
    out[-1] = x[-1] - x[0]
    return out


def _next_sub(x, y):
    """x[i+1] - y[i+1] with periodic wraparound (x - y rolled by -1)."""
    out = np.empty_like(x)
    np.subtract(x[1:], y[1:], out=out[:-1])
    np.subtract(x[:1], y[:1], out=out[-1:])
    return out


def _prev_sub(x, y):
    """x[i-1] - y[i-1] with periodic wraparound (x - y rolled by +1)."""
    out = np.empty_like(x)
    np.subtract(x[:-1], y[:-1], out=out[1:])
    np.subtract(x[-1:], y[-1:], out=out[:1])
    return out


def minmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slope limiter: 0 when the arguments disagree in sign, else the smaller magnitude.

    Sign ties (x*y <= 0, including zeros) resolve to the zero slope.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return np.where(x * y <= 0.0, 0.0, np.where(np.abs(x) <= np.abs(y), x, y))


def _minmod_masks(x, y):
    """Branch masks of minmod at (x, y): (zero-slope, took-x, took-y)."""
    zero = x * y <= 0.0
    left = ~zero & (np.abs(x) <= np.abs(y))
    right = ~zero & ~left
    return zero, left, right


def _check_state(op: SpatialOp, u, v):
    n = op.grid.n_cells
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"state size {u.shape}/{v.shape} does not match grid ({n} cells)")


def _char_vars(op, u, v):
    return v + op.a * u, v - op.a * u


def _face_values(op: SpatialOp, u, v):
    """Interface values of both characteristic families at faces i+1/2."""
    au = op.a * u
    wp = v + au
    if op.scheme == "upwind1":
        return wp, _next_sub(v, au)
    wm = v - au
    dp = _back_diff(wp)
    fp = minmod(dp, _next(dp))
    fp *= 0.5
    fp += wp
    dm = _back_diff(wm)
    sm = minmod(dm, _next(dm))
    sm *= 0.5
    return fp, _next_sub(wm, sm)


def _divergence(op: SpatialOp, fp, fm):
    a, dx = op.a, op.grid.dx
    u_face = fp - fm
    u_face /= 2.0 * a
    v_face = fp + fm
    v_face *= 0.5
    out_u = _back_diff(v_face)
    out_u /= dx
    out_v = _back_diff(u_face)
    out_v *= a * a
    out_v /= dx
    return out_u, out_v


def apply_dx(op: SpatialOp, state: RelaxState) -> RelaxState:
    """Divergence increment of the transport fluxes at every cell (see module docstring)."""
    u, v = state.u, state.v
    _check_state(op, u, v)
    fp, fm = _face_values(op, u, v)
    out_u, out_v = _divergence(op, fp, fm)
    return _pair(RelaxState, out_u, out_v)


def apply_dx_linearized(op: SpatialOp, base: RelaxState, delta: RelaxState) -> RelaxState:
    """Directional derivative of apply_dx at `base` applied to `delta`.

    For upwind1 the operator is linear, so this equals apply_dx(delta).  For
    muscl2 the limiter branches are frozen at `base`, making the result the
    exact Jacobian-vector product of the piecewise-linear map.
    """
    _check_state(op, delta.u, delta.v)
    if op.linear:
        return apply_dx(op, delta)
    _check_state(op, base.u, base.v)
    fp_masks, fm_masks = _limiter_masks(op, base)
    du, dv = delta.u, delta.v
    wp, wm = _char_vars(op, du, dv)
    fp = wp + 0.5 * _frozen_slope(wp, fp_masks)
    fm = _next(wm - 0.5 * _frozen_slope(wm, fm_masks))
    out_u, out_v = _divergence(op, fp, fm)
    return RelaxState(out_u, out_v)


def _limiter_masks(op: SpatialOp, base: RelaxState):
    bwp, bwm = _char_vars(op, base.u, base.v)
    dp = _back_diff(bwp)
    dm = _back_diff(bwm)
    return (_minmod_masks(dp, _next(dp)),
            _minmod_masks(dm, _next(dm)))


def _frozen_slope(w, masks):
    """Limited slope sigma(w) with the minmod branches fixed by `masks`."""
    _, left, right = masks
    d = _back_diff(w)
    return np.where(left, d, 0.0) + np.where(right, _next(d), 0.0)


def _slope_transpose(sbar, masks):
    """Transpose of the frozen-limiter slope map sigma(w) back onto w-cotangents.

    Forward: d[i] = w[i] - w[i-1]; sigma[i] = left[i]*d[i] + right[i]*d[i+1].
    """
    _, left, right = masks
    dbar = np.where(left, sbar, 0.0) + _prev(np.where(right, sbar, 0.0))
    return _fwd_diff(dbar)


def apply_dx_transpose(op: SpatialOp, costate: RelaxState, base=None) -> RelaxState:
    """Exact transpose of apply_dx (upwind1) or of its frozen linearization (muscl2).

    `base` supplies the linearization state for muscl2: any object with u and
    v fields, such as a RelaxState or a forward.StoredStage.  It is not read
    when op.linear (upwind1), so it may be None there, or a stored stage
    whose v is None.  Satisfies
    <apply_dx(z), w> == <z, apply_dx_transpose(w)> for all field pairs, with
    apply_dx replaced by apply_dx_linearized at `base` for muscl2.
    """
    zu, zv = costate.u, costate.v
    _check_state(op, zu, zv)
    a, dx = op.a, op.grid.dx

    # transpose of the face-difference / back-transform stage:
    # fp_bar = uf_bar/(2a) + vf_bar/2 and fm_bar = -uf_bar/(2a) + vf_bar/2
    half = _fwd_diff(zu)
    half /= dx
    half *= 0.5
    t = _fwd_diff(zv)
    t *= a * a
    t /= dx
    t /= 2.0 * a
    fp_bar = t + half
    pre = _prev_sub(half, t)   # fm_bar[i-1]

    if op.linear:
        wp_bar = fp_bar
        wm_bar = pre
    else:
        if base is None:
            raise ValueError("muscl2 transpose needs the linearization base state")
        fp_masks, fm_masks = _limiter_masks(op, base)
        # w+ face: fp = wp + sigma(wp)/2
        wp_bar = fp_bar + 0.5 * _slope_transpose(fp_bar, fp_masks)
        # w- face: fm[i] = (wm - sigma(wm)/2)[i+1]
        wm_bar = pre - 0.5 * _slope_transpose(pre, fm_masks)

    # transpose of the characteristic transform w+ = v + a u, w- = v - a u
    out_u = wp_bar - wm_bar
    out_u *= a
    wm_bar += wp_bar
    return _pair(RelaxState, out_u, wm_bar)
