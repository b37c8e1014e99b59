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

Periodic neighbours come from ghost cells, not from numpy's `roll`, which
costs several times more per call at these sizes.  A field whose
neighbour is read is written into a buffer one cell longer than the grid,
and one copy fills the extra (ghost) cell with the value the wraparound
brings there: buf[0] = buf[N] when x[i-1] is read, buf[N] = buf[0] when
x[i+1] is read.  Then x[i] and its neighbour are two views of one array.
Under muscl2 the two characteristic families are the rows of one such
(2, N+1) buffer (`_char_diffs`), and their back differences
d[i] = w[i] - w[i-1] the rows of another, so one pass over d decides
minmod's branches for the pairs (d[i], d[i+1]) of both families
(`_branches`).  The limited slopes of apply_dx, the frozen branch masks of
the linearization and the transpose (`_limiter_masks`) and the public
`minmod` all come from that one rule.  `_next_sub` writes a difference
x - y into a ghost-cell buffer and returns its shifted view x[i+1] - y[i+1],
and `_divergence` differences the face values inside their own ghost-cell
buffers.  apply_dx under upwind1 and apply_dx_transpose, which every time
step calls, write their shape check, upwind faces and differences inline
instead of through helper frames; the transpose's inputs arrive unpadded,
so it forms x[i] - x[i+1] with one slice subtraction and the wrapped last
element.  The operators compute a*u once and scale their own
temporaries in place (/ (2a), * 0.5, / dx, * a^2), and the transpose forms
fm_bar = vf_bar/2 - uf_bar/(2a), which IEEE arithmetic rounds exactly as
(-uf_bar)/(2a) + vf_bar/2.  Each output element sees the same
floating-point operations in the same order as the `roll` formulas, so the
results are bit-identical to them; test_spatial.py compares the bit
patterns with the test-only reference in tests/oracles.py.  A shifted view never
leaves the module: the arrays the operators return own their data, and
`apply_dx` and `apply_dx_transpose` wrap them without re-validating them
(core._pair).

The work buffers belong to the operator.  SpatialOp.work, made once with the
op, holds a*u, the upwind faces and _divergence's face fields with their
ghost cells, _char_diffs' families and differences, the transpose's
differences and face cotangents, the shifted views of each (made once), and
one scratch array of length N in which imex_step and the adjoint step form
each product term of their sums.  The stencils write their intermediates
there with out=, so under upwind1 neither apply_dx nor apply_dx_transpose
allocates or slices a buffer of its own.  The arrays they return are still
freshly allocated and own their data, so no later call overwrites an
earlier result.  Every call on an op writes the same buffers, so an op must
not be shared between threads: solve_forward makes a fresh op for every
solve, and dataclasses.replace makes one with buffers of its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Grid, RelaxState, _pair

SCHEMES = ("upwind1", "muscl2")


class _Work:
    """An operator's work buffers: the stencil intermediates and the step scratch.

    Each buffer of length N+1 has one ghost cell; its shifted views are made
    here once, so a stencil call slices none of them.
    """

    __slots__ = ("au", "fp", "fm_buf", "fm_cells", "fm", "u_face", "uf", "uf_prev",
                 "v_face", "vf", "vf_prev", "w", "d", "half", "half_head", "t", "t_head",
                 "wp", "wm_buf", "wm_next", "wm", "tmp")

    def __init__(self, n: int):
        self.au = np.empty(n)                  # a*u
        self.fp = np.empty(n)                  # upwind w+ faces
        self.fm_buf = np.empty(n + 1)          # upwind w- faces fm = fm_buf[1:], ghost fm_buf[n]
        self.fm_cells, self.fm = self.fm_buf[:n], self.fm_buf[1:]
        self.u_face = np.empty(n + 1)          # _divergence's faces uf = u_face[1:], ghost [0]
        self.uf, self.uf_prev = self.u_face[1:], self.u_face[:n]
        self.v_face = np.empty(n + 1)
        self.vf, self.vf_prev = self.v_face[1:], self.v_face[:n]
        self.w = np.empty((2, n + 1))          # _char_diffs
        self.d = np.empty((2, n + 1))
        self.half = np.empty(n)                # apply_dx_transpose's differences
        self.half_head = self.half[:-1]
        self.t = np.empty(n)
        self.t_head = self.t[:-1]
        self.wp = np.empty(n)                  # fp_bar
        self.wm_buf = np.empty(n + 1)          # fm_bar = wm_buf[:n], ghost wm_buf[0]
        self.wm_next, self.wm = self.wm_buf[1:], self.wm_buf[:n]
        self.tmp = np.empty(n)                 # one product term of a step's sums


@dataclass(frozen=True)
class SpatialOp:
    """Transport discretization: grid, frozen speed a and scheme (muscl2 limits with minmod).

    `work` holds the operator's work buffers (_Work), made with it; an op
    must not be shared between threads (see the module docstring).
    """

    grid: Grid
    a: float
    scheme: str = "upwind1"
    work: _Work = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}'; available: {', '.join(SCHEMES)}")
        if not self.a > 0:
            raise ValueError(f"speed a must be positive, got {self.a}")
        object.__setattr__(self, "work", _Work(self.grid.n_cells))

    @property
    def linear(self) -> bool:
        """Whether apply_dx is linear in the state (upwind1).

        Its transpose and linearization then read no base state; muscl2's
        limiter branches depend on the state, so they need one.
        """
        return self.scheme == "upwind1"


def _next_sub(x, y):
    """x[i+1] - y[i+1] with periodic wraparound (x - y rolled by -1).

    A view buf[1:] of a buffer whose ghost cell buf[N] repeats buf[0].
    """
    n = x.size
    buf = np.empty(n + 1)
    np.subtract(x, y, out=buf[:n])
    buf[n] = buf[0]
    return buf[1:]


def _branches(d):
    """minmod's branches for the pairs (x, y) = (d[..., i], d[..., i+1]) along the last axis.

    Returns (zero, left).  zero marks x*y <= 0: opposite signs, a zero
    argument or a product that underflows to 0, where the limited slope is
    0.  left marks |x| <= |y|, where x is taken unless zero holds, so a tie
    takes x.  A NaN fails both tests, so minmod(nan, y) is y.
    """
    ad = np.abs(d)
    return d[..., :-1] * d[..., 1:] <= 0.0, ad[..., :-1] <= ad[..., 1:]


def _limited_slopes(d):
    """minmod(d[..., i], d[..., i+1]) along the last axis."""
    zero, left = _branches(d)
    return np.where(zero, 0.0, np.where(left, d[..., :-1], d[..., 1:]))


def minmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slope limiter: 0 when the arguments disagree in sign, else the smaller magnitude.

    Sign ties (x*y <= 0, including zeros) resolve to the zero slope, and a
    magnitude tie to x (see _branches).
    """
    pair = np.stack(np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float)), axis=-1)
    return _limited_slopes(pair)[..., 0]


def _char_diffs(op: SpatialOp, u, v):
    """Both characteristic families and their periodic back differences, in ghost-cell buffers.

    Returns (w, d), each of shape (2, N+1) with w+ = v + a*u in row 0 and
    w- = v - a*u in row 1.  w[:, 1:] holds the cells and w[:, 0] the ghost
    w[:, N-1]; d[:, :N] holds d[i] = w[i] - w[i-1] and d[:, N] the ghost
    d[:, 0].  So d[:, :-1] and d[:, 1:] are the limiter's pairs (d[i], d[i+1]).
    """
    n = u.size
    wk = op.work
    au, w, d = wk.au, wk.w, wk.d
    np.multiply(u, op.a, out=au)
    np.add(v, au, out=w[0, 1:])
    np.subtract(v, au, out=w[1, 1:])
    w[:, 0] = w[:, n]
    np.subtract(w[:, 1:], w[:, :-1], out=d[:, :n])
    d[:, n] = d[:, 0]
    return w, d


def _check_state(op: SpatialOp, u, v):
    n = op.grid.n_cells
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"state size {u.shape}/{v.shape} does not match grid ({n} cells)")


def _limited_faces(op: SpatialOp, u, v):
    """muscl2 interface values of both characteristic families at faces i+1/2."""
    w, d = _char_diffs(op, u, v)
    s = _limited_slopes(d)
    s *= 0.5
    # fp = wp + sp/2 and fm[i] = (wm - sm/2)[i+1]
    return s[0] + w[0, 1:], _next_sub(w[1, 1:], s[1])


def _divergence(op: SpatialOp, fp, fm):
    """Cell increments from the face values at i+1/2.

    Each face field is written into a buffer whose ghost cell 0 repeats the
    last face, N-1/2, which wraps around to face -1/2.
    """
    a, dx = op.a, op.grid.dx
    wk = op.work
    n = fp.size
    uf, vf = wk.uf, wk.vf
    np.subtract(fp, fm, out=uf)
    uf /= 2.0 * a
    wk.u_face[0] = wk.u_face[n]
    np.add(fp, fm, out=vf)
    vf *= 0.5
    wk.v_face[0] = wk.v_face[n]
    out_u = vf - wk.vf_prev
    out_u /= dx
    out_v = uf - wk.uf_prev
    out_v *= a * a
    out_v /= dx
    return out_u, out_v


def apply_dx(op: SpatialOp, state: RelaxState) -> RelaxState:
    """Divergence increment of the transport fluxes at every cell (see module docstring)."""
    u, v = state.u, state.v
    n = op.grid.n_cells
    if u.shape != (n,) or v.shape != (n,):
        _check_state(op, u, v)   # raises
    if op.linear:
        # upwind faces fp = (v + a u)[i] and fm = (v - a u)[i+1], ghost fm_buf[n] = fm_buf[0]
        wk = op.work
        au, fp = wk.au, wk.fp
        np.multiply(u, op.a, out=au)
        np.add(v, au, out=fp)
        np.subtract(v, au, out=wk.fm_cells)
        wk.fm_buf[n] = wk.fm_buf[0]
        fm = wk.fm
    else:
        fp, fm = _limited_faces(op, u, v)
    out_u, out_v = _divergence(op, fp, fm)
    return _pair(out_u, out_v)


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
    took_x, took_y = _limiter_masks(op, base)
    w, d = _char_diffs(op, delta.u, delta.v)
    # frozen slopes sigma[i] = d[i] or d[i+1] as minmod chose at base, else 0
    half = np.where(took_x, d[:, :-1], 0.0) + np.where(took_y, d[:, 1:], 0.0)
    half *= 0.5
    fp = w[0, 1:] + half[0]
    fm = _next_sub(w[1, 1:], half[1])
    out_u, out_v = _divergence(op, fp, fm)
    return RelaxState(out_u, out_v)


def _limiter_masks(op: SpatialOp, base):
    """Where minmod took d[i] and where it took d[i+1] at `base`: (took_x, took_y).

    Each mask has one row per family, as in _char_diffs.
    """
    _, d = _char_diffs(op, base.u, base.v)
    zero, left = _branches(d)
    nonzero = ~zero
    return nonzero & left, nonzero & ~left


def _slope_transpose(sbar, masks):
    """Transpose of the frozen-limiter slope map sigma(w) back onto w-cotangents, families as rows.

    Forward: d[i] = w[i] - w[i-1]; sigma[i] = took_x[i]*d[i] + took_y[i]*d[i+1].
    """
    took_x, took_y = masks
    n = sbar.shape[1]
    right = np.empty((2, n + 1))          # ghost column 0: right[:, :n] is rolled by +1
    right[:, 1:] = np.where(took_y, sbar, 0.0)
    right[:, 0] = right[:, n]
    dbar = np.empty((2, n + 1))           # ghost column n: dbar[:, 1:] is rolled by -1
    np.add(np.where(took_x, sbar, 0.0), right[:, :n], out=dbar[:, :n])
    dbar[:, n] = dbar[:, 0]
    return dbar[:, :n] - dbar[:, 1:]


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
    n = op.grid.n_cells
    if zu.shape != (n,) or zv.shape != (n,):
        _check_state(op, zu, zv)   # raises
    if base is None and not op.linear:
        raise ValueError("muscl2 transpose needs the linearization base state")
    a, dx = op.a, op.grid.dx

    # transpose of the face-difference / back-transform stage:
    # fp_bar = uf_bar/(2a) + vf_bar/2 and fm_bar = -uf_bar/(2a) + vf_bar/2,
    # from the periodic forward differences x[i] - x[i+1] of the inputs
    wk = op.work
    half, t, wp_bar = wk.half, wk.t, wk.wp
    np.subtract(zu[:-1], zu[1:], out=wk.half_head)
    half[-1] = zu[-1] - zu[0]
    half /= dx
    half *= 0.5
    np.subtract(zv[:-1], zv[1:], out=wk.t_head)
    t[-1] = zv[-1] - zv[0]
    t *= a * a
    t /= dx
    t /= 2.0 * a
    np.add(t, half, out=wp_bar)            # fp_bar
    np.subtract(half, t, out=wk.wm_next)   # fm_bar[i-1], ghost wm_buf[0] = wm_buf[n]
    wk.wm_buf[0] = wk.wm_buf[n]
    wm_bar = wk.wm

    if not op.linear:
        # w+ face: fp = wp + sigma(wp)/2; w- face: fm[i] = (wm - sigma(wm)/2)[i+1]
        g = _slope_transpose(np.stack((wp_bar, wm_bar)), _limiter_masks(op, base))
        g *= 0.5
        wp_bar += g[0]
        wm_bar -= g[1]

    # transpose of the characteristic transform w+ = v + a u, w- = v - a u
    out_u = wp_bar - wm_bar
    out_u *= a
    return _pair(out_u, wm_bar + wp_bar)
