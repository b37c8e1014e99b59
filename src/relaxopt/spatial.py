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
Under muscl2 the two characteristic families are the rows of one flat
buffer (`_char_diffs`, laid out in `_LimitedWork`), and their back
differences d[i] = w[i] - w[i-1] the rows of another, so one pass over d
decides minmod's branches for the pairs (d[i], d[i+1]) of both families
(`_branches`), and `_select` writes the slopes those branches pick.  The
limited slopes of apply_dx, the frozen slopes of the linearization and of
the transpose, and the public `minmod` all come from that one rule.  The
linearization adds 0.0 to its frozen slopes, which turns a selected -0.0
into +0.0 as the sum of two masked terms in the `roll` formulas does.
`_divergence` differences the face values inside their own ghost-cell
buffers.  apply_dx under upwind1 and apply_dx_transpose, which every time
step calls, write their shape check, upwind faces and differences inline
instead of through helper frames; the transpose's inputs arrive unpadded,
so it forms x[i] - x[i+1] with one slice subtraction and the wrapped last
element.  The operators compute a*u once and scale their own
temporaries in place (/ (2a), * 0.5, / dx, * a^2), each by a read-only 0-d
array: 0.5 is the module's, and a, 2a, a^2 and dx are the op's, made with
its work (_Work), since numpy converts a Python float operand on every
call but takes a 0-d array as it is.  The transpose forms
fm_bar = vf_bar/2 - uf_bar/(2a), which IEEE arithmetic rounds exactly as
(-uf_bar)/(2a) + vf_bar/2.  Each output element sees the same
floating-point operations in the same order as the `roll` formulas, so the
results are bit-identical to them; test_spatial.py compares the bit
patterns with the test-only reference in tests/oracles.py.  A shifted view never
leaves the module: the arrays the operators return own their data, and
`apply_dx` and `apply_dx_transpose` wrap them without re-validating them
(core._pair).

The work buffers belong to the operator.  SpatialOp.work, made once with the
op, holds its constants a, 2a, a^2 and dx, a*u, the faces and _divergence's
face fields with their ghost cells, the transpose's differences and
w-cotangents, the shifted views of each (made once), and one scratch array
of length N in which imex_step and the adjoint step form each product term
of their sums.  A muscl2 op's work (_LimitedWork) also holds the families,
the limiter's differences, magnitudes, products, branch masks and slopes,
and the transpose's two ghost-cell buffers.  The stencils write their
intermediates there, each ufunc taking its output array positionally
through a module-level name bound once (_add, _multiply, ...), which numpy
parses faster than np.add(..., out=...); so under either scheme apply_dx,
apply_dx_linearized and apply_dx_transpose allocate nothing but the two
arrays they return, and slice no buffer of their own.  Those arrays own
their data, so no later call overwrites an earlier result.  Every call on
an op writes the same buffers, so an op must not be shared between threads:
solve_forward makes a fresh op for every solve, and dataclasses.replace
makes one with buffers of its own and constants from its new inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Grid, RelaxState, _const, _pair

SCHEMES = ("upwind1", "muscl2")

# The stencils' fixed constants as read-only 0-d arrays (core._const); the
# op's own, a, 2a, a^2 and dx, are in its work
_ZERO = _const(0.0)
_HALF = _const(0.5)

# The numpy calls of the stencils, bound once; each takes its output array
# positionally, which numpy parses faster than an out= keyword
_abs, _add, _subtract, _multiply = np.abs, np.add, np.subtract, np.multiply
_less_equal, _putmask = np.less_equal, np.putmask


class _Limiter:
    """minmod's buffers for the pairs (x, y) = (d[..., i], d[..., i+1]) along d's last axis.

    d holds the differences and ad their magnitudes, x, y, ax and ay are
    their pair views, and prod, the branch masks zero and left (_branches)
    and the slopes s hold one element per pair.
    """

    __slots__ = ("d", "x", "y", "ad", "ax", "ay", "prod", "zero", "left", "s")

    def __init__(self, shape):
        pairs = shape[:-1] + (shape[-1] - 1,)
        self.d = np.empty(shape)
        self.x, self.y = self.d[..., :-1], self.d[..., 1:]
        self.ad = np.empty(shape)
        self.ax, self.ay = self.ad[..., :-1], self.ad[..., 1:]
        self.prod = np.empty(pairs)
        self.zero = np.empty(pairs, dtype=bool)
        self.left = np.empty(pairs, dtype=bool)
        self.s = np.empty(pairs)


class _Work:
    """An operator's work buffers and constants: the stencil intermediates and the step scratch.

    a, two_a, a_sq and dx are the op's a, 2.0*a, a*a and grid.dx as
    read-only 0-d arrays (core._const), the scalings the stencils apply.
    Each buffer with a ghost cell has its shifted views made here once, so a
    stencil call slices none of them.  wbar holds the transpose's
    w-cotangents as two rows of m = N+2 (see _LimitedWork): wp_bar in
    wbar[:N], wm_bar in wbar[m:m+N], whose ghost wbar[m] repeats wbar[m+N].
    """

    __slots__ = ("a", "two_a", "a_sq", "dx",
                 "au", "fp", "fm_buf", "fm_cells", "fm", "u_face", "uf", "uf_prev",
                 "v_face", "vf", "vf_prev", "half", "half_head", "t", "t_head",
                 "wbar", "wp_bar", "wm_bar", "wm_bar_next", "tmp")

    def __init__(self, n: int, a: float, dx: float):
        m = n + 2
        self.a, self.two_a, self.a_sq = _const(a), _const(2.0 * a), _const(a * a)
        self.dx = _const(dx)
        self.au = np.empty(n)                  # a*u
        self.fp = np.empty(n)                  # w+ faces
        self.fm_buf = np.empty(n + 1)          # w- faces fm = fm_buf[1:], ghost fm_buf[n]
        self.fm_cells, self.fm = self.fm_buf[:n], self.fm_buf[1:]
        self.u_face = np.empty(n + 1)          # _divergence's faces uf = u_face[1:], ghost [0]
        self.uf, self.uf_prev = self.u_face[1:], self.u_face[:n]
        self.v_face = np.empty(n + 1)
        self.vf, self.vf_prev = self.v_face[1:], self.v_face[:n]
        self.half = np.empty(n)                # apply_dx_transpose's differences
        self.half_head = self.half[:-1]
        self.t = np.empty(n)
        self.t_head = self.t[:-1]
        self.wbar = np.full(2 * m, np.nan)     # fp_bar, then wp_bar; fm_bar[i-1], then wm_bar
        self.wp_bar, self.wm_bar = self.wbar[:n], self.wbar[m:m + n]
        self.wm_bar_next = self.wbar[m + 1:m + 1 + n]
        self.tmp = np.empty(n)                 # one product term of a step's sums


class _LimitedWork(_Work):
    """muscl2's work buffers: _Work's, plus the families, the limiter and the slope transpose.

    The two characteristic families are the rows of one flat buffer, each row
    m = N+2 long: a ghost cell, the N cells and a NaN pad.  The differences,
    the limiter's pairs and the transpose's buffers keep that layout, so one
    contiguous 1-D call does the work of a call over (2, N) rows, which costs
    numpy about twice as much at these sizes.  Pair k < N belongs to the w+
    row and pair m + k to the w- row; every element between them reads a
    NaN pad, so it raises no floating-point warning, and no result reads it.
    """

    __slots__ = ("w", "wp", "wm", "w_next", "w_prev", "lim", "d_head", "sp", "sm", "sbar",
                 "right", "right_cells", "right_prev", "dbar", "dbar_cells", "dbar_next")

    def __init__(self, n: int, a: float, dx: float):
        super().__init__(n, a, dx)
        m = n + 2
        self.w = np.full(2 * m, np.nan)        # _char_diffs: w+ in w[1:1+N], w- in w[m+1:m+1+N]
        self.wp, self.wm = self.w[1:1 + n], self.w[m + 1:m + 1 + n]
        self.w_next, self.w_prev = self.w[1:], self.w[:-1]
        self.lim = _Limiter((2 * m,))          # d[i] = w[i] - w[i-1] in d[:N] and d[m:m+N]
        self.lim.d.fill(np.nan)
        self.d_head = self.lim.d[:-1]
        self.sp, self.sm = self.lim.s[:n], self.lim.s[m:m + n]
        self.sbar = self.wbar[:-1]             # (wp_bar, wm_bar) as the limiter's pairs
        self.right = np.full(2 * m, np.nan)    # took_y*sbar one cell right, ghost right[0]
        self.right_cells, self.right_prev = self.right[1:], self.right[:-1]
        self.dbar = np.full(2 * m, np.nan)     # d-cotangents, ghost dbar[N]
        self.dbar_cells, self.dbar_next = self.dbar[:-1], self.dbar[1:]


@dataclass(frozen=True)
class SpatialOp:
    """Transport discretization: grid, frozen speed a and scheme (muscl2 limits with minmod).

    a must be positive, and finite with a finite a**2, since the stencils
    scale by a, 2a and a**2.  The other fields are derived from these and
    are not constructor arguments.  `linear` says whether apply_dx is linear
    in the state (upwind1): its transpose and linearization then read no
    base state, while muscl2's limiter branches depend on the state, so they
    need one.
    `work` holds the operator's work buffers (_Work, or _LimitedWork under
    muscl2), made with it; an op must not be shared between threads (see the
    module docstring).
    """

    grid: Grid
    a: float
    scheme: str = "upwind1"
    linear: bool = field(init=False, repr=False, compare=False)
    work: _Work = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}'; available: {', '.join(SCHEMES)}")
        a = float(self.a)
        if not (a > 0 and a * a < np.inf):   # NaN fails too
            raise ValueError(f"speed a must be positive and finite, with a finite a**2, "
                             f"got {self.a}")
        object.__setattr__(self, "linear", self.scheme == "upwind1")
        work = _Work if self.linear else _LimitedWork
        object.__setattr__(self, "work", work(self.grid.n_cells, self.a, self.grid.dx))


def _branches(lim: _Limiter):
    """minmod's branches for the pairs (x, y) in lim.d, written into lim.zero and lim.left.

    zero marks x*y <= 0: opposite signs, a zero argument or a product that
    underflows to 0, where the limited slope is 0.  left marks |x| <= |y|,
    where x is taken unless zero holds, so a tie takes x.  A NaN fails both
    tests, so minmod(nan, y) is y.
    """
    _abs(lim.d, lim.ad)
    _multiply(lim.x, lim.y, lim.prod)
    _less_equal(lim.prod, _ZERO, lim.zero)
    _less_equal(lim.ax, lim.ay, lim.left)


def _select(out, x, y, lim: _Limiter):
    """Write where(zero, 0.0, where(left, x, y)) into out, with the branches in lim."""
    out[...] = y    # np.copyto would pay numpy's array-function dispatch per call
    _putmask(out, lim.left, x)
    _putmask(out, lim.zero, _ZERO)


def minmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slope limiter: 0 when the arguments disagree in sign, else the smaller magnitude.

    Sign ties (x*y <= 0, including zeros) resolve to the zero slope, and a
    magnitude tie to x (see _branches).
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    lim = _Limiter(np.broadcast_shapes(x.shape, y.shape) + (2,))
    lim.d[..., 0] = x
    lim.d[..., 1] = y
    _branches(lim)
    _select(lim.s, lim.x, lim.y, lim)
    return lim.s[..., 0]


def _char_diffs(op: SpatialOp, u, v):
    """Both characteristic families and their periodic back differences, into op.work.

    Row 0 of w (see _LimitedWork) holds w+ = v + a*u and row 1 w- = v - a*u,
    each after a ghost cell that repeats the row's last cell.  lim.d holds
    d[i] = w[i] - w[i-1] in the same rows, each followed by a ghost that
    repeats d[0], so lim.x and lim.y are the limiter's pairs (d[i], d[i+1]).
    """
    n, m = op.grid.n_cells, op.grid.n_cells + 2
    wk = op.work
    w, d = wk.w, wk.lim.d
    _multiply(u, wk.a, wk.au)
    _add(v, wk.au, wk.wp)
    _subtract(v, wk.au, wk.wm)
    w[0] = w[n]
    w[m] = w[m + n]
    _subtract(wk.w_next, wk.w_prev, wk.d_head)
    d[n] = d[0]
    d[m + n] = d[m]


def _check_state(op: SpatialOp, u, v):
    n = op.grid.n_cells
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"state size {u.shape}/{v.shape} does not match grid ({n} cells)")


def _limited_faces(wk: _LimitedWork):
    """muscl2 faces at i+1/2 from the families in wk.w and the slopes in wk.lim.s.

    fp = wp + sp/2 goes into wk.fp and fm[i] = (wm - sm/2)[i+1] into wk.fm.
    """
    wk.lim.s *= _HALF
    _add(wk.wp, wk.sp, wk.fp)
    _subtract(wk.wm, wk.sm, wk.fm_cells)
    wk.fm_buf[-1] = wk.fm_buf[0]


def _divergence(op: SpatialOp):
    """Cell increments from the face values at i+1/2 in op.work.fp and op.work.fm.

    Each face field is written into a buffer whose ghost cell 0 repeats the
    last face, N-1/2, which wraps around to face -1/2.
    """
    wk = op.work
    n = op.grid.n_cells
    fp, fm, uf, vf = wk.fp, wk.fm, wk.uf, wk.vf
    _subtract(fp, fm, uf)
    uf /= wk.two_a
    wk.u_face[0] = wk.u_face[n]
    _add(fp, fm, vf)
    vf *= _HALF
    wk.v_face[0] = wk.v_face[n]
    out_u = vf - wk.vf_prev
    out_u /= wk.dx
    out_v = uf - wk.uf_prev
    out_v *= wk.a_sq
    out_v /= wk.dx
    return _pair(out_u, out_v)


def apply_dx(op: SpatialOp, state: RelaxState) -> RelaxState:
    """Divergence increment of the transport fluxes at every cell (see module docstring)."""
    u, v = state.u, state.v
    n = op.grid.n_cells
    if u.shape != (n,) or v.shape != (n,):
        _check_state(op, u, v)   # raises
    wk = op.work
    if op.linear:
        # upwind faces fp = (v + a u)[i] and fm = (v - a u)[i+1], ghost fm_buf[n] = fm_buf[0]
        au = wk.au
        _multiply(u, wk.a, au)
        _add(v, au, wk.fp)
        _subtract(v, au, wk.fm_cells)
        wk.fm_buf[n] = wk.fm_buf[0]
    else:
        lim = wk.lim
        _char_diffs(op, u, v)
        _branches(lim)
        _select(lim.s, lim.x, lim.y, lim)
        _limited_faces(wk)
    return _divergence(op)


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
    wk = op.work
    lim = wk.lim
    _char_diffs(op, base.u, base.v)
    _branches(lim)                         # frozen at base
    _char_diffs(op, delta.u, delta.v)
    # frozen slopes sigma[i] = d[i] or d[i+1] as minmod chose at base, else 0;
    # adding 0.0 rounds a selected -0.0 to +0.0, as where(took_x, d[i], 0) +
    # where(took_y, d[i+1], 0) does
    _select(lim.s, lim.x, lim.y, lim)
    lim.s += _ZERO
    _limited_faces(wk)
    return _divergence(op)


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
    m = n + 2
    if zu.shape != (n,) or zv.shape != (n,):
        _check_state(op, zu, zv)   # raises
    if not op.linear:
        if base is None:
            raise ValueError("muscl2 transpose needs the linearization base state")
        _check_state(op, base.u, base.v)

    # transpose of the face-difference / back-transform stage:
    # fp_bar = uf_bar/(2a) + vf_bar/2 and fm_bar = -uf_bar/(2a) + vf_bar/2,
    # from the periodic forward differences x[i] - x[i+1] of the inputs
    wk = op.work
    half, t, wp_bar, wm_bar = wk.half, wk.t, wk.wp_bar, wk.wm_bar
    _subtract(zu[:-1], zu[1:], wk.half_head)
    half[-1] = zu[-1] - zu[0]
    half /= wk.dx
    half *= _HALF
    _subtract(zv[:-1], zv[1:], wk.t_head)
    t[-1] = zv[-1] - zv[0]
    t *= wk.a_sq
    t /= wk.dx
    t /= wk.two_a
    _add(t, half, wp_bar)               # fp_bar
    _subtract(half, t, wk.wm_bar_next)  # fm_bar[i-1]
    wk.wbar[m] = wk.wbar[m + n]

    if not op.linear:
        # w+ face: fp = wp + sigma(wp)/2; w- face: fm[i] = (wm - sigma(wm)/2)[i+1].
        # sigma[i] = took_x[i]*d[i] + took_y[i]*d[i+1] with d[i] = w[i] - w[i-1]
        # and the branches frozen at base, so its transpose takes each row of
        # sbar = (wp_bar, wm_bar) to dbar[i] - dbar[i+1], where
        # dbar[i] = took_x[i]*sbar[i] + took_y[i-1]*sbar[i-1]
        lim, right, dbar = wk.lim, wk.right, wk.dbar
        _char_diffs(op, base.u, base.v)
        _branches(lim)
        _select(wk.right_cells, _ZERO, wk.sbar, lim)   # where(took_y, sbar, 0)
        right[0] = right[n]
        right[m] = right[m + n]
        _select(wk.dbar_cells, wk.sbar, _ZERO, lim)    # where(took_x, sbar, 0)
        _add(wk.dbar_cells, wk.right_prev, wk.dbar_cells)
        dbar[n] = dbar[0]
        dbar[m + n] = dbar[m]
        g = lim.s
        _subtract(wk.dbar_cells, wk.dbar_next, g)
        g *= _HALF
        wp_bar += wk.sp
        wm_bar -= wk.sm

    # transpose of the characteristic transform w+ = v + a u, w- = v - a u
    out_u = wp_bar - wm_bar
    out_u *= wk.a
    return _pair(out_u, wm_bar + wp_bar)
