import dataclasses

import numpy as np
import pytest

import oracles
from oracles import _minmod, roll_apply_dx, roll_apply_dx_linearized, roll_apply_dx_transpose
from relaxopt import spatial
from relaxopt.core import RelaxState, make_grid
from relaxopt.spatial import (SCHEMES, SpatialOp, apply_dx, apply_dx_linearized,
                              apply_dx_transpose, minmod)


def oracle_upwind_increment(a, dx, u, v):
    """Scalar-loop reference for the first-order upwind divergence.

    Independent of the vectorized implementation: builds both characteristic
    fields, picks the upwind cell per face, transforms back, differences.
    """
    n = len(u)
    wp = [v[i] + a * u[i] for i in range(n)]
    wm = [v[i] - a * u[i] for i in range(n)]
    fp = [wp[i] for i in range(n)]                 # face i+1/2 from cell i
    fm = [wm[(i + 1) % n] for i in range(n)]       # face i+1/2 from cell i+1
    u_face = [(fp[i] - fm[i]) / (2.0 * a) for i in range(n)]
    v_face = [(fp[i] + fm[i]) / 2.0 for i in range(n)]
    out_u = [(v_face[i] - v_face[i - 1]) / dx for i in range(n)]
    out_v = [a * a * (u_face[i] - u_face[i - 1]) / dx for i in range(n)]
    return np.array(out_u), np.array(out_v)


def test_constant_state_gives_zero_increment():
    g = make_grid(0.0, 1.0, 16)
    st = RelaxState(np.full(16, 3.7), np.full(16, -1.2))
    for scheme in ("upwind1", "muscl2"):
        out = apply_dx(SpatialOp(g, 2.0, scheme=scheme), st)
        assert np.array_equal(out.u, np.zeros(16))
        assert np.array_equal(out.v, np.zeros(16))


def test_golden_four_cell_unit_bump():
    # a=1, dx=1, u = (0,1,0,0), v = 0; values frozen from the loop oracle
    g = make_grid(0.0, 4.0, 4)
    st = RelaxState(np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4))
    out = apply_dx(SpatialOp(g, 1.0), st)
    ou, ov = oracle_upwind_increment(1.0, 1.0, st.u, st.v)
    assert np.allclose(out.u, ou, atol=1e-15, rtol=0.0)
    assert np.allclose(out.v, ov, atol=1e-15, rtol=0.0)
    assert np.array_equal(out.u, np.array([-0.5, 1.0, -0.5, 0.0]))
    assert np.array_equal(out.v, np.array([0.5, 0.0, -0.5, 0.0]))


def test_upwind_matches_loop_oracle_random():
    rng = np.random.default_rng(11)
    g = make_grid(-1.0, 3.0, 17)
    op = SpatialOp(g, 1.3)
    u = rng.standard_normal(17)
    v = rng.standard_normal(17)
    out = apply_dx(op, RelaxState(u, v))
    ou, ov = oracle_upwind_increment(1.3, g.dx, u, v)
    assert np.allclose(out.u, ou, atol=1e-13, rtol=0.0)
    assert np.allclose(out.v, ov, atol=1e-13, rtol=0.0)


def test_single_mode_approximates_derivative():
    # u = sin(x), v = a sin(x) is a pure right-going characteristic; the
    # u-increment approximates d/dx v = a cos(x) to first order
    a = 1.0
    g = make_grid(0.0, 2.0 * np.pi, 512)
    st = RelaxState(np.sin(g.centers), a * np.sin(g.centers))
    out = apply_dx(SpatialOp(g, a), st)
    err = np.abs(out.u - a * np.cos(g.centers)).max()
    assert err < 0.05


def test_upwind_error_halves_when_grid_doubles():
    a = 1.4
    errs = []
    for n in (256, 512):
        g = make_grid(0.0, 2.0 * np.pi, n)
        st = RelaxState(np.sin(g.centers), a * np.sin(g.centers))
        out = apply_dx(SpatialOp(g, a), st)
        errs.append(np.abs(out.u - a * np.cos(g.centers)).max())
    ratio = errs[0] / errs[1]
    assert 1.6 <= ratio <= 2.4


def test_muscl_error_quarters_when_grid_doubles():
    # second order in the cell-averaged L1 norm (the limiter clips slopes at
    # smooth extrema, which caps the max-norm rate but not the L1 rate)
    a = 1.4
    errs = []
    for n in (256, 512):
        g = make_grid(0.0, 2.0 * np.pi, n)
        st = RelaxState(np.sin(g.centers), a * np.sin(g.centers))
        out = apply_dx(SpatialOp(g, a, scheme="muscl2"), st)
        errs.append(g.dx * np.abs(out.u - a * np.cos(g.centers)).sum())
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_conservation_telescoping():
    rng = np.random.default_rng(5)
    n = 64
    g = make_grid(0.0, 2.0 * np.pi, n)
    st = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
    for scheme in ("upwind1", "muscl2"):
        out = apply_dx(SpatialOp(g, 2.3, scheme=scheme), st)
        assert abs(out.u.sum()) <= 1e-13 * n
        assert abs(out.v.sum()) <= 1e-13 * n


def test_dot_test_all_sizes_both_schemes():
    rng = np.random.default_rng(7)
    for n in (4, 16, 64):
        g = make_grid(0.0, 2.0 * np.pi, n)
        base = RelaxState(np.sin(g.centers) + 0.3 * rng.standard_normal(n),
                          np.cos(g.centers) + 0.3 * rng.standard_normal(n))
        for scheme in ("upwind1", "muscl2"):
            op = SpatialOp(g, 1.7, scheme=scheme)
            for _ in range(20):
                z = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
                w = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
                fz = apply_dx_linearized(op, base, z)
                tw = apply_dx_transpose(op, w, base)
                lhs = float(fz.u @ w.u + fz.v @ w.v)
                rhs = float(z.u @ tw.u + z.v @ tw.v)
                scale = np.sqrt(z.u @ z.u + z.v @ z.v) * np.sqrt(w.u @ w.u + w.v @ w.v)
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_transpose_matches_assembled_matrix():
    # assemble the 8x8 operator matrix column by column from unit vectors,
    # then compare apply_dx_transpose against multiplication by its transpose
    n = 4
    g = make_grid(0.0, 4.0, n)
    op = SpatialOp(g, 1.0)
    m = np.zeros((2 * n, 2 * n))
    for k in range(2 * n):
        e = np.zeros(2 * n)
        e[k] = 1.0
        out = apply_dx(op, RelaxState(e[:n], e[n:]))
        m[:, k] = np.concatenate([out.u, out.v])
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.standard_normal(2 * n)
        out = apply_dx_transpose(op, RelaxState(z[:n], z[n:]))
        assert np.allclose(np.concatenate([out.u, out.v]), m.T @ z, atol=1e-14, rtol=0.0)


def test_transpose_annihilates_constants():
    g = make_grid(0.0, 1.0, 32)
    st = RelaxState(np.full(32, 2.0), np.full(32, -0.5))
    for scheme in ("upwind1", "muscl2"):
        base = RelaxState(np.sin(g.centers), np.cos(g.centers))
        out = apply_dx_transpose(SpatialOp(g, 1.1, scheme=scheme), st, base)
        assert np.abs(out.u).max() <= 1e-13
        assert np.abs(out.v).max() <= 1e-13


def test_size_mismatch_raises():
    g = make_grid(0.0, 1.0, 8)
    op = SpatialOp(g, 1.0)
    st = RelaxState(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        apply_dx(op, st)
    with pytest.raises(ValueError):
        apply_dx_transpose(op, st)


def test_muscl_transpose_requires_base():
    g = make_grid(0.0, 1.0, 8)
    op = SpatialOp(g, 1.0, scheme="muscl2")
    z = RelaxState(np.zeros(8), np.zeros(8))
    with pytest.raises(ValueError, match="linearization base"):
        apply_dx_transpose(op, z)
    # a base of the wrong size is rejected as apply_dx_linearized rejects it
    one_cell = RelaxState(np.zeros(1), np.zeros(1))
    for fn in (lambda: apply_dx_transpose(op, z, one_cell),
               lambda: apply_dx_linearized(op, one_cell, z)):
        with pytest.raises(ValueError, match=r"state size \(1,\)/\(1,\) does not match grid"):
            fn()


def test_minmod_values():
    assert minmod(1.0, -2.0) == 0.0
    assert minmod(0.0, 5.0) == 0.0
    assert minmod(2.0, 1.0) == 1.0
    assert minmod(-1.0, -3.0) == -1.0
    assert minmod(2.0, 2.0) == 2.0
    assert np.array_equal(minmod(np.array([1.0, -1.0]), np.array([2.0, -0.5])),
                          np.array([1.0, -0.5]))


def _bits(x):
    """The IEEE bit patterns of x, so signed zeros and NaN payloads compare too."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


# zeros of both signs, magnitudes whose products underflow to 0, exact
# magnitude ties and NaN
_MINMOD_EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-200, -1e-200,
                          1.0, -1.0, 2.0, -2.0, np.nan])


def test_minmod_edge_rule_matches_oracle_bitwise():
    x, y = np.meshgrid(_MINMOD_EDGES, _MINMOD_EDGES)
    assert np.array_equal(_bits(minmod(x, y)), _bits(_minmod(x, y)))
    assert np.array_equal(_bits(minmod(list(_MINMOD_EDGES), 1.0)),
                          _bits(_minmod(_MINMOD_EDGES, 1.0)))
    # a product that underflows to 0 counts as a sign tie: the slope is 0
    assert 1e-200 * 1e-200 == 0.0
    assert minmod(1e-200, 1e-200) == 0.0
    assert minmod(1e-200, 1.0) == 1e-200
    # every zero-slope result is +0.0, whatever the signs of zero arguments
    for a in (0.0, -0.0):
        for b in (0.0, -0.0, 1.0, -1.0):
            assert _bits(minmod(a, b)) == _bits(0.0)
            assert _bits(minmod(b, a)) == _bits(0.0)
    # a magnitude tie takes the first argument
    assert minmod(-2.0, -2.0) == -2.0
    # NaN fails both tests, so the second argument is taken
    assert minmod(np.nan, 1.0) == 1.0
    assert np.isnan(minmod(1.0, np.nan))


@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
def test_operator_outputs_own_their_data(scheme):
    # the stencils shift fields inside padded buffers; a returned view would
    # keep its whole buffer alive wherever the result is stored
    rng = np.random.default_rng(3)
    n = 12
    op = SpatialOp(make_grid(0.0, 1.0, n), 1.5, scheme=scheme)
    base = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
    delta = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
    for out in (apply_dx(op, base), apply_dx_linearized(op, base, delta),
                apply_dx_transpose(op, delta, base)):
        assert out.u.base is None
        assert out.v.base is None


def test_unknown_scheme_rejected():
    g = make_grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        SpatialOp(g, 1.0, scheme="weno5")
    with pytest.raises(ValueError):
        SpatialOp(g, 0.0)
    # an infinite or NaN speed, or one whose square overflows, would turn
    # apply_dx's output non-finite
    for bad in (np.inf, np.nan, -np.inf, 1e200, np.float64(1e200)):
        for scheme in SCHEMES:
            with pytest.raises(ValueError, match="speed a"):
                SpatialOp(g, bad, scheme)


def test_linear_is_derived_from_the_scheme():
    # set once with the op, like its work, and not a constructor argument
    op = SpatialOp(make_grid(0.0, 1.0, 8), 1.0)
    assert op.linear is True and type(op.work) is spatial._Work
    limited = dataclasses.replace(op, scheme="muscl2")
    assert limited.linear is False and type(limited.work) is spatial._LimitedWork
    assert "linear" not in repr(op)
    with pytest.raises(TypeError):
        SpatialOp(op.grid, 1.0, linear=False)
    with pytest.raises(ValueError):
        dataclasses.replace(op, linear=False)


def _edge_states(n, rng):
    """Base states whose limiter pairs hit minmod's edge cases.

    Small integer fields with a = 2 keep w+- = v +- a*u exact, so neighbouring
    slopes are often equal (ramps) or zero (plateaus).  A ramp of step 1e-200
    has slopes whose products underflow to 0, signed-zero fields give zero
    slopes of both signs, and a NaN cell poisons its neighbours' slopes.
    """
    i = np.arange(n, dtype=float)
    yield RelaxState(rng.integers(-2, 3, n).astype(float), rng.integers(-2, 3, n).astype(float))
    yield RelaxState(i, np.zeros(n))                        # ramp: equal slopes except at the wrap
    yield RelaxState(np.floor(i / 2), np.ones(n))           # staircase: alternating zero slopes
    yield RelaxState(np.zeros(n), np.zeros(n))              # all slopes zero
    yield RelaxState(1e-200 * i, np.zeros(n))               # slopes 2e-200: products underflow
    yield RelaxState(np.where(i % 3 == 0, -0.0, 0.0), np.full(n, -0.0))
    poisoned = np.sin(i)
    poisoned[n // 2] = np.nan
    yield RelaxState(poisoned, np.cos(i))


@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 50, 2048])
def test_slice_stencils_match_roll_oracle_bitwise(n, scheme):
    rng = np.random.default_rng(n)
    g = make_grid(0.0, 2.0 * np.pi, n)
    random_states = [RelaxState(rng.standard_normal(n), rng.standard_normal(n))
                     for _ in range(5)]
    cases = [(1.3, b) for b in random_states] + [(2.0, b) for b in _edge_states(n, rng)]
    for a, base in cases:
        op = SpatialOp(g, a, scheme=scheme)
        delta = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
        pairs = [(apply_dx(op, base), roll_apply_dx(op, base)),
                 (apply_dx_linearized(op, base, delta),
                  roll_apply_dx_linearized(op, base, delta)),
                 (apply_dx_transpose(op, delta, base),
                  roll_apply_dx_transpose(op, delta, base))]
        for got, want in pairs:
            assert np.array_equal(_bits(got.u), _bits(want.u))
            assert np.array_equal(_bits(got.v), _bits(want.v))


def test_minmod_and_apply_dx_slopes_come_from_one_rule(monkeypatch):
    # the roll oracle limiting with the public minmod matches apply_dx bit for bit
    # on every edge state, so minmod picks the slopes the op path picks
    monkeypatch.setattr(oracles, "_minmod", minmod)
    rng = np.random.default_rng(11)
    for n in (3, 50):
        op = SpatialOp(make_grid(0.0, 2.0 * np.pi, n), 2.0, scheme="muscl2")
        for base in _edge_states(n, rng):
            got, want = apply_dx(op, base), roll_apply_dx(op, base)
            assert np.array_equal(_bits(got.u), _bits(want.u))
            assert np.array_equal(_bits(got.v), _bits(want.v))
    # and both reach the limiter through the same two functions
    calls = []
    for name in ("_branches", "_select"):
        rule = getattr(spatial, name)
        monkeypatch.setattr(spatial, name,
                            lambda *args, _rule=rule, _name=name: calls.append(_name) or _rule(*args))
    minmod(np.array([1.0, -1.0]), np.array([2.0, -0.5]))
    assert calls == ["_branches", "_select"]
    calls.clear()
    apply_dx(op, base)
    assert calls == ["_branches", "_select"]
