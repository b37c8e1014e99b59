"""A SpatialOp's work buffers stay inside it.

The stencils and the step sums write their intermediates into the op's
buffers (SpatialOp.work), so every array they return must own memory apart
from those buffers, an earlier result must survive later calls on the same
op, two ops must never share a buffer, and a stencil call must allocate
nothing but its outputs.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from relaxopt.adjoint import adjoint_step_ark, adjoint_step_xi
from relaxopt.core import RelaxState, burgers_model, make_grid
from relaxopt.forward import imex_step
from relaxopt.spatial import (SCHEMES, SpatialOp, apply_dx, apply_dx_linearized,
                              apply_dx_transpose)
from relaxopt.tableau import builtin_tableau

N = 16


def _buffers(op):
    """Every array an op's work holds, its base classes' and its limiter's included."""
    found, owners = [], [op.work]
    while owners:
        owner = owners.pop()
        for cls in type(owner).__mro__:
            for name in getattr(cls, "__slots__", ()):
                value = getattr(owner, name)
                (found if isinstance(value, np.ndarray) else owners).append(value)
    return found


def _random_state(rng):
    return RelaxState(0.5 + 0.3 * rng.standard_normal(N), rng.standard_normal(N))


def _outputs(op, rng):
    """Every array the stencils and both steps return for one set of random inputs."""
    model = burgers_model()
    base, delta = _random_state(rng), _random_state(rng)
    out = [apply_dx(op, base), apply_dx_linearized(op, base, delta),
           apply_dx_transpose(op, delta, base)]
    arrays = [x for st in out for x in (st.u, st.v)]
    h = 0.4 * op.grid.dx / op.a
    tab = builtin_tableau("ars-222")
    y, stages = imex_step(tab, op, model, 1e-6, base, h)
    arrays += [y.u, y.v] + [x for st in stages for x in (st.u, st.v)]
    p_next = RelaxState(rng.standard_normal(N), rng.standard_normal(N))
    for step in (adjoint_step_ark, adjoint_step_xi):
        p = step(tab, op, model, 1e-6, stages, p_next, h)
        arrays += [p.u, p.v]
    return arrays


@pytest.mark.parametrize("scheme", SCHEMES)
def test_results_share_no_memory_with_the_op_buffers(scheme):
    op = SpatialOp(make_grid(0.0, 2.0 * np.pi, N), 2.0, scheme)
    for out in _outputs(op, np.random.default_rng(0)):
        assert not any(np.shares_memory(out, buf) for buf in _buffers(op))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_earlier_results_survive_later_calls_on_the_same_op(scheme):
    g = make_grid(0.0, 2.0 * np.pi, N)
    op = SpatialOp(g, 2.0, scheme)
    first = _outputs(op, np.random.default_rng(1))
    kept = [x.copy() for x in first]
    _outputs(op, np.random.default_rng(2))
    assert all(np.array_equal(x, k) for x, k in zip(first, kept))
    # a reused op computes bit for bit what a fresh one does
    again = _outputs(op, np.random.default_rng(1))
    fresh = _outputs(SpatialOp(g, 2.0, scheme), np.random.default_rng(1))
    assert all(np.array_equal(x, k) for x, k in zip(again, kept))
    assert all(np.array_equal(x, k) for x, k in zip(fresh, kept))


def test_ops_share_no_buffer():
    # the op's 0-d constants are among its buffers, so no two ops share one either
    g = make_grid(0.0, 1.0, N)
    op = SpatialOp(g, 1.5)
    others = [SpatialOp(g, 1.5), SpatialOp(make_grid(0.0, 1.0, N), 1.5),
              dataclasses.replace(op), dataclasses.replace(op, scheme="muscl2"),
              dataclasses.replace(op, a=3.0), dataclasses.replace(op, grid=make_grid(0.0, 2.0, N))]
    for other in others:
        assert not any(np.shares_memory(x, y) for x in _buffers(op) for y in _buffers(other))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_op_constants_are_read_only_scalars_of_its_inputs(scheme):
    op = SpatialOp(make_grid(0.0, 2.0 * np.pi, N), 1.5, scheme)
    assert type(op.a) is float
    wk = op.work
    for name, value in (("a", 1.5), ("two_a", 3.0), ("a_sq", 2.25), ("dx", op.grid.dx)):
        const = getattr(wk, name)
        assert const.shape == () and const.dtype == np.float64 and const == value, name
        assert not const.flags.writeable, name
        with pytest.raises(ValueError):
            const[...] = 0.0
        assert const == value, name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_replaced_op_computes_what_a_fresh_op_does(scheme):
    # dataclasses.replace makes the op's constants from its new inputs
    g, other = make_grid(0.0, 2.0 * np.pi, N), make_grid(0.0, 1.0, N)
    op = SpatialOp(g, 2.0, scheme)
    before = _outputs(op, np.random.default_rng(3))
    for changed, fresh in ((dataclasses.replace(op, a=3.0), SpatialOp(g, 3.0, scheme)),
                           (dataclasses.replace(op, grid=other), SpatialOp(other, 2.0, scheme))):
        got = _outputs(changed, np.random.default_rng(3))
        want = _outputs(fresh, np.random.default_rng(3))
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        # the three stencils' outputs come first; a step's stage 0 is its input
        assert not any(np.array_equal(x, y) for x, y in zip(got[:6], before))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stencils_allocate_only_their_outputs(scheme):
    n = 4096
    op = SpatialOp(make_grid(0.0, 2.0 * np.pi, n), 2.0, scheme)
    rng = np.random.default_rng(4)
    base = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
    delta = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
    calls = {"apply_dx": lambda: apply_dx(op, base),
             "apply_dx_linearized": lambda: apply_dx_linearized(op, base, delta),
             "apply_dx_transpose": lambda: apply_dx_transpose(op, delta, base)}
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the two returned fields, plus a few KiB for numpy's and Python's own objects
        assert peak <= 2 * n * 8 + 4096, f"{name} under {scheme} peaked at {peak} B"
        assert out.u.size == out.v.size == n
