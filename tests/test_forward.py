import tracemalloc

import numpy as np
import pytest

import oracles
from relaxopt import forward
from relaxopt.core import (FluxModel, RelaxConfig, RelaxState, advection_model,
                           burgers_model, make_grid, relax_init, subchar_speed)
from relaxopt.forward import (DivergenceError, imex_step, solve_forward,
                              export_trajectory, _plan_steps)
from relaxopt.spatial import SpatialOp, apply_dx
from relaxopt.tableau import builtin_names, builtin_tableau

from oracles import imex_step_kform, ref_imex_step


def upwind_increment(a, dx, u, v):
    """Loop reference for the upwind divergence (same oracle as the spatial tests)."""
    n = len(u)
    fp = [v[i] + a * u[i] for i in range(n)]
    fm = [v[(i + 1) % n] - a * u[(i + 1) % n] for i in range(n)]
    u_face = [(fp[i] - fm[i]) / (2.0 * a) for i in range(n)]
    v_face = [(fp[i] + fm[i]) / 2.0 for i in range(n)]
    out_u = [(v_face[i] - v_face[i - 1]) / dx for i in range(n)]
    out_v = [a * a * (u_face[i] - u_face[i - 1]) / dx for i in range(n)]
    return np.array(out_u), np.array(out_v)


def four_line_euler_oracle(a, dx, eps, h, u, v, flux):
    """Independent one-step reference for the first-order scheme.

    Written exactly as the scheme is usually stated: freeze u, solve the
    implicit source for v in closed form, then apply the transport update to
    the frozen pair.
    """
    u_star = u.copy()
    k = h / eps
    v_star = (v + k * flux(u_star)) / (1.0 + k)
    du, dv = upwind_increment(a, dx, u_star, v_star)
    u_next = u_star - h * du
    v_next = v_star - h * dv
    return u_next, v_next


class Problem:
    """Minimal duck-typed problem container for solve_forward."""

    def __init__(self, grid, model, relax, t_final, c_cfl=0.5,
                 scheme="upwind1"):
        self.grid = grid
        self.model = model
        self.relax = relax
        self.t_final = t_final
        self.c_cfl = c_cfl
        self.scheme = scheme


def _setup(n=50, eps=1e-6, a=None):
    g = make_grid(0.0, 2.0 * np.pi, n)
    model = burgers_model()
    u0 = 0.5 + np.sin(g.centers)
    cfg = RelaxConfig(epsilon=eps) if a is None else RelaxConfig(epsilon=eps, a=a)
    return g, model, u0, cfg


def test_equilibrium_is_fixed_point_for_all_tableaus():
    g, model, _, cfg = _setup()
    u = np.full(g.n_cells, 0.7)
    y = relax_init(u, model)
    op = SpatialOp(g, 1.8)
    h = 0.5 * g.dx / 1.8
    for name in builtin_names():
        tab = builtin_tableau(name)
        y1, stages = imex_step(tab, op, model, cfg.epsilon, y, h)
        assert np.max(np.abs(y1.u - y.u)) <= 1e-13
        assert np.max(np.abs(y1.v - y.v)) <= 1e-13
        y2 = imex_step_kform(tab, op, model, cfg.epsilon, y, h)
        assert np.max(np.abs(y2.u - y.u)) <= 1e-13
        assert np.max(np.abs(y2.v - y.v)) <= 1e-13


def test_imex_euler_step_matches_four_line_oracle():
    rng = np.random.default_rng(3)
    g = make_grid(0.0, 2.0 * np.pi, 37)
    model = burgers_model()
    u = 0.4 + 0.5 * rng.standard_normal(37)
    v = model.flux(u) + 0.1 * rng.standard_normal(37)
    a = 2.1
    h = 0.5 * g.dx / a
    eps = 1e-6
    tab = builtin_tableau("imex-euler")
    y1, _ = imex_step(tab, SpatialOp(g, a), model, eps, RelaxState(u, v), h)
    uo, vo = four_line_euler_oracle(a, g.dx, eps, h, u, v, model.flux)
    assert np.max(np.abs(y1.u - uo)) <= 1e-14
    assert np.max(np.abs(y1.v - vo)) <= 1e-14


def test_two_stage_step_matches_hand_rolled_composition():
    # independent re-implementation of the generic stage recursion for the
    # two-stage second-order pair, using the loop-oracle faces
    rng = np.random.default_rng(4)
    g = make_grid(0.0, 2.0 * np.pi, 29)
    model = burgers_model()
    u = 0.3 + 0.4 * rng.standard_normal(29)
    v = model.flux(u) + 0.05 * rng.standard_normal(29)
    a = 1.7
    h = 0.4 * g.dx / a
    eps = 1e-5
    tab = builtin_tableau("ars-222")
    at, ai = tab.a_tilde, tab.a_impl
    wt, w = tab.w_tilde, tab.w

    U, V, DU, DV, SRC = [], [], [], [], []
    for i in range(tab.s):
        ru, rv = u.copy(), v.copy()
        for j in range(i):
            ru = ru - h * at[i, j] * DU[j]
            rv = rv - h * at[i, j] * DV[j]
            rv = rv + h * ai[i, j] * SRC[j]
        kii = h * ai[i, i] / eps
        vi = (rv + kii * model.flux(ru)) / (1.0 + kii)
        du, dv = upwind_increment(a, g.dx, ru, vi)
        U.append(ru)
        V.append(vi)
        DU.append(du)
        DV.append(dv)
        SRC.append((model.flux(ru) - vi) / eps)
    u1 = u - h * sum(wt[i] * DU[i] for i in range(tab.s))
    v1 = v - h * sum(wt[i] * DV[i] for i in range(tab.s)) \
           + h * sum(w[i] * SRC[i] for i in range(tab.s))

    y1, stages = imex_step(tab, SpatialOp(g, a), model, eps, RelaxState(u, v), h)
    assert np.max(np.abs(y1.u - u1)) <= 1e-11
    assert np.max(np.abs(y1.v - v1)) <= 1e-11
    for i in range(tab.s):
        assert np.max(np.abs(stages[i].u - U[i])) <= 1e-11
        assert np.max(np.abs(stages[i].v - V[i])) <= 1e-11


def test_stage_and_slope_forms_agree_for_all_tableaus():
    rng = np.random.default_rng(7)
    g, model, _, cfg = _setup()
    u = 0.5 + 0.3 * np.sin(g.centers) + 0.01 * rng.standard_normal(g.n_cells)
    y = relax_init(u, model)
    a = subchar_speed(model, u, cfg)
    op = SpatialOp(g, a)
    h = 0.5 * g.dx / a
    for name in builtin_names():
        tab = builtin_tableau(name)
        y1, _ = imex_step(tab, op, model, cfg.epsilon, y, h)
        y2 = imex_step_kform(tab, op, model, cfg.epsilon, y, h)
        assert np.max(np.abs(y1.u - y2.u)) <= 1e-12
        assert np.max(np.abs(y1.v - y2.v)) <= 1e-12


def test_linear_advection_reduces_to_scalar_upwind():
    # f(u) = u with a = 1: v stays equal to u (up to O(eps)) and the
    # u-update collapses to the classic first-order upwind step
    g = make_grid(0.0, 2.0 * np.pi, 40)
    model = advection_model(1.0)
    u = 0.5 + np.sin(g.centers)
    y = relax_init(u, model)
    eps = 1e-10
    h = 0.5 * g.dx
    tab = builtin_tableau("imex-euler")
    y1, _ = imex_step(tab, SpatialOp(g, 1.0), model, eps, y, h)
    nu = h / g.dx
    scalar = u - nu * (u - np.roll(u, 1))
    assert np.max(np.abs(y1.u - scalar)) <= 1e-12
    assert np.max(np.abs(y1.v - y1.u)) <= 1e-9


def test_mass_is_conserved_over_full_horizon():
    for name in ("imex-euler", "ars-222"):
        for scheme in ("upwind1", "muscl2"):
            g, model, u0, cfg = _setup(n=100)
            prob = Problem(g, model, cfg, t_final=2.0, scheme=scheme)
            traj = solve_forward(prob, builtin_tableau(name), u0,
                                 store_stages=False)
            m0 = np.sum(u0) * g.dx
            mT = np.sum(traj.steps[-1].u) * g.dx
            assert abs(mT - m0) <= 1e-11 * abs(m0)


def test_plan_steps_full_and_partial():
    dts = _plan_steps(1.0, 0.25)
    assert np.allclose(dts, [0.25, 0.25, 0.25, 0.25], atol=1e-15)
    dts = _plan_steps(1.0, 0.4)        # 2 full steps + remainder 0.2
    assert len(dts) == 3
    assert np.allclose(dts[:2], 0.4, atol=1e-15)
    assert abs(dts[2] - 0.2) <= 1e-12
    assert abs(np.sum(dts) - 1.0) <= 1e-12
    assert len(_plan_steps(0.0, 0.1)) == 0
    dts = _plan_steps(0.05, 0.4)       # T below one step: single short step
    assert len(dts) == 1 and abs(dts[0] - 0.05) <= 1e-15


def test_solve_forward_single_step_equals_imex_step():
    g, model, u0, cfg = _setup(n=30)
    a = subchar_speed(model, u0, cfg)
    h = 0.5 * g.dx / a
    tab = builtin_tableau("ars-222")
    prob = Problem(g, model, cfg, t_final=h)
    traj = solve_forward(prob, tab, u0)
    y1, _ = imex_step(tab, SpatialOp(g, a), model, cfg.epsilon,
                      relax_init(u0, model), h)
    assert traj.n_steps == 1
    assert np.array_equal(traj.steps[-1].u, y1.u)
    assert np.array_equal(traj.steps[-1].v, y1.v)


def test_trajectory_lands_on_t_final():
    g, model, u0, cfg = _setup(n=30)
    prob = Problem(g, model, cfg, t_final=0.77)
    traj = solve_forward(prob, builtin_tableau("imex-euler"), u0)
    assert abs(traj.times[-1] - 0.77) <= 1e-12
    assert len(traj.times) == traj.n_steps + 1
    # the record keeps the state at times[-1] alone, whatever its kind
    assert len(traj.steps) == 1
    # every nominal step except possibly the last has size h
    assert np.all(traj.dts[:-1] == traj.h)
    assert traj.dts[-1] <= traj.h + 1e-15


def test_stage_storage_matches_step_count():
    g, model, u0, cfg = _setup(n=24)
    tab = builtin_tableau("ars-443")
    prob = Problem(g, model, cfg, t_final=0.2)
    traj = solve_forward(prob, tab, u0, store_stages=True)
    assert len(traj.stages) == traj.n_steps
    assert all(len(s) == tab.s for s in traj.stages)
    traj2 = solve_forward(prob, tab, u0, store_stages=False)
    assert traj2.stages == []
    # without stages only the final state is kept, bit-identical to the full solve's
    assert len(traj2.steps) == 1 and traj2.n_steps == traj.n_steps
    assert np.array_equal(traj2.times, traj.times) and np.array_equal(traj2.dts, traj.dts)
    assert np.array_equal(traj2.steps[-1].u, traj.steps[-1].u)
    assert np.array_equal(traj2.steps[-1].v, traj.steps[-1].v)


def test_final_only_solve_memory_does_not_grow_with_steps():
    g, model, u0, cfg = _setup(n=256, a=1.8)
    prob = Problem(g, model, cfg, t_final=10.0)
    tab = builtin_tableau("ars-222")
    tracemalloc.start()
    try:
        traj = solve_forward(prob, tab, u0, store_stages=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_steps == 1467
    # a record of every step state would take 1468 * 2 * 256 * 8 B = 6.0 MB
    assert peak < 1e6


# an id without a scheme suffix is the muscl2 case
_RECORD_CASES = ([pytest.param(name, "muscl2", id=name) for name in builtin_names()]
                 + [pytest.param(name, "upwind1", id=f"{name}-upwind1")
                    for name in builtin_names()])


def _chain(tab, op, model, eps, u0, dts):
    """imex_step chained from y_0 over dts: the step states and each step's stages."""
    ys, stages = [relax_init(u0, model)], []
    for hn in dts:
        y, st = imex_step(tab, op, model, eps, ys[-1], float(hn))
        ys.append(y)
        stages.append(st)
    return ys, stages


def _count_scaled_plans(monkeypatch, module):
    """Count calls of module._scaled_plan from now on; returns the one-entry count list."""
    built, scaled_plan = [0], module._scaled_plan

    def counted(*args):
        built[0] += 1
        return scaled_plan(*args)
    monkeypatch.setattr(module, "_scaled_plan", counted)
    return built


@pytest.mark.parametrize("name, scheme", _RECORD_CASES)
def test_full_record_replays_bitwise(monkeypatch, name, scheme):
    # a stage combination that wrote into an array it shares with a stored
    # stage would change the record after the fact; a stored stage keeps its
    # v only where the transport transpose reads it (muscl2).  The solve
    # scales the step plan once per step size, the bare steps once per call,
    # and both give the same bits, the shortened last step included
    eps = 1.0 if name == "bpr-343" else 1e-6
    g, model, u0, cfg = _setup(n=24, eps=eps)
    prob = Problem(g, model, cfg, t_final=0.2, scheme=scheme)
    tab = builtin_tableau(name)
    built = _count_scaled_plans(monkeypatch, forward)
    traj = solve_forward(prob, tab, u0, store_stages=True)
    assert traj.dts[-1] < traj.h
    assert built == [2]
    assert traj.op.linear == (scheme == "upwind1")
    ys, chained = _chain(tab, traj.op, model, eps, u0, traj.dts)
    assert built == [2 + traj.n_steps]
    assert len(traj.steps) == 1
    assert np.array_equal(traj.steps[0].u, ys[-1].u)
    assert np.array_equal(traj.steps[0].v, ys[-1].v)
    assert len(traj.stages) == traj.n_steps
    for n, (got, kept) in enumerate(zip(chained, traj.stages)):
        assert len(kept) == tab.s
        assert np.array_equal(kept[0].u, ys[n].u)   # stage 0 is the step's u
        for st, k in zip(got, kept):
            assert np.array_equal(st.u, k.u)
            if traj.op.linear:
                assert k.v is None
            else:
                assert np.array_equal(st.v, k.v)


@pytest.mark.parametrize("t_final, dt", [(0.25, 0.0625), (0.25, 0.07), (0.25, None)])
def test_a_solve_scales_the_plan_once_per_step_size(monkeypatch, t_final, dt):
    g, model, u0, cfg = _setup(n=24)
    prob = Problem(g, model, cfg, t_final=t_final)
    built = _count_scaled_plans(monkeypatch, forward)
    for store_stages in (True, False):
        built[0] = 0
        traj = solve_forward(prob, builtin_tableau("ars-222"), u0, store_stages=store_stages,
                             dt=dt)
        assert traj.n_steps >= 4
        assert built == [len(set(traj.dts.tolist()))]
        assert built[0] == (1 if dt == 0.0625 else 2)


def test_stored_linear_record_keeps_no_stage_v():
    # bpr-343 under upwind1: per step the record keeps the u of its three
    # stages (stage 0's is the step state's u), plus y_T; the v of each step
    # state would add n * 8 B more per step, and each array's Python objects
    # add about 0.3 of that
    n = 256
    g, model, u0, cfg = _setup(n=n, eps=1.0, a=1.8)
    prob = Problem(g, model, cfg, t_final=1.0)
    tab = builtin_tableau("bpr-343")
    tracemalloc.start()
    try:
        traj = solve_forward(prob, tab, u0, store_stages=True)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = traj.n_steps
    assert steps == 147
    kept = (steps * tab.s + 2) * n * 8
    assert held < kept + 0.5 * steps * n * 8


@pytest.mark.parametrize("name, scheme", _RECORD_CASES)
def test_record_arrays_own_their_data(name, scheme):
    # the stencils work in padded buffers; a view of one kept by a record
    # would hold the whole buffer for as long as the record lives.  Per step
    # a full record holds the s stage u arrays, and their v under muscl2,
    # plus y_T: no step state's v, and no array twice
    eps = 1.0 if name == "bpr-343" else 1e-6
    g, model, u0, cfg = _setup(n=24, eps=eps)
    prob = Problem(g, model, cfg, t_final=0.2, scheme=scheme)
    tab = builtin_tableau(name)
    traj = solve_forward(prob, tab, u0, store_stages=True)
    y1, stages = imex_step(tab, traj.op, model, eps, relax_init(u0, model),
                           float(traj.dts[0]))
    # every array the record holds, once each
    held = {id(a): a for st in traj.steps for a in (st.u, st.v)}
    held.update((id(a), a) for step in traj.stages for st in step
                for a in (st.u, st.v) if a is not None)
    per_stage = 1 if traj.op.linear else 2
    assert len(held) == traj.n_steps * tab.s * per_stage + 2
    kept = [*held.values(), y1.u, y1.v, *(a for st in stages for a in (st.u, st.v))]
    for arr in kept:
        assert arr.base is None


def test_relax_config_speed_override():
    g, model, u0, _ = _setup(n=24)
    cfg = RelaxConfig(epsilon=1e-6, a=3.0)
    prob = Problem(g, model, cfg, t_final=0.1)
    traj = solve_forward(prob, builtin_tableau("imex-euler"), u0)
    assert traj.op.a == 3.0
    assert traj.h == 0.5 * g.dx / 3.0


def test_dt_override_bypasses_cfl():
    g, model, u0, cfg = _setup(n=24)
    prob = Problem(g, model, cfg, t_final=0.2)
    traj = solve_forward(prob, builtin_tableau("imex-euler"), u0, dt=0.05)
    assert traj.n_steps == 4
    assert np.allclose(traj.dts, 0.05, atol=1e-15)


def test_divergence_reports_step_index():
    g, model, u0, cfg = _setup(n=60)
    prob = Problem(g, model, cfg, t_final=20.0, c_cfl=10.0)
    with pytest.raises(DivergenceError) as err:
        solve_forward(prob, builtin_tableau("imex-euler"), u0)
    assert err.value.step >= 1
    assert err.value.stage >= 0
    assert err.value.time is not None
    assert 0.0 < err.value.time < prob.t_final
    assert f"t={err.value.time:.6g}" in str(err.value)


def _nan_on_call(k):
    """Burgers model whose flux returns NaN on its k-th call (0-based) and only then."""
    calls = [0]

    def flux(u):
        out = 0.5 * np.square(u)
        if calls[0] == k:
            out = np.full_like(out, np.nan)
        calls[0] += 1
        return out
    return FluxModel(flux=flux, flux_deriv=lambda u: np.multiply(u, 1.0))


@pytest.mark.parametrize("stage", range(max(builtin_tableau(n).s for n in builtin_names())))
def test_divergence_names_the_failing_stage(stage):
    # the flux is called once by relax_init, then once per stage, so call
    # 1 + 2*s + stage is that stage of step 2; every registered pair with a
    # stage of that index is checked
    g, _, u0, cfg = _setup(n=40, a=1.8)
    h = 0.5 * g.dx / 1.8
    pairs = [tab for tab in map(builtin_tableau, builtin_names()) if tab.s > stage]
    assert pairs
    for tab in pairs:
        prob = Problem(g, _nan_on_call(1 + 2 * tab.s + stage), cfg, t_final=1.0)
        with pytest.raises(DivergenceError) as err:
            solve_forward(prob, tab, u0)
        assert (err.value.step, err.value.stage) == (2, stage), tab.name
        assert err.value.time == pytest.approx(2.0 * h, rel=1e-12)


@pytest.mark.parametrize("name", builtin_names())
def test_bare_imex_step_reports_given_step_index(name):
    # flux call k (0-based) is stage k of this one step; the last stage is
    # poisoned, and a bare call has no time to report
    tab = builtin_tableau(name)
    g, _, u0, cfg = _setup(n=40, a=1.8)
    model = _nan_on_call(tab.s - 1)
    y = RelaxState(u0, 0.5 * np.square(u0))
    with pytest.raises(DivergenceError) as err:
        imex_step(tab, SpatialOp(g, 1.8), model, cfg.epsilon, y, 0.5 * g.dx / 1.8,
                  step_index=17)
    assert (err.value.step, err.value.stage, err.value.time) == (17, tab.s - 1, None)
    assert str(err.value) == f"non-finite state at step 17, stage {tab.s - 1}"


def _divergence_of(step, *args):
    # a bare step warns on overflow; solve_forward is what silences that
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            step(*args, step_index=3)
    except DivergenceError as err:
        return err.step, err.stage
    return None


def test_step_check_names_the_stage_the_stage_checks_named():
    # huge steps overflow in a middle stage (ars-443, bpr-343), only in the
    # update (ars-222, stage s-1) or not at all (imex-euler: a linear flux at
    # equilibrium); the reference checks every stage, the step only its result
    g = make_grid(0.0, 2.0 * np.pi, 40)
    model = advection_model(1.0)
    u = 0.5 + np.sin(g.centers)
    y = RelaxState(u, model.flux(u))
    seen = set()
    for name in builtin_names():
        tab = builtin_tableau(name)
        for scheme in ("upwind1", "muscl2"):
            for h in (1e150, 1e300):
                args = (tab, SpatialOp(g, 1.8, scheme), model, 1e-6, y, h)
                got = _divergence_of(imex_step, *args)
                assert got == _divergence_of(ref_imex_step, *args), (name, scheme, h)
                seen.add(None if got is None else got[1] == tab.s - 1)
    assert seen == {None, True, False}


def _poisoned_apply_dx(call, entries):
    """apply_dx whose output on call `call` (0-based) holds value at each (field, cell): value."""
    calls = [0]

    def poisoned(op, state):
        out = apply_dx(op, state)
        if calls[0] == call:
            for (field, cell), value in entries.items():
                getattr(out, field)[cell] = value
        calls[0] += 1
        return out
    return poisoned


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_step_check_catches_one_non_finite_entry_of_the_update(monkeypatch, value):
    # the value enters stage j's transport increment at a seeded cell of u or
    # v; j has a nonzero explicit weight, so the update is non-finite there,
    # and the step must name the stage the per-stage reference names
    g, model, u0, cfg = _setup(n=40, a=1.8)
    y = RelaxState(u0, model.flux(u0))
    rng = np.random.default_rng(21)
    for name in builtin_names():
        tab = builtin_tableau(name)
        for j in np.flatnonzero(tab.w_tilde):
            for field in ("u", "v"):
                cell = int(rng.integers(g.n_cells))
                got = []
                for module, step in ((forward, imex_step), (oracles, ref_imex_step)):
                    monkeypatch.setattr(module, "apply_dx",
                                        _poisoned_apply_dx(j, {(field, cell): value}))
                    got.append(_divergence_of(step, tab, SpatialOp(g, 1.8), model,
                                              cfg.epsilon, y, 0.5 * g.dx / 1.8))
                assert got[0] is not None and got[0] == got[1], (name, j, field, cell)


@pytest.mark.parametrize("c, entries", [
    (0.0, {("u", 7): np.inf}),                       # inf * 0 in one cell of u . v
    (0.5, {("u", 7): np.inf, ("u", 23): -np.inf}),   # +inf and -inf in different cells
])
def test_one_reduction_check_catches_entries_its_sum_could_cancel(monkeypatch, c, entries):
    # u = 1/2 and v = c u under the flux f(u) = c u is a fixed point of every
    # step, so the update is y, with v1 = c/2 in every cell, except where the
    # poisoned transport increment of the last stage j with a nonzero
    # explicit weight enters u1: the dot product u1 . v1 meets inf * 0 or
    # inf - inf there, and the step must name stage s-1, as the per-stage
    # reference does
    g = make_grid(0.0, 2.0 * np.pi, 40)
    model = FluxModel(flux=lambda u: c * u if c else np.zeros_like(u),
                      flux_deriv=lambda u: np.full_like(u, c))
    u = np.full(g.n_cells, 0.5)
    y = RelaxState(u, model.flux(u))
    op, h = SpatialOp(g, 1.8), 0.5 * g.dx / 1.8
    for name in builtin_names():
        tab = builtin_tableau(name)
        y1, _ = imex_step(tab, op, model, 1e-6, y, h)
        assert np.array_equal(y1.u, u) and np.all(y1.v == c / 2), name
        j = int(np.flatnonzero(tab.w_tilde)[-1])
        got = []
        for module, step in ((forward, imex_step), (oracles, ref_imex_step)):
            monkeypatch.setattr(module, "apply_dx", _poisoned_apply_dx(j, entries))
            got.append(_divergence_of(step, tab, op, model, 1e-6, y, h))
        monkeypatch.undo()
        assert got[0] == got[1] == (3, tab.s - 1), name


@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
def test_finite_state_whose_sum_overflows_is_not_divergent(scheme):
    # a linear flux at equilibrium is a fixed point of every step; with every
    # cell at 1e308 each field's sum overflows, which alone must not raise
    g = make_grid(0.0, 2.0 * np.pi, 40)
    model = advection_model(0.5)
    u0 = np.full(g.n_cells, 1e308)
    assert g.n_cells * 1e308 == np.inf
    for name in builtin_names():
        prob = Problem(g, model, RelaxConfig(epsilon=1e-6, a=0.6), t_final=0.5,
                       scheme=scheme)
        traj = solve_forward(prob, builtin_tableau(name), u0)
        assert traj.n_steps >= 2
        assert np.array_equal(traj.steps[-1].u, u0), name
        assert np.array_equal(traj.steps[-1].v, model.flux(u0)), name


def test_solve_forward_validates_inputs():
    g, model, u0, cfg = _setup(n=24)
    with pytest.raises(ValueError):
        solve_forward(Problem(g, model, cfg, t_final=-1.0),
                      builtin_tableau("imex-euler"), u0)
    with pytest.raises(ValueError):
        solve_forward(Problem(g, model, cfg, t_final=0.1),
                      builtin_tableau("imex-euler"), u0[:-1])
    # an infinite step would plan nan step sizes; it is named as the override
    for dt in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt override must be positive and finite"):
            solve_forward(Problem(g, model, cfg, t_final=0.1),
                          builtin_tableau("imex-euler"), u0, dt=dt)


def test_spatial_self_convergence_through_solver():
    # pre-shock Burgers: terminal error vs a restricted fine solution decays
    # at first order in dx when h is tied to dx by the CFL rule
    model = burgers_model()
    cfg = RelaxConfig(epsilon=1e-6, a=1.8)
    tab = builtin_tableau("imex-euler")

    def terminal(n):
        g = make_grid(0.0, 2.0 * np.pi, n)
        u0 = 0.5 + np.sin(g.centers)
        prob = Problem(g, model, cfg, t_final=0.25)
        return solve_forward(prob, tab, u0, store_stages=False).steps[-1].u

    def restrict(fine):
        return 0.5 * (fine[0::2] + fine[1::2])

    u128, u256, u512 = terminal(128), terminal(256), terminal(512)
    e_coarse = np.max(np.abs(u128 - restrict(u256)))
    e_fine = np.max(np.abs(u256 - restrict(u512)))
    ratio = e_coarse / e_fine
    assert 1.6 <= ratio <= 2.4


def _csv_frames(body, n_cells):
    """The (t, x, u, v) rows of an exported trajectory, one array per frame."""
    rows = np.array([[float(x) for x in line.split(",")] for line in body])
    return [rows[k:k + n_cells] for k in range(0, len(rows), n_cells)]


def test_export_trajectory_schema_and_stride(tmp_path):
    # frames are streamed from the one step loop; each equals the state
    # imex_step reaches when chained from y_0, bit for bit, under both schemes
    g, model, u0, cfg = _setup(n=8)
    tab = builtin_tableau("ars-222")
    for scheme in ("upwind1", "muscl2"):
        prob = Problem(g, model, cfg, t_final=1.5, scheme=scheme)
        ref = solve_forward(prob, tab, u0, store_stages=False)
        ys, _ = _chain(tab, ref.op, model, cfg.epsilon, u0, ref.dts)
        assert ref.n_steps == 7 and ref.dts[-1] < ref.h   # the last step is short
        for stride in (1, 3, ref.n_steps + 1):
            path = tmp_path / f"{scheme}-{stride}.csv"
            traj = export_trajectory(prob, tab, u0, str(path), stride=stride,
                                     header="run 1")
            lines = path.read_text().splitlines()
            assert lines[0] == "# run 1"
            assert lines[1] == "t,x,u,v"
            frames = [*range(0, ref.n_steps + 1, stride)]
            if frames[-1] != ref.n_steps:
                frames.append(ref.n_steps)
            got = _csv_frames(lines[2:], g.n_cells)
            assert len(got) == len(frames)
            for rows, k in zip(got, frames):
                assert np.all(rows[:, 0] == ref.times[k])
                assert np.array_equal(rows[:, 1], g.centers)
                assert np.array_equal(rows[:, 2], ys[k].u)
                assert np.array_equal(rows[:, 3], ys[k].v)
            # the returned record is the final-only one solve_forward gives
            assert traj.stages == [] and len(traj.steps) == 1
            assert np.array_equal(traj.times, ref.times)
            assert np.array_equal(traj.steps[0].u, ref.steps[0].u)
            assert np.array_equal(traj.steps[0].v, ref.steps[0].v)
            # deterministic output: a second export is byte-for-byte identical
            again = tmp_path / "again.csv"
            export_trajectory(prob, tab, u0, str(again), stride=stride, header="run 1")
            assert path.read_bytes() == again.read_bytes()
    # no temporary file is left beside the outputs
    assert len(list(tmp_path.iterdir())) == 1 + 2 * 3


def test_export_trajectory_requires_an_integral_stride(tmp_path):
    # as for Grid's n_cells: 2, 2.0 and np.int64(2) write the same frames
    g, model, u0, cfg = _setup(n=8)
    prob = Problem(g, model, cfg, t_final=1.5)
    tab = builtin_tableau("imex-euler")
    written = []
    for k, stride in enumerate((2, 2.0, np.int64(2))):
        path = tmp_path / f"{k}.csv"
        export_trajectory(prob, tab, u0, str(path), stride=stride)
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]
    for stride, message in ((2.5, "stride must be an integer"), (np.inf, "integer"),
                            (0, "stride must be >= 1"), (-1.0, ">= 1")):
        with pytest.raises(ValueError, match=message):
            export_trajectory(prob, tab, u0, str(tmp_path / "bad.csv"), stride=stride)
    assert not (tmp_path / "bad.csv").exists()


def test_diverging_export_leaves_the_path_as_it_was(tmp_path):
    # frames go to a temporary file that replaces path only on success
    g, model, u0, cfg = _setup(n=60)
    prob = Problem(g, model, cfg, t_final=20.0, c_cfl=10.0)
    path = tmp_path / "traj.csv"
    path.write_text("earlier run\n")
    with pytest.raises(DivergenceError):
        export_trajectory(prob, builtin_tableau("imex-euler"), u0, str(path))
    assert path.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
