"""The memoized step plans: forward._scaled_plan and adjoint._scaled_plan.

Each builder is memoized per (pair, eps, h), with the adjoint's form in
front.  A pair keeps read-only copies of its arrays, so a plan built once
stays the plan a fresh build gives.  These tests compare every cached plan a
solve or sweep used with a fresh build (the memo's __wrapped__ function),
bit for bit, on every registered pair under both schemes and on the random
pairs of test_random_pairs.py; check that a second solve and sweep on the
same problem build nothing; and that a replaced pair gets a plan of its own.
"""
import dataclasses

import numpy as np
import pytest

from relaxopt import adjoint, forward
from relaxopt.core import RelaxConfig, burgers_model, make_grid, subchar_speed
from relaxopt.optimize import ControlProblem
from relaxopt.spatial import SCHEMES
from relaxopt.tableau import builtin_names, builtin_tableau

import test_random_pairs as random_pairs
from oracles import random_pair


def _bits(plan):
    """The plan with every constant replaced by its dtype, flags and bytes; None and ints as they are."""
    if isinstance(plan, tuple):
        return tuple(_bits(x) for x in plan)
    if isinstance(plan, np.ndarray):
        return plan.dtype.str, plan.shape, plan.flags.writeable, plan.tobytes()
    return plan


def _problem(tab, scheme, n=24, eps=1e-6):
    g = make_grid(0.0, 2.0 * np.pi, n)
    model = burgers_model()
    u0 = 0.5 + np.sin(g.centers)
    a = subchar_speed(model, u0, RelaxConfig(epsilon=eps))
    # 0.3 is no whole number of steps, so every solve also takes a shortened last step
    problem = ControlProblem(grid=g, model=model, relax=RelaxConfig(epsilon=eps, a=a),
                             t_final=0.3, u_d=np.full(n, 0.5), tableau=tab, scheme=scheme)
    return problem, u0


def _solve_and_sweep(problem, tab, u0):
    traj = forward.solve_forward(problem, tab, u0)
    forms = [adjoint.solve_adjoint(traj, problem.u_d, form=f).form_used for f in adjoint.FORMS]
    return traj, forms


def _assert_cached_plans_are_fresh(problem, tab, u0):
    traj, forms = _solve_and_sweep(problem, tab, u0)
    eps = traj.epsilon
    sizes = sorted(set(traj.dts.tolist()))
    assert len(sizes) == 2   # h and the shortened last step
    fwd, adj = forward._scaled_plan.cache_info(), adjoint._scaled_plan.cache_info()
    for h in sizes:
        cached = forward._scaled_plan(tab, eps, h)
        assert _bits(cached) == _bits(forward._scaled_plan.__wrapped__(tab, eps, h)), (tab, h)
        for form in set(forms):
            cached = adjoint._scaled_plan(form, tab, eps, h)
            fresh = adjoint._scaled_plan.__wrapped__(form, tab, eps, h)
            assert _bits(cached) == _bits(fresh), (tab, form, h)
    # every plan compared came from the memo, not from a new build
    assert forward._scaled_plan.cache_info().misses == fwd.misses
    assert adjoint._scaled_plan.cache_info().misses == adj.misses


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", builtin_names())
def test_cached_plans_equal_fresh_builds_on_registered_pairs(name, scheme):
    tab = builtin_tableau(name)
    eps = 1.0 if name == "bpr-343" else 1e-6   # bpr-343 diverges at epsilon = 1e-6
    problem, u0 = _problem(tab, scheme, eps=eps)
    _assert_cached_plans_are_fresh(problem, tab, u0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cached_plans_equal_fresh_builds_on_random_pairs(scheme):
    # the pairs of test_random_pairs.py's bitwise test, drawn with its seeds
    # and draws in between; a pair with a zero weight runs only the xi plan
    for seed, zero_weights in ((11, True), (13, False)):
        rng = np.random.default_rng(seed)
        for _ in range(random_pairs.PAIRS):
            tab = random_pair(rng, zero_weights)
            random_pairs._setup(rng)
            rng.standard_normal(random_pairs.N)
            problem, u0 = _problem(tab, scheme, eps=random_pairs.EPS)
            _assert_cached_plans_are_fresh(problem, tab, u0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_second_solve_and_sweep_build_no_plan(scheme):
    tab = builtin_tableau("ars-222")
    problem, u0 = _problem(tab, scheme)
    first = _solve_and_sweep(problem, tab, u0)
    fwd, adj = forward._scaled_plan.cache_info(), adjoint._scaled_plan.cache_info()
    second = _solve_and_sweep(problem, tab, u0)
    assert forward._scaled_plan.cache_info().misses == fwd.misses
    assert adjoint._scaled_plan.cache_info().misses == adj.misses
    assert forward._scaled_plan.cache_info().hits > fwd.hits
    assert adjoint._scaled_plan.cache_info().hits > adj.hits
    # and the reused plans give the same bits
    assert first[0].steps[0].u.tobytes() == second[0].steps[0].u.tobytes()
    assert first[1] == second[1]


def test_a_replaced_pair_gets_a_plan_of_its_own():
    tab = builtin_tableau("ars-222")
    other = dataclasses.replace(tab, w=np.array([0.25, 0.75]))
    assert other is not tab
    eps, h = 1e-6, 0.05
    plan, other_plan = forward._scaled_plan(tab, eps, h), forward._scaled_plan(other, eps, h)
    assert other_plan is not plan and _bits(other_plan) != _bits(plan)
    assert _bits(other_plan) == _bits(forward._scaled_plan.__wrapped__(other, eps, h))
    for form in adjoint.FORMS:
        plan = adjoint._scaled_plan(form, tab, eps, h)
        other_plan = adjoint._scaled_plan(form, other, eps, h)
        assert _bits(other_plan) != _bits(plan), form
        assert _bits(other_plan) == _bits(adjoint._scaled_plan.__wrapped__(form, other, eps, h))
    # the original pair still gets its own plan back
    assert forward._scaled_plan(tab, eps, h) is forward._scaled_plan(tab, eps, h)
