"""Form agreement on randomly generated tableau pairs, not only the registered ones.

Each pair has s in 1..4 stages, a strictly lower triangular explicit matrix,
a lower triangular implicit matrix and weights of which some are zero, so the
"ark" sweep also exercises its fallback to "xi"; both forms are compared
with the zeta-form oracle sweep.  The bitwise test adds pairs
with nonzero weights and zero matrix entries, which the ark step accepts.
"""
import numpy as np
import pytest

from relaxopt.adjoint import FORMS, assemble_gradient, solve_adjoint
from relaxopt.core import RelaxConfig, RelaxState, burgers_model, make_grid, subchar_speed
from relaxopt.forward import imex_step, solve_forward
from relaxopt.optimize import ControlProblem
from relaxopt.spatial import SpatialOp

from oracles import (assert_steps_match_reference, imex_step_kform, random_pair,
                     zeta_gradient)

N = 20
EPS = 1e-2
PAIRS = 30


def _setup(rng):
    g = make_grid(0.0, 2.0 * np.pi, N)
    model = burgers_model()
    u0 = 0.5 + np.sin(g.centers) + 0.1 * rng.standard_normal(N)
    a = subchar_speed(model, u0, RelaxConfig(epsilon=EPS))
    return g, model, u0, a


@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
def test_stage_and_slope_forms_agree_on_random_pairs(scheme):
    rng = np.random.default_rng(11)
    for _ in range(PAIRS):
        tab = random_pair(rng)
        g, model, u, a = _setup(rng)
        y = RelaxState(u, model.flux(u) + 0.1 * rng.standard_normal(N))
        op = SpatialOp(g, a, scheme)
        h = 0.5 * g.dx / a
        y1, _ = imex_step(tab, op, model, EPS, y, h)
        y2 = imex_step_kform(tab, op, model, EPS, y, h)
        assert np.max(np.abs(y1.u - y2.u)) <= 1e-12, tab
        assert np.max(np.abs(y1.v - y2.v)) <= 1e-12, tab


@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
def test_adjoint_forms_agree_on_random_pairs(scheme):
    rng = np.random.default_rng(12)
    for _ in range(PAIRS):
        tab = random_pair(rng)
        g, model, u0, a = _setup(rng)
        prob = ControlProblem(grid=g, model=model, relax=RelaxConfig(epsilon=EPS, a=a),
                              t_final=3 * 0.5 * g.dx / a, u_d=np.full(N, 0.5),
                              tableau=tab, scheme=scheme)
        traj = solve_forward(prob, tab, u0)
        assert traj.n_steps == 3
        grads = [assemble_gradient(solve_adjoint(traj, prob.u_d, form=f), u0, model)
                 for f in FORMS] + [zeta_gradient(traj, prob.u_d, u0)]
        for g_form in grads[1:]:
            assert np.max(np.abs(g_form - grads[0])) <= 1e-11, tab


@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
def test_steps_match_reference_bitwise_on_random_pairs(scheme):
    # seed 11 draws the pairs and states of the slope-form test above; the
    # costates come from their own generator so those draws stay the same
    arks = 0
    costates = np.random.default_rng(14)
    for seed, zero_weights in ((11, True), (13, False)):
        rng = np.random.default_rng(seed)
        for _ in range(PAIRS):
            tab = random_pair(rng, zero_weights)
            g, model, u, a = _setup(rng)
            y = RelaxState(u, model.flux(u) + 0.1 * rng.standard_normal(N))
            p_next = RelaxState(costates.standard_normal(N), costates.standard_normal(N))
            op = SpatialOp(g, a, scheme)
            arks += assert_steps_match_reference(tab, op, model, EPS, y, 0.5 * g.dx / a, p_next)
    assert arks >= PAIRS
