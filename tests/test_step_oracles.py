"""The library's time steps against the reference steppers, bit for bit.

imex_step and adjoint_step_ark take their coefficients from the plans built
with the tableau and the adjoint coefficients; the references in oracles.py
slice and compare the coefficient arrays on every step.  Each element must
see the same floating-point operations in the same order, so
assert_steps_match_reference compares those arrays with np.array_equal, not
with a tolerance.  It also checks adjoint_step_xi against the zeta-form
oracle to round-off, and that no adjoint step writes into its inputs.
Random pairs are covered in test_random_pairs.py.
"""
import numpy as np
import pytest

from relaxopt.core import RelaxConfig, RelaxState, burgers_model, make_grid, subchar_speed
from relaxopt.spatial import SpatialOp
from relaxopt.tableau import builtin_names, builtin_tableau

from oracles import assert_steps_match_reference


@pytest.mark.parametrize("eps", [1e-6, 1.0])
@pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
@pytest.mark.parametrize("name", builtin_names())
def test_registered_pairs_match_reference_steps_bitwise(name, scheme, eps):
    rng = np.random.default_rng(5)
    n = 64
    g = make_grid(0.0, 2.0 * np.pi, n)
    model = burgers_model()
    u = 0.5 + np.sin(g.centers) + 0.1 * rng.standard_normal(n)
    y = RelaxState(u, model.flux(u) + 0.1 * rng.standard_normal(n))
    a = subchar_speed(model, u, RelaxConfig(epsilon=eps))
    op = SpatialOp(g, a, scheme)
    p_next = RelaxState(rng.standard_normal(n), rng.standard_normal(n))
    ark = assert_steps_match_reference(builtin_tableau(name), op, model, eps, y,
                                       0.5 * g.dx / a, p_next)
    assert ark == (name != "ars-443")   # ars-443 has zero weights
