import dataclasses

import numpy as np
import pytest

from relaxopt.core import (A_FLOOR, SAFETY, FluxModel, RelaxConfig, RelaxState,
                           advection_model, burgers_model, check_flux_deriv, custom_model,
                           make_grid, relax_init, subchar_speed)


def test_make_grid_quarters_of_two_pi():
    g = make_grid(0.0, 2.0 * np.pi, 4)
    assert abs(g.dx - np.pi / 2.0) < 1e-15
    expected = np.array([np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])
    assert np.allclose(g.centers, expected, atol=1e-15, rtol=0.0)


def test_make_grid_standard_resolution():
    g = make_grid(0.0, 2.0 * np.pi, 300)
    assert abs(g.dx - 2.0 * np.pi / 300.0) < 1e-18
    assert g.n_cells == 300
    assert len(g.centers) == 300


def test_make_grid_two_cells():
    g = make_grid(0.0, 1.0, 2)
    assert np.array_equal(g.centers, np.array([0.25, 0.75]))


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        make_grid(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        make_grid(2.0, 1.0, 8)
    for lo, hi in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            make_grid(lo, hi, 8)
    # finite bounds whose spacing overflows, or underflows to zero
    for lo, hi in ((-1e308, 1e308), (0.0, 5e-324)):
        with pytest.raises(ValueError, match="dx"):
            make_grid(lo, hi, 4)
    for bad in (2.7, 8.5, np.float64(3.2)):
        with pytest.raises(ValueError, match="n_cells"):
            make_grid(0.0, 1.0, bad)
    for good in (8, 8.0, np.int64(8)):
        grid = make_grid(0.0, 1.0, good)
        assert grid.n_cells == 8 and type(grid.n_cells) is int and len(grid.centers) == 8


def test_grid_derives_spacing_and_centers_from_its_inputs():
    grid = make_grid(0.0, 2.0 * np.pi, 32)
    refined = dataclasses.replace(grid, n_cells=64)
    want = make_grid(0.0, 2.0 * np.pi, 64)
    assert refined == want
    assert refined.dx == want.dx == 2.0 * np.pi / 64
    assert np.array_equal(refined.centers, want.centers)
    assert np.array_equal(want.centers, (np.arange(64) + 0.5) * want.dx)
    for derived in ("dx", "centers"):
        with pytest.raises(ValueError):
            dataclasses.replace(grid, **{derived: getattr(grid, derived)})


def test_burgers_flux_values():
    m = burgers_model()
    assert float(m.flux(2.0)) == 2.0
    assert float(m.flux(0.0)) == 0.0
    assert float(m.flux_deriv(-3.0)) == -3.0


def test_flux_deriv_consistency_sampled():
    # 64 equispaced samples in [-3, 3], h = 1e-5, scaled residual <= 1e-6
    for model in (burgers_model(), advection_model(0.7)):
        worst = check_flux_deriv(model, -3.0, 3.0, 64, 1e-5)
        assert worst <= 1e-6


def test_custom_model_accepts_consistent_pair():
    m = custom_model(lambda u: np.sin(u), lambda u: np.cos(u), name="sine")
    assert m.name == "sine"


def test_custom_model_rejects_wrong_derivative():
    with pytest.raises(ValueError):
        custom_model(lambda u: np.sin(u), lambda u: np.sin(u), name="broken")


def test_subchar_speed_scales_max_speed():
    assert (SAFETY, A_FLOOR) == (1.2, 0.1)
    a = subchar_speed(burgers_model(), np.array([-1.0, 0.5, 2.0]), RelaxConfig())
    assert a == SAFETY * 2.0
    assert a >= np.abs(np.array([-1.0, 0.5, 2.0])).max()


def test_subchar_speed_floor_engages():
    assert subchar_speed(burgers_model(), np.zeros(16), RelaxConfig()) == A_FLOOR


def test_subchar_speed_sampled_sine_field():
    g = make_grid(0.0, 2.0 * np.pi, 300)
    u = 0.5 + np.sin(g.centers)
    a = subchar_speed(burgers_model(), u, RelaxConfig(epsilon=1e-6))
    assert a == SAFETY * np.abs(u).max()
    assert 1.4 < a / SAFETY < 1.6


def test_subchar_speed_rejects_nan():
    cfg = RelaxConfig()
    bad = np.array([0.0, np.nan, 1.0])
    with pytest.raises(ValueError):
        subchar_speed(burgers_model(), bad, cfg)
    # a finite field on which f' is NaN names the model instead of returning the floor
    root = FluxModel(lambda u: u ** 1.5 / 1.5, np.sqrt, name="root")
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="'root'"):
        subchar_speed(root, np.array([-1.0, 4.0]), cfg)


def test_relax_init_burgers_constant():
    st = relax_init(np.full(8, 0.5), burgers_model())
    assert np.array_equal(st.u, np.full(8, 0.5))
    assert np.array_equal(st.v, np.full(8, 0.125))


def test_relax_init_zero():
    st = relax_init(np.zeros(8), burgers_model())
    assert np.array_equal(st.v, np.zeros(8))


def test_relax_init_linear_flux():
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(12)
    st = relax_init(u0, advection_model(2.5))
    assert np.allclose(st.v, 2.5 * u0, atol=0.0, rtol=1e-15)


def test_relax_state_shape_validation():
    with pytest.raises(ValueError):
        RelaxState(np.zeros(4), np.zeros(5))


def test_relax_config_validation():
    with pytest.raises(ValueError):
        RelaxConfig(epsilon=0.0)
    # the speed's margin and floor are constants of core, not settings
    with pytest.raises(TypeError):
        RelaxConfig(safety=1.2)
    with pytest.raises(TypeError):
        RelaxConfig(a_floor=0.1)
    with pytest.raises(ValueError):
        RelaxConfig(a=-1.0)
    # an infinite speed would make the CFL step 0, and an infinite rate drops
    # the source; both are refused here, with the field named
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            RelaxConfig(epsilon=bad)
        with pytest.raises(ValueError, match="fixed speed a must be positive and finite"):
            RelaxConfig(a=bad)
