"""Domain types for the relaxation solver: grid, flux models, paired cell state.

The library approximates a scalar conservation law  u_t + f(u)_x = 0  by the
linear 2x2 relaxation system

    u_t + v_x          = 0
    v_t + a^2 u_x      = (f(u) - v) / epsilon

whose auxiliary variable v is driven toward f(u) as epsilon -> 0.  Everything
downstream (spatial operator, time integrator, adjoint sweep) works on the
(u, v) pair defined here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic 1-D mesh; cell i is centered at x_min + (i + 1/2)*dx."""

    x_min: float
    x_max: float
    n_cells: int
    dx: float
    centers: np.ndarray

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
        if not self.x_max > self.x_min:
            raise ValueError(
                f"degenerate interval: x_max={self.x_max} must exceed x_min={self.x_min}"
            )
        if not self.dx > 0 or len(self.centers) != self.n_cells:
            raise ValueError("inconsistent grid fields")


def make_grid(x_min: float, x_max: float, n_cells: int) -> Grid:
    """Build a uniform periodic grid of cell centers on [x_min, x_max].

    Cell n_cells-1 neighbors cell 0 (periodic topology).
    """
    n_cells = int(n_cells)
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    if not x_max > x_min:
        raise ValueError(f"degenerate interval: x_max={x_max} must exceed x_min={x_min}")
    dx = (x_max - x_min) / n_cells
    centers = x_min + (np.arange(n_cells) + 0.5) * dx
    return Grid(float(x_min), float(x_max), n_cells, dx, centers)


@dataclass(frozen=True)
class FluxModel:
    """Scalar flux f and its analytic derivative f', both vectorized over cells."""

    flux: Callable[[np.ndarray], np.ndarray]
    flux_deriv: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"


def check_flux_deriv(model: FluxModel, lo: float = -3.0, hi: float = 3.0,
                     n_samples: int = 64, h: float = 1e-5) -> float:
    """Verify flux_deriv against a central difference of flux on sampled points.

    Checks |(f(u+h)-f(u-h))/(2h) - f'(u)| <= 1e-6 * (1 + |f'(u)|) at n_samples
    equispaced points in [lo, hi]; raises ValueError on violation and returns
    the worst scaled residual otherwise.
    """
    u = np.linspace(lo, hi, n_samples)
    fd = (np.asarray(model.flux(u + h), float) - np.asarray(model.flux(u - h), float)) / (2.0 * h)
    exact = np.asarray(model.flux_deriv(u), float)
    scaled = np.abs(fd - exact) / (1.0 + np.abs(exact))
    worst = float(scaled.max())
    if worst > 1e-6:
        i = int(scaled.argmax())
        raise ValueError(
            f"flux_deriv of model '{model.name}' disagrees with finite differences "
            f"at u={u[i]:.6g}: fd={fd[i]:.9g}, claimed={exact[i]:.9g}"
        )
    return worst


def burgers_model() -> FluxModel:
    """Quadratic flux f(u) = u^2/2 with f'(u) = u."""
    return FluxModel(flux=lambda u: 0.5 * np.square(u),
                     flux_deriv=lambda u: np.multiply(u, 1.0),
                     name="burgers")


def advection_model(c: float = 1.0) -> FluxModel:
    """Linear flux f(u) = c*u with constant derivative c."""
    c = float(c)
    return FluxModel(flux=lambda u: c * np.asarray(u, float),
                     flux_deriv=lambda u: c * np.ones_like(np.asarray(u, float)),
                     name=f"advection(c={c:g})")


def custom_model(flux, flux_deriv, name: str = "custom") -> FluxModel:
    """Wrap a user-supplied flux pair, validating f' by finite differences."""
    model = FluxModel(flux=flux, flux_deriv=flux_deriv, name=name)
    check_flux_deriv(model)
    return model


@dataclass
class RelaxState:
    """Paired cell fields of the relaxation system: conserved u and flux variable v."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ValueError(
                f"u and v must be 1-D fields of equal length, got {self.u.shape} and {self.v.shape}"
            )

    def copy(self) -> "RelaxState":
        return RelaxState(self.u.copy(), self.v.copy())


def _pair(cls, first: np.ndarray, second: np.ndarray):
    """cls(first, second) for a two-field array dataclass, without __post_init__.

    For RelaxState and CostateState built from arrays made in the calling
    function: float64, 1-D and of equal length by construction, so the
    validation would repeat what the caller just did.  Public construction
    still validates.
    """
    obj = object.__new__(cls)
    x, y = cls.__match_args__
    setattr(obj, x, first)
    setattr(obj, y, second)
    return obj


@dataclass(frozen=True)
class RelaxConfig:
    """Relaxation parameters: rate epsilon, speed selection knobs, optional fixed speed.

    When ``a`` is None the speed is recomputed from the current control at the
    start of each forward solve via subchar_speed; setting ``a`` freezes it
    (used by finite-difference gradient oracles so the discrete objective stays
    smooth in the control).
    """

    epsilon: float = 1e-6
    safety: float = 1.2
    a_floor: float = 0.1
    a: Optional[float] = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.safety >= 1.0:
            raise ValueError(f"safety must be >= 1, got {self.safety}")
        if not self.a_floor > 0:
            raise ValueError(f"a_floor must be positive, got {self.a_floor}")
        if self.a is not None and not self.a > 0:
            raise ValueError(f"fixed speed a must be positive, got {self.a}")


def subchar_speed(model: FluxModel, u_field: np.ndarray, cfg: RelaxConfig) -> float:
    """Pick the relaxation speed a = max(a_floor, safety * max_i |f'(u_i)|).

    The returned speed dominates every characteristic speed of the scalar law
    over the given field, which is the stability requirement for the
    relaxation approximation.
    """
    u = np.asarray(u_field, dtype=float)
    if u.size == 0:
        raise ValueError("u_field is empty")
    if not np.all(np.isfinite(u)):
        raise ValueError("u_field contains non-finite entries")
    speeds = np.abs(np.asarray(model.flux_deriv(u), float))
    return float(max(cfg.a_floor, cfg.safety * speeds.max()))


def relax_init(u0: np.ndarray, model: FluxModel) -> RelaxState:
    """Initial relaxation state: u = u0 and v = f(u0) (local equilibrium)."""
    u = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 contains non-finite entries")
    return RelaxState(u.copy(), np.asarray(model.flux(u), dtype=float).copy())
