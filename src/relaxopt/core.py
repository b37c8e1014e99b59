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
    """Uniform periodic 1-D mesh of n_cells cells on [x_min, x_max].

    Cell i is centered at x_min + (i + 1/2)*dx, and cell n_cells-1 neighbors
    cell 0.  dx and centers are derived from the three inputs and are not
    constructor arguments; n_cells must be integral (8, 8.0 and np.int64(8)
    all give the int 8), and the bounds finite with a positive, finite dx.
    """

    x_min: float
    x_max: float
    n_cells: int
    dx: float = field(init=False, compare=False)
    centers: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        n_cells = self.n_cells
        if not float(n_cells).is_integer():
            raise ValueError(f"n_cells must be an integer, got {n_cells}")
        n_cells = int(n_cells)
        if n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {n_cells}")
        x_min, x_max = self.x_min, self.x_max
        if not (np.isfinite(x_min) and np.isfinite(x_max)):
            raise ValueError(f"grid bounds must be finite, got x_min={x_min}, x_max={x_max}")
        if not x_max > x_min:
            raise ValueError(f"degenerate interval: x_max={x_max} must exceed x_min={x_min}")
        dx = (x_max - x_min) / n_cells
        if not 0 < dx < np.inf:
            raise ValueError(f"grid spacing dx must be positive and finite, got dx={dx} "
                             f"from x_min={x_min}, x_max={x_max}, n_cells={n_cells}")
        object.__setattr__(self, "n_cells", n_cells)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "centers", x_min + (np.arange(n_cells) + 0.5) * dx)


def make_grid(x_min: float, x_max: float, n_cells: int) -> Grid:
    """Grid(float(x_min), float(x_max), n_cells): the uniform periodic grid on [x_min, x_max]."""
    return Grid(float(x_min), float(x_max), n_cells)


@dataclass(frozen=True)
class FluxModel:
    """Scalar flux f and its analytic derivative f', both vectorized over cells.

    Each returns values that numpy promotes to float64 exactly (float64 or a
    narrower type): the steppers feed them to their arithmetic as they are.
    """

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


def _const(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array.

    numpy converts a Python float operand on every call, which costs more
    than the arithmetic on a few hundred cells; a 0-d array is used as it
    is.  Both hold the same double, so results are bit-identical.
    """
    c = np.array(x)
    c.flags.writeable = False
    return c


def burgers_model() -> FluxModel:
    """Quadratic flux f(u) = u^2/2 with f'(u) = u."""
    half, one = _const(0.5), _const(1.0)
    return FluxModel(flux=lambda u: half * np.square(u),
                     flux_deriv=lambda u: np.multiply(u, one),
                     name="burgers")


def advection_model(c: float = 1.0) -> FluxModel:
    """Linear flux f(u) = c*u with constant derivative c."""
    c = float(c)
    c0 = _const(c)
    return FluxModel(flux=lambda u: c0 * np.asarray(u, float),
                     flux_deriv=lambda u: c0 * np.ones_like(np.asarray(u, float)),
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


def _pair(u: np.ndarray, v: np.ndarray) -> RelaxState:
    """RelaxState(u, v) without __post_init__.

    For arrays made in the calling function, or taken from a state the
    library built or validated (the adjoint steppers wrap their own costate
    sums, which are RelaxStates too, or the parts of p_next): float64, 1-D
    and of equal length by construction, so the validation would repeat
    what was already done.  Public construction still validates.
    """
    state = object.__new__(RelaxState)
    state.u = u
    state.v = v
    return state


# The relaxation speed's margin over the largest characteristic speed, and
# its floor for a field whose characteristic speeds all vanish.
SAFETY = 1.2
A_FLOOR = 0.1


@dataclass(frozen=True)
class RelaxConfig:
    """Relaxation parameters: rate epsilon and an optional fixed speed, both positive and finite.

    When ``a`` is None the speed is recomputed from the current control at the
    start of each forward solve via subchar_speed; setting ``a`` freezes it
    (used by finite-difference gradient oracles so the discrete objective stays
    smooth in the control).
    """

    epsilon: float = 1e-6
    a: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.a is not None and not 0 < self.a < np.inf:
            raise ValueError(f"fixed speed a must be positive and finite, got {self.a}")


def subchar_speed(model: FluxModel, u_field: np.ndarray, cfg: RelaxConfig) -> float:
    """Pick the relaxation speed a = max(A_FLOOR, SAFETY * max_i |f'(u_i)|).

    The returned speed dominates every characteristic speed of the scalar law
    over the given field, which is the stability requirement for the
    relaxation approximation.  A non-finite f' on the finite field raises
    ValueError naming the model, rather than letting the floor hide it.  cfg is
    not read: SAFETY and A_FLOOR are fixed, and the caller applies a fixed
    speed cfg.a.
    """
    u = np.asarray(u_field, dtype=float)
    if u.size == 0:
        raise ValueError("u_field is empty")
    if not np.all(np.isfinite(u)):
        raise ValueError("u_field contains non-finite entries")
    top = float(np.abs(np.asarray(model.flux_deriv(u), float)).max())
    if not np.isfinite(top):
        raise ValueError(f"flux_deriv of model '{model.name}' is non-finite on the field")
    return max(A_FLOOR, SAFETY * top)


def relax_init(u0: np.ndarray, model: FluxModel) -> RelaxState:
    """Initial relaxation state: u = u0 and v = f(u0) (local equilibrium)."""
    u = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 contains non-finite entries")
    return RelaxState(u.copy(), np.asarray(model.flux(u), dtype=float).copy())
