"""SNAIL current-phase relation and flux-tunable mixing coefficients.

A SNAIL is a superconducting loop with three identical Josephson junctions
(critical current ``i_c``) in one arm and a single smaller junction
(critical current ``r * i_c``) in the other.  With the reduced external
flux ``phi_ext = 2*pi*Phi_ext/Phi0`` threading the loop, the current
through the element as a function of the phase ``phi`` across the small
junction is

    I(phi) = r*i_c*sin(phi) + i_c*sin((phi - phi_ext)/3).

Expanding around the zero-current phase ``phi_star`` (I(phi_star) = 0)
gives

    I(phi_star + phi) / (alpha_tilde * i_c) ~ phi - beta*phi^2 - gamma*phi^3,

where ``beta`` and ``gamma`` are the flux-tunable three- and four-wave
mixing coefficients computed by :func:`coefficients`.

Flux conventions: :class:`SnailParams` stores the reduced flux in radians;
sweep-level helpers take flux in units of the flux quantum Phi0 and convert
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PHI0
from .errors import NoConvergence

TWO_PI = 2.0 * math.pi

# Largest |phi_ext| a SnailParams accepts: 1000 flux quanta.  Beyond about
# 2.6e3 Phi0 float64 spacing at phi_ext keeps the working point from
# reaching |I| < 1e-12*i_c: 8 of 5,000 random (r, flux) draws between 1e3
# and 3e3 Phi0 raised NoConvergence, and none of 20,000 below 1e3 Phi0,
# for r in (0.001, 0.333).
MAX_PHI_EXT = TWO_PI * 1000.0


@dataclass(frozen=True)
class SnailParams:
    """Physics of one SNAIL element, or of an array of them: each field is
    a scalar or an array, and the fields broadcast against each other.

    r        : small-to-large junction size ratio, 0 < r < 1/3
    i_c      : large-junction critical current in A
    phi_ext  : reduced external flux 2*pi*Phi_ext/Phi0, in radians

    The bound on r keeps the SNAIL single-valued: for r < 1/3 its
    potential has a single minimum at every flux, so there is one
    zero-current branch to track (:func:`find_phi_star`); for larger r it
    can have several and the element is hysteretic (Frattini et al.,
    Appl. Phys. Lett. 110, 222603 (2017)).  The bound |phi_ext| <=
    ``MAX_PHI_EXT`` (1000 flux quanta) keeps that branch within reach of
    float64 (see the constant).
    """

    r: float | np.ndarray
    i_c: float | np.ndarray
    phi_ext: float | np.ndarray

    def __post_init__(self):
        r, i_c, phi_ext = np.broadcast_arrays(self.r, self.i_c, self.phi_ext)
        for ok, value, message in (
            ((0.0 < r) & (r < 1.0 / 3.0), r, "junction ratio r must be in (0, 1/3) for a single-valued SNAIL"),
            (i_c > 0.0, i_c, "critical current must be positive"),
            (np.abs(phi_ext) <= MAX_PHI_EXT, phi_ext, "phi_ext must be finite and within 2*pi*1000 (1000 flux quanta)"),
        ):
            if not ok.all():  # name the first value out of its bound
                raise ValueError(f"{message}, got {value[~ok].flat[0]}")

    @classmethod
    def from_flux(cls, r, i_c, flux) -> "SnailParams":
        """Build from external flux given in Phi0 units (scalars or arrays)."""
        return cls(r=r, i_c=i_c, phi_ext=TWO_PI * flux)


@dataclass(frozen=True)
class SnailCoefficients:
    """Taylor coefficients of the current-phase relation about phi_star.

    phi_star    : zero-current working point, radians
    alpha_tilde : dimensionless linear coefficient (> 0 on the tracked branch)
    beta        : dimensionless 3WM coefficient (odd in flux)
    gamma       : dimensionless 4WM coefficient (even in flux)
    i_c         : critical current the coefficients were computed for, A
    """

    phi_star: float
    alpha_tilde: float
    beta: float
    gamma: float
    i_c: float

    @property
    def inductance(self) -> float:
        """Per-SNAIL linear inductance Phi0 / (2*pi*alpha_tilde*i_c), in H."""
        return PHI0 / (TWO_PI * self.alpha_tilde * self.i_c)


def snail_current(phi, params: SnailParams):
    """Current through the SNAIL at phase ``phi`` (radians), in A.

    Smooth and 6*pi-periodic in ``phi`` at fixed flux.  Accepts scalars or
    arrays.
    """
    return params.i_c * (
        params.r * np.sin(phi) + np.sin((phi - params.phi_ext) / 3.0)
    )


def _current_derivative(phi, params: SnailParams):
    return params.i_c * (
        params.r * np.cos(phi) + np.cos((phi - params.phi_ext) / 3.0) / 3.0
    )


def find_phi_star(params: SnailParams):
    """Zero-current phase on the branch continuously connected to
    phi_star = 0 at phi_ext = 0.

    For r < 1/3 the current relation has exactly one zero within
    (phi_ext - pi/2, phi_ext + pi/2) and it satisfies
    |phi_star - phi_ext| <= 3*arcsin(r); that root is the tracked branch,
    at every flux a SnailParams accepts (|phi_ext| <= ``MAX_PHI_EXT``).
    Newton iteration from phi_ext with bisection fallback on the bracket;
    converges to |I(phi_star)| < 1e-12 * i_c.  Array params are solved at
    once, each element stopping at its own first iterate inside the
    tolerance, so its bits do not depend on the others; scalar params give
    a float.

    Raises NoConvergence, naming the first unconverged element's r and
    phi_ext, if the iteration budget (100) is exhausted.
    """
    tol = 1e-12 * params.i_c
    lo = params.phi_ext - 0.5 * math.pi
    hi = params.phi_ext + 0.5 * math.pi
    # I(lo) <= (r - 1/2) i_c < 0 < (1/2 - r) i_c <= I(hi) for r < 1/2
    x = np.broadcast_arrays(np.asarray(params.phi_ext, dtype=float), params.r, params.i_c)[0]
    for _ in range(100):
        f = snail_current(x, params)
        todo = ~(np.abs(f) < tol)
        if not todo.any():
            return x if x.ndim else float(x)
        hi = np.where(f > 0.0, x, hi)
        lo = np.where(f > 0.0, lo, x)
        fp = _current_derivative(x, params)
        with np.errstate(over="ignore"):  # a step that overflows leaves the bracket and is bisected
            x_new = x - f / np.where(fp > 0.0, fp, math.nan)
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        x = np.where(todo, x_new, x)
    r, phi_ext = (np.broadcast_to(v, x.shape)[todo][0] for v in (params.r, params.phi_ext))
    raise NoConvergence(
        f"phi_star search did not reach |I| < 1e-12*i_c within 100 iterations "
        f"(r={r}, phi_ext={phi_ext})"
    )


def coefficients(params: SnailParams) -> SnailCoefficients:
    """Linear and nonlinear Taylor coefficients at the working point
    phi* = :func:`find_phi_star` (params), elementwise for array params.

    alpha_tilde = r*cos(phi*) + cos((phi* - phi_ext)/3) / 3
    beta        = [r*sin(phi*) + sin((phi* - phi_ext)/3) / 9] / (2*alpha_tilde)
    gamma       = [r*cos(phi*) + cos((phi* - phi_ext)/3) / 27] / (6*alpha_tilde)
    """
    phi_star = find_phi_star(params)
    arg = (phi_star - params.phi_ext) / 3.0
    alpha = params.r * np.cos(phi_star) + np.cos(arg) / 3.0
    beta = 0.5 * (params.r * np.sin(phi_star) + np.sin(arg) / 9.0) / alpha
    gamma = (params.r * np.cos(phi_star) + np.cos(arg) / 27.0) / (6.0 * alpha)
    if np.ndim(phi_star) == 0:  # scalar params give floats
        alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    return SnailCoefficients(
        phi_star=phi_star, alpha_tilde=alpha, beta=beta, gamma=gamma, i_c=params.i_c
    )


def coefficients_vs_flux(r: float, flux: np.ndarray) -> dict:
    """:func:`coefficients` at each external flux (in Phi0 units).

    Returns arrays keyed by ``flux``, ``phi_star``, ``alpha_tilde``,
    ``beta``, ``gamma``.  The points are solved at once, each stopping at
    its own first iterate inside the tolerance, so its bits do not depend
    on the rest of the grid.  It takes no critical current:
    i_c scales the current relation as a whole, so it cancels from every
    returned quantity up to the last bits, which follow the i_c = 1e-6 A
    used here (in 1 of 50 random grids a point differed in its last bits
    between i_c = 1e-6 and 2.19e-6 A).
    """
    flux = np.asarray(flux, dtype=float)
    c = coefficients(SnailParams.from_flux(r, 1e-6, flux))
    return {"flux": flux} | {key: np.ravel(getattr(c, key)) for key in ("phi_star", "alpha_tilde", "beta", "gamma")}
