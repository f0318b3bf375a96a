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


@dataclass(frozen=True)
class SnailParams:
    """Physics of one SNAIL element.

    r        : small-to-large junction size ratio, 0 < r < 1/3
    i_c      : large-junction critical current in A
    phi_ext  : reduced external flux 2*pi*Phi_ext/Phi0, in radians

    The bound on r keeps the SNAIL single-valued: for r < 1/3 its
    potential has a single minimum at every flux, so there is one
    zero-current branch to track (:func:`find_phi_star`); for larger r it
    can have several and the element is hysteretic (Frattini et al.,
    Appl. Phys. Lett. 110, 222603 (2017)).
    """

    r: float
    i_c: float
    phi_ext: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0 / 3.0:
            raise ValueError(f"junction ratio r must be in (0, 1/3) for a single-valued SNAIL, got {self.r}")
        if not self.i_c > 0.0:
            raise ValueError(f"critical current must be positive, got {self.i_c}")
        if not math.isfinite(self.phi_ext):
            raise ValueError("phi_ext must be finite")

    @classmethod
    def from_flux(cls, r: float, i_c: float, flux: float) -> "SnailParams":
        """Build from external flux given in Phi0 units."""
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


def find_phi_star(params: SnailParams, guess: float | None = None) -> float:
    """Zero-current phase on the branch continuously connected to
    phi_star = 0 at phi_ext = 0.

    For r < 1/3 the current relation has exactly one zero within
    (phi_ext - pi/2, phi_ext + pi/2) and it satisfies
    |phi_star - phi_ext| <= 3*arcsin(r); that root is the tracked branch,
    for arbitrarily large flux.  Newton iteration (warm-started with
    ``guess``, e.g. the previous point of a flux sweep) with bisection
    fallback on the bracket; converges to |I(phi_star)| < 1e-12 * i_c.

    Raises NoConvergence if the iteration budget (100) is exhausted.
    """
    tol = 1e-12 * params.i_c
    lo = params.phi_ext - 0.5 * math.pi
    hi = params.phi_ext + 0.5 * math.pi
    # I(lo) <= (r - 1/2) i_c < 0 < (1/2 - r) i_c <= I(hi) for r < 1/2
    x = float(guess) if guess is not None else params.phi_ext
    if not lo < x < hi:
        x = params.phi_ext
    for _ in range(100):
        f = float(snail_current(x, params))
        if abs(f) < tol:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        fp = float(_current_derivative(x, params))
        if fp > 0.0:
            step = f / fp
            x_new = x - step
        else:
            x_new = math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise NoConvergence(
        f"phi_star search did not reach |I| < 1e-12*i_c within 100 iterations "
        f"(r={params.r}, phi_ext={params.phi_ext})"
    )


def coefficients(params: SnailParams, phi_star: float | None = None) -> SnailCoefficients:
    """Linear and nonlinear Taylor coefficients at the working point.

    alpha_tilde = r*cos(phi*) + cos((phi* - phi_ext)/3) / 3
    beta        = [r*sin(phi*) + sin((phi* - phi_ext)/3) / 9] / (2*alpha_tilde)
    gamma       = [r*cos(phi*) + cos((phi* - phi_ext)/3) / 27] / (6*alpha_tilde)

    ``phi_star`` may be passed in (e.g. warm-started from a sweep); it is
    recomputed otherwise.
    """
    if phi_star is None:
        phi_star = find_phi_star(params)
    arg = (phi_star - params.phi_ext) / 3.0
    alpha = params.r * math.cos(phi_star) + math.cos(arg) / 3.0
    beta = 0.5 * (params.r * math.sin(phi_star) + math.sin(arg) / 9.0) / alpha
    gamma = (params.r * math.cos(phi_star) + math.cos(arg) / 27.0) / (6.0 * alpha)
    return SnailCoefficients(
        phi_star=phi_star, alpha_tilde=alpha, beta=beta, gamma=gamma, i_c=params.i_c
    )


def coefficients_vs_flux(r: float, flux: np.ndarray) -> dict:
    """Sweep the coefficients over external flux (in Phi0 units).

    Roots are tracked along the sweep by warm-starting each Newton solve
    with the previous flux point's phi_star.  Returns arrays keyed by
    ``flux``, ``phi_star``, ``alpha_tilde``, ``beta``, ``gamma``.  It takes
    no critical current: i_c scales the current relation as a whole, so
    it cancels from every returned quantity.
    """
    flux = np.asarray(flux, dtype=float)
    n = flux.size
    phi_star = np.empty(n)
    alpha = np.empty(n)
    beta = np.empty(n)
    gamma = np.empty(n)
    guess = None
    for k in range(n):
        # i_c cancels but for the rounding residue of a root at 0 (beta ~1e-26
        # at flux 0.0); 1e-6 A, what the coeffs command always passed, keeps it
        params = SnailParams.from_flux(r, 1e-6, float(flux.flat[k]))
        root = find_phi_star(params, guess=guess)
        c = coefficients(params, phi_star=root)
        phi_star[k] = root
        alpha[k] = c.alpha_tilde
        beta[k] = c.beta
        gamma[k] = c.gamma
        guess = root + (TWO_PI * (flux.flat[k + 1] - flux.flat[k]) if k + 1 < n else 0.0)
    return {
        "flux": flux,
        "phi_star": phi_star,
        "alpha_tilde": alpha,
        "beta": beta,
        "gamma": gamma,
    }
