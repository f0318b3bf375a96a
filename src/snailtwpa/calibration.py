"""Shot-noise calibration chain: SNTJ noise model and gain fit,
quadrature normalization factor, input-attenuation bookkeeping, and the
device insertion loss from the dielectric loss tangent.

The shot-noise tunnel junction (SNTJ) emits, at frequency f and bias V,

    N(f, V) = [ 1/2 * ( (eV+hf)/(2 k_B) * coth((eV+hf)/(2 k_B T))
                      + (eV-hf)/(2 k_B) * coth((eV-hf)/(2 k_B T)) )
                + T_sys ] * BW * G_sys * k_B,

which is fitted with three free parameters (system gain G_sys, system
noise temperature T_sys, electron temperature T) to calibrate the
measurement chain.  Normalized quadratures are obtained from full-scale
digitizer units through

    upsilon = epsilon * sqrt(eta * t_int / (G_sys * Z0 * h * f_acq)),

with G_sys first moved to its upper bound (the fitted value plus the
SNTJ-side insertion-loss allowance, 1 dB by default) so that inferred
squeezing and entanglement are conservative lower bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import snail
from .constants import BOLTZMANN, E_CHARGE, PLANCK
from .errors import FitDivergence, IllConditioned


@dataclass
class SntjModel:
    """SNTJ noise-source parameters, each positive and finite.

    frequency  : acquisition frequency in Hz
    bandwidth  : measurement bandwidth in Hz
    t_electron : SNTJ electron temperature in K
    t_sys      : system noise temperature in K
    g_sys      : system power gain, linear
    """

    frequency: float
    bandwidth: float
    t_electron: float
    t_sys: float
    g_sys: float

    def __post_init__(self):
        for name in ("frequency", "bandwidth", "t_electron", "t_sys", "g_sys"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if BOLTZMANN * self.t_electron >= PLANCK * self.frequency / 5.0:
            warnings.warn(
                f"k_B*T = {BOLTZMANN * self.t_electron:.3e} J is not small against "
                f"h*f = {PLANCK * self.frequency:.3e} J; the quantum-regime "
                "assumption of the SNTJ model is marginal",
                stacklevel=2,
            )


def _thermal_knee(x, t_electron):
    """(x / 2k_B) * coth(x / (2 k_B T)), elementwise, even in x.

    Written as T * z/tanh(z) with z = x/(2 k_B T); the removable
    singularity at z = 0 is evaluated by the series 1 + z^2/3, only where
    |z| < 1e-6.
    """
    z = np.asarray(x, dtype=float) / (2.0 * BOLTZMANN * t_electron)
    small = np.abs(z) < 1e-6
    out = np.divide(z, np.tanh(z), out=np.ones_like(z), where=~small)
    out[small] = 1.0 + z[small] * z[small] / 3.0
    return t_electron * out


def _bias_terms(v, frequency):
    """(eV + hf, eV - hf) at the bias voltage(s) v, with V taken as |v|,
    which makes the evenness of the two-coth expression exact in floating
    point."""
    ev = E_CHARGE * np.abs(np.asarray(v, dtype=float))
    hf = PLANCK * frequency
    return ev + hf, ev - hf


def _noise_power(terms, bandwidth, t_electron, t_sys, g_sys):
    up = _thermal_knee(terms[0], t_electron)
    dn = _thermal_knee(terms[1], t_electron)
    kelvin = 0.5 * (up + dn) + t_sys
    return kelvin * bandwidth * g_sys * BOLTZMANN


def sntj_noise_power(model: SntjModel, v_bias) -> np.ndarray:
    """Noise power (W) emitted by the SNTJ at bias voltage(s) v_bias.

    Even in v_bias; the coth singularities at eV = +/- hf are removable
    and handled by series expansion.
    """
    return _noise_power(
        _bias_terms(v_bias, model.frequency), model.bandwidth, model.t_electron, model.t_sys, model.g_sys
    )


@dataclass
class SntjFitResult:
    """Converged SNTJ fit: parameters, covariance, and diagnostics."""

    g_sys: float
    t_sys: float
    t_electron: float
    covariance: np.ndarray
    residual_norm: float
    n_iter: int

    @property
    def g_sys_db(self) -> float:
        return 10.0 * math.log10(self.g_sys)

    @property
    def parameter_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def fit_sntj(
    v_bias,
    psd_watts,
    frequency: float,
    bandwidth: float,
    initial_guess=None,
    max_iter: int = 500,
) -> SntjFitResult:
    """Fit (G_sys, T_sys, T) to a measured PSD-vs-bias curve.

    Levenberg-style damped least squares on log-parameters (which keeps
    the parameters positive and makes the damping scale-free); converged
    when the relative parameter step drops below 1e-9.  The parameter
    covariance is propagated back to natural units from the Jacobian at
    the solution.

    Raises IllConditioned when the bias range does not reach 2*hf/e (the
    electron and system temperatures are degenerate below the coth knee)
    or when the Jacobian is not finite or numerically rank-deficient;
    FitDivergence when the iteration budget is exhausted; ValueError on a
    frequency or bandwidth that is not positive and finite (as
    :class:`SntjModel`) or a ``max_iter`` below 1.
    """
    for name, value in (("frequency", frequency), ("bandwidth", bandwidth)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    v = np.asarray(v_bias, dtype=float)
    y = np.asarray(psd_watts, dtype=float)
    if v.shape != y.shape or v.ndim != 1:
        raise ValueError("v_bias and psd_watts must be 1-d arrays of equal length")
    if v.size < 10:
        raise ValueError(f"need at least 10 bias points, got {v.size}")
    hf = PLANCK * frequency
    if np.max(np.abs(v)) * E_CHARGE < 2.0 * hf:
        raise IllConditioned(
            f"bias range |eV| < 2hf (max |V| = {np.max(np.abs(v)):.3e} V, "
            f"2hf/e = {2.0 * hf / E_CHARGE:.3e} V): T and T_sys are degenerate"
        )
    if initial_guess is None:
        # slope of the high-bias tail is e*BW*G/2; intercept gives T_sys
        vmax = np.max(np.abs(v))
        tail = np.abs(v) > 0.7 * vmax
        slope = np.polyfit(np.abs(v[tail]), y[tail], 1)[0]
        g0 = max(2.0 * slope / (E_CHARGE * bandwidth), 1.0)
        t_sys0 = max(np.min(y) / (bandwidth * g0 * BOLTZMANN) - hf / (2 * BOLTZMANN), 0.1)
        guess = np.array([g0, t_sys0, 0.05])
    else:
        guess = np.asarray(initial_guess, dtype=float)
    if np.any(guess <= 0.0):
        raise ValueError("initial guess must be positive (g_sys, t_sys, t_electron)")

    terms = _bias_terms(v, frequency)

    def residual(p_log):
        with np.errstate(over="ignore", invalid="ignore"):
            g, t_sys, t_el = np.exp(p_log)
            return _noise_power(terms, bandwidth, t_el, t_sys, g) - y

    def jacobian(p_log):
        cols = []
        for k in range(3):
            h = 1e-6
            dp = np.zeros(3)
            dp[k] = h
            cols.append((residual(p_log + dp) - residual(p_log - dp)) / (2 * h))
        return np.column_stack(cols)

    p = np.log(guess)
    r = residual(p)
    cost = float(r @ r)
    lam = 1e-3
    for n_iter in range(1, max_iter + 1):
        jac = jacobian(p)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = np.diag(jtj).copy()
        if not np.isfinite(jac).all():  # the model overflows: a guess far out of scale
            raise IllConditioned(f"the model is not finite near (g_sys, t_sys, t_electron) = {np.exp(p).tolist()}")
        if np.any(diag <= 0.0) or np.linalg.cond(jac) > 1e12:
            raise IllConditioned(
                "Jacobian is numerically rank-deficient; parameters are not "
                "separately identifiable from this dataset"
            )
        step = None
        while lam < 1e14:
            try:
                trial = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_trial = residual(p + trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:
                step = trial
                p = p + trial
                r = r_trial
                cost = cost_trial
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        if step is None:
            raise FitDivergence(
                f"damping exhausted at iteration {n_iter} (cost {cost:.6g})",
                last_params=np.exp(p),
                last_residual=math.sqrt(cost),
            )
        if np.max(np.abs(step)) < 1e-9:  # log-space step == relative step
            break
    else:
        raise FitDivergence(
            f"no convergence within {max_iter} iterations "
            f"(last relative step {np.max(np.abs(step)):.3e})",
            last_params=np.exp(p),
            last_residual=math.sqrt(cost),
        )

    jac = jacobian(p)
    dof = max(v.size - 3, 1)
    s2 = cost / dof
    cov_log = s2 * np.linalg.inv(jac.T @ jac)
    theta = np.exp(p)
    cov_nat = cov_log * np.outer(theta, theta)  # d theta = theta * d log(theta)
    return SntjFitResult(
        g_sys=float(theta[0]),
        t_sys=float(theta[1]),
        t_electron=float(theta[2]),
        covariance=cov_nat,
        residual_norm=math.sqrt(cost),
        n_iter=n_iter,
    )


def normalization_factor(
    eta: float,
    g_sys: float,
    f_acq: float,
    z0: float = 50.0,
    t_int: float = 10e-6,
    epsilon: float = 0.98,
    loss_correction_db: float = 1.0,
) -> float:
    """upsilon = epsilon * sqrt(eta * t_int / (G_up * Z0 * h * f_acq)),
    the full-scale-to-photon-units normalization factor.

    eta     : device insertion loss, linear in (0, 1]
    g_sys   : fitted system gain, linear
    f_acq   : acquisition frequency in Hz
    z0      : line impedance in ohm
    t_int   : integration time per acquisition in s
    epsilon : digitizer full-scale-to-volt conversion coefficient
    loss_correction_db : allowance for the SNTJ-side insertion loss; G_up
        is the fitted gain raised by this amount (upper-bound gain), making
        the inferred squeezing a conservative lower bound

    Raises ValueError, naming the input, for an eta outside (0, 1], a
    g_sys, f_acq, z0, t_int or epsilon that is not positive and finite, or
    a loss_correction_db for which G_up is not positive and finite; and,
    naming the inputs, when G_up * z0 * h * f_acq or upsilon itself is not
    positive and finite (an overflow or underflow of their product).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    for name, value in (("g_sys", g_sys), ("f_acq", f_acq), ("z0", z0), ("t_int", t_int), ("epsilon", epsilon)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    try:
        g_up = g_sys * 10.0 ** (loss_correction_db / 10.0)
    except OverflowError:
        g_up = math.inf
    if not 0.0 < g_up < math.inf:  # also a nan or infinite loss_correction_db
        raise ValueError(
            f"loss_correction_db must be finite and keep G_up positive and finite, got {loss_correction_db}"
        )
    g_z0_hf = g_up * z0 * PLANCK * f_acq
    if not 0.0 < g_z0_hf < math.inf:
        raise ValueError(
            f"G_up * z0 * h * f_acq must be positive and finite, got {g_z0_hf} from g_sys = {g_sys}, "
            f"loss_correction_db = {loss_correction_db}, z0 = {z0} and f_acq = {f_acq}"
        )
    upsilon = epsilon * math.sqrt(eta * t_int / g_z0_hf)
    if not 0.0 < upsilon < math.inf:
        raise ValueError(
            f"upsilon must be positive and finite, got {upsilon} from eta = {eta}, t_int = {t_int}, "
            f"epsilon = {epsilon} and G_up * z0 * h * f_acq = {g_z0_hf}"
        )
    return upsilon


def input_attenuation(s21_off: float, eta_db: float, g_sys_db: float) -> float:
    """Total input-line attenuation a_in in dB from the pump-off
    transmission, all in dB: s21_off = a_in + eta_db + g_sys_db."""
    return s21_off - eta_db - g_sys_db


def insertion_loss(chain, flux: float, frequency: float) -> float:
    """Linear power insertion loss of ``chain`` (a circuit.ChainConfig)
    at ``frequency`` from its loss tangent, at ``flux`` in Phi0.

    Small-signal Bloch analysis of one clean unit cell (no disorder):
    series impedance of the SNAIL inductance at ``flux`` in parallel with
    c_j, shunt admittance of c_g with loss angle tan_delta at every
    frequency; the propagation constant gamma per cell follows from
    cosh(gamma) = 1 + Z*Y/2, and the power transmission over n_cells is
    exp(-2 * n_cells * Re gamma).  tan_delta = 0 gives exactly 1 inside
    the passband.  A frequency that is not positive and finite raises
    ValueError.
    """
    if not 0.0 < frequency < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {frequency}")
    inductance = snail.coefficients(snail.SnailParams.from_flux(chain.r, chain.i_c_nominal, flux)).inductance
    omega = 2.0 * math.pi * frequency
    z_series = 1.0 / (1.0 / (1j * omega * inductance) + 1j * omega * chain.c_j)
    y_shunt = (1j * omega * chain.c_g) / (1.0 + 1j * chain.tan_delta)
    gamma = np.arccosh(1.0 + z_series * y_shunt / 2.0 + 0j)
    return float(np.exp(-2.0 * chain.n_cells * abs(gamma.real)))
