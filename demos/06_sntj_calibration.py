"""System-gain calibration against a shot-noise tunnel junction.

Generates a synthetic SNTJ noise-power-vs-bias curve (quantum shot noise
rounded by the electron temperature, on top of the system noise floor,
all amplified by the system gain), adds 1 % measurement noise, fits the
three free parameters back out, and assembles the quadrature
normalization factor used to refer squeezing levels to the device output.

Run:  python demos/06_sntj_calibration.py
"""

import warnings

import numpy as np

from snailtwpa.calibration import (
    SntjModel,
    fit_sntj,
    input_attenuation,
    insertion_loss,
    normalization_factor,
    sntj_noise_power,
)
from snailtwpa.circuit import ChainConfig
from snailtwpa.constants import E_CHARGE, PLANCK

F_ACQ = 7.705e9 / 2.0
TRUE_GAIN_DB = 61.7

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # 50 mK is marginal against hf/5k_B here
    model = SntjModel(
        frequency=F_ACQ, bandwidth=3e3, t_electron=0.05, t_sys=4.0, g_sys=10 ** (TRUE_GAIN_DB / 10)
    )

hf_e = PLANCK * F_ACQ / E_CHARGE
v_bias = np.linspace(-8 * hf_e, 8 * hf_e, 4001)
rng = np.random.default_rng(0)
psd = sntj_noise_power(model, v_bias) * (1.0 + 0.01 * rng.standard_normal(v_bias.size))

fit = fit_sntj(v_bias, psd, F_ACQ, 3e3, initial_guess=(1e6, 3.0, 0.04))
print(f"fitted system gain   : {fit.g_sys_db:7.3f} dB   (true {TRUE_GAIN_DB})")
print(f"fitted T_sys         : {fit.t_sys:7.3f} K    (true 4.0)")
print(f"fitted T_electron    : {fit.t_electron * 1e3:7.1f} mK   (true 50.0)")
print(f"residual norm        : {fit.residual_norm:.3e} W, {fit.n_iter} iterations")

# device insertion loss of the default 700-cell chain from its loss tangent at zero flux
eta = insertion_loss(ChainConfig(), 0.0, F_ACQ)
print(f"\ninsertion loss eta   : {eta:.4f} ({10 * np.log10(eta):+.2f} dB over 700 cells)")

upsilon = normalization_factor(eta=eta, g_sys=fit.g_sys, f_acq=F_ACQ)
print(f"normalization factor : {upsilon:.6g} per FS unit")
print("(gain raised by the 1 dB loss allowance first, so squeezing levels "
      "inferred with it are conservative lower bounds)")

a_in = input_attenuation(s21_off=-10.0, eta_db=10 * np.log10(eta), g_sys_db=fit.g_sys_db)
print(f"input attenuation    : {a_in:.2f} dB (from S21_off = -10 dB)")
