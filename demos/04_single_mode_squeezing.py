"""Single-mode squeezing pipeline on synthetic quadrature data.

Emulates the measurement chain: a squeezed state rides on top of the
amplifier noise background (pump ON); the background alone is measured
with the pump OFF; the state covariance is inferred by ON - OFF + 1 in
vacuum units.  The demo sweeps the squeezing angle, recovering S_x and
S_p vs phase as in a pump-phase sweep.

Run:  python demos/04_single_mode_squeezing.py
"""

import numpy as np

from snailtwpa.gaussian import (
    estimate_covariance,
    pump_states,
    sample_gaussian,
    squeezed_vacuum,
    squeezing_db,
    subtract_background,
)

TARGET_DB = -3.0103  # variance 1/2 on the squeezed quadrature
N_REP = 1_000_000
ADDED_NOISE_PHOTONS = 1.5

angles = np.linspace(0.0, np.pi, 7)
pairs = pump_states([squeezed_vacuum(10.0 ** (TARGET_DB / 10.0), a) for a in angles], ADDED_NOISE_PHOTONS, 0.0)

print(f"target: {TARGET_DB:+.3f} dB squeezed state under "
      f"{ADDED_NOISE_PHOTONS} photons of added noise, N_rep = {N_REP:.0e}\n")
print(f"{'angle/pi':>9} {'S_x dB':>9} {'S_p dB':>9} {'physical':>9}")

for k, (angle, (on_true, off_true)) in enumerate(zip(angles, pairs)):
    on = estimate_covariance(sample_gaussian(on_true, n_rep=N_REP, seed=2 * k, pump_state="ON"))
    off = estimate_covariance(sample_gaussian(off_true, n_rep=N_REP, seed=2 * k + 1))
    psi = subtract_background(on, off, gain_uncertainty_db=1.0)
    s_x, s_p = squeezing_db(psi)
    print(f"{angle / np.pi:>9.2f} {s_x:>9.3f} {s_p:>9.3f} {str(psi.is_physical(1e-2)):>9}")

print("\nS_x swings between the squeezed and anti-squeezed levels as the "
      "state rotates; the two quadratures trade places at angle pi/2.")
