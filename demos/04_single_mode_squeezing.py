"""Single-mode squeezing pipeline on synthetic quadrature data.

Emulates the measurement chain: a squeezed state rides on top of the
amplifier noise background (pump ON); the background alone is measured
with the pump OFF; the state covariance is inferred by ON - OFF + 1 in
vacuum units.  The demo sweeps the squeezing angle, recovering S_x and
S_p vs phase as in a pump-phase sweep.

Run:  python demos/04_single_mode_squeezing.py
"""

# snailtwpa before numpy: importing it asks for one BLAS thread per process
from snailtwpa.gaussian import measure_states, pump_states, squeezed_vacuum, squeezing_db

import numpy as np

TARGET_DB = -3.0103  # variance 1/2 on the squeezed quadrature
N_REP = 1_000_000
ADDED_NOISE_PHOTONS = 1.5
PHYSICAL_SIGMAS = 3.0  # the target state is pure: its true minimum eigenvalue is 0, so test it within its error

angles = np.linspace(0.0, np.pi, 7)
pairs = pump_states([squeezed_vacuum(10.0 ** (TARGET_DB / 10.0), a) for a in angles], ADDED_NOISE_PHOTONS, 0.0)

print(f"target: {TARGET_DB:+.3f} dB squeezed state under "
      f"{ADDED_NOISE_PHOTONS} photons of added noise, N_rep = {N_REP:.0e}\n")
print(f"{'angle/pi':>9} {'S_x dB':>9} {'S_p dB':>9} {'physical':>9}")

for angle, psi in zip(angles, measure_states(pairs, N_REP, seed=0, gain_uncertainty_db=1.0)):
    s_x, s_p = squeezing_db(psi)
    physical = psi.is_physical(PHYSICAL_SIGMAS * psi.uncertainty.max())
    print(f"{angle / np.pi:>9.2f} {s_x:>9.3f} {s_p:>9.3f} {str(physical):>9}")

print(f"\n'physical': sigma + i*Omega >= 0 within {PHYSICAL_SIGMAS:g} standard errors of the estimate.")
print("S_x swings between the squeezed and anti-squeezed levels as the "
      "state rotates; the two quadratures trade places at angle pi/2.")
