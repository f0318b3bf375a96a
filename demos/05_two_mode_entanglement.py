"""Two-mode squeezing and entanglement verification.

Runs the signal/idler covariance pipeline on synthetic two-mode squeezed
vacuum of increasing squeezing parameter r (a stand-in for pump power)
and evaluates the logarithmic negativity E_N through the PPT criterion.
E_N = 2r for an ideal TMSV; added thermal photons push the state back
toward separability.

Run:  python demos/05_two_mode_entanglement.py
"""

from snailtwpa.gaussian import CovMatrix, logarithmic_negativity, measure_states, pump_states, two_mode_squeezed

N_REP = 400_000
R_VALUES = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
pairs = pump_states([two_mode_squeezed(r, 0.0) for r in R_VALUES], 1.0, 0.0)  # 1 added photon on each mode

print(f"{'r':>5} {'E_N est':>9} {'E_N ideal':>10} {'nu_minus':>9}")
for r, psi in zip(R_VALUES, measure_states(pairs, N_REP, seed=0, gain_uncertainty_db=None)):
    e_n, nu = logarithmic_negativity(psi)
    print(f"{r:>5.2f} {e_n:>9.4f} {2 * r:>10.4f} {nu:>9.4f}")

print("\nwith 1.5 thermal photons on each mode (entanglement degraded):")
print(f"{'r':>5} {'E_N est':>9}")
for r in [0.2, 0.4, 0.6]:
    sigma = CovMatrix(entries=two_mode_squeezed(r, 1.5))
    e_n, _ = logarithmic_negativity(sigma)
    print(f"{r:>5.2f} {e_n:>9.4f}")

print("\nE_N > 0 certifies signal/idler entanglement (PPT criterion); "
      "thermal occupation beyond sinh^2(r)-ish kills it.")
