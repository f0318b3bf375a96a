"""Flux tunability of a single SNAIL.

Sweeps the external flux and tabulates the working point phi*, the linear
coefficient alpha_tilde, and the 3WM/4WM coefficients beta and gamma for
the reference device (r = 0.07, i_c = 2.19 uA).  beta is odd in flux and
vanishes at 0 and 0.5 Phi0; gamma is even and changes sign near
0.37 and 0.63 Phi0; the competition between the two is what makes the
choice of flux operating point matter.

Run:  python demos/01_snail_flux_tunability.py
"""

import numpy as np

from snailtwpa.snail import coefficients_vs_flux

flux = np.linspace(-1.0, 1.0, 201)
sweep = coefficients_vs_flux(0.07, flux)

print(f"{'flux/Phi0':>10} {'phi*':>10} {'alpha~':>10} {'beta':>12} {'gamma':>12}")
for k in range(0, flux.size, 10):
    print(
        f"{flux[k]:>10.3f} {sweep['phi_star'][k]:>10.4f} "
        f"{sweep['alpha_tilde'][k]:>10.5f} {sweep['beta'][k]:>12.6f} "
        f"{sweep['gamma'][k]:>12.6f}"
    )

beta, gamma = sweep["beta"], sweep["gamma"]
print()
print(f"max |beta| = {np.max(np.abs(beta)):.5f} at {flux[np.argmax(np.abs(beta))]:+.3f} Phi0")
crossings = flux[np.where(np.diff(np.sign(gamma)) != 0)[0]]
print(f"gamma sign changes near: {np.round(crossings, 3)}")
print(f"beta( 0.59 Phi0) = {np.interp(0.59, flux, beta):+.5f}   "
      f"gamma(0.59 Phi0) = {np.interp(0.59, flux, gamma):+.5f}   <- 4WM nearly off")
print(f"beta( 0.45 Phi0) = {np.interp(0.45, flux, beta):+.5f}   "
      f"gamma(0.45 Phi0) = {np.interp(0.45, flux, gamma):+.5f}   <- 4WM still on")

np.savetxt(
    "snail_coefficients.csv",
    np.column_stack([flux, sweep["alpha_tilde"], beta, gamma]),
    delimiter=",",
    header="flux_phi0,alpha_tilde,beta,gamma",
    comments="",
)
print("\nwrote snail_coefficients.csv")
