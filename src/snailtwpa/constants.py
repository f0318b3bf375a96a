"""Physical constants shared across the package (SI units).

E_CHARGE, PLANCK and BOLTZMANN are exact by definition in the 2019 SI, so
they are written out here rather than imported.
"""

# Elementary charge, C.
E_CHARGE = 1.602176634e-19
# Planck constant, J s.
PLANCK = 6.62607015e-34
# Boltzmann constant, J/K.
BOLTZMANN = 1.380649e-23

# Magnetic flux quantum h/(2e), in Wb.
PHI0 = PLANCK / (2.0 * E_CHARGE)

__all__ = ["E_CHARGE", "PLANCK", "BOLTZMANN", "PHI0"]
