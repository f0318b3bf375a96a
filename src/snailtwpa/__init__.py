"""snailtwpa: SNAIL traveling-wave parametric amplifier toolkit.

Modules:

- :mod:`snailtwpa.snail`       SNAIL current-phase relation and the
                               flux-tunable 3WM/4WM coefficients
- :mod:`snailtwpa.circuit`     transient simulation of the nonlinear
                               transmission line, spectra, flux and
                               pump-phase sweeps
- :mod:`snailtwpa.gaussian`    covariance estimation, squeezing and
                               logarithmic negativity of quadrature data
- :mod:`snailtwpa.calibration` shot-noise (SNTJ) system-gain calibration
                               and quadrature normalization
- :mod:`snailtwpa.parallel`    each job's items cut once, the parts run
                               at once in this process and forked children
- :mod:`snailtwpa.cli`         batch command-line front end
"""

import os

# One BLAS thread per process, set before numpy loads OpenBLAS: the package
# forks its parallel parts, and OpenBLAS's default of one thread per CPU in
# each of them oversubscribes the CPUs.  A value set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import calibration, circuit, constants, errors, gaussian, parallel, snail

__all__ = ["calibration", "circuit", "constants", "errors", "gaussian", "parallel", "snail"]
__version__ = "0.1.0"
