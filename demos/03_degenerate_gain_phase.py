"""Phase-sensitive degenerate gain from residual three-wave mixing.

With the signal exactly at half the pump frequency, residual 3WM makes
the signal gain depend on the pump phase (amplification for one phase,
deamplification half a period later).  The demo sweeps the pump phase on
a short disordered chain at a flux where |beta| is large.

Run:  python demos/03_degenerate_gain_phase.py
"""

import numpy as np

from snailtwpa.circuit import ChainConfig, degenerate_gain_vs_phase, three_wave_drive

config = ChainConfig(n_cells=30, disorder_amplitude=0.05, rng_seed=1)
# pump at 7.705 GHz, signal on the f_p/2 bin (delta_bins=0)
drive = three_wave_drive(
    7.705e9, pump_current=0.9e-6, signal_current=0.0011e-6, delta_bins=0, window=15e-9, settle_time=8e-9
)
phases = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)

result = degenerate_gain_vs_phase(config, flux=0.59, drive=drive, phase_grid=phases)

print(f"signal at {result['f_signal'] / 1e9:.4f} GHz, pump-off level "
      f"{result['pump_off_dbm']:.2f} dBm\n")
gain = result["gain_db"]
span = max(gain.max() - gain.min(), 1e-12)
print(f"{'pump phase/pi':>14} {'gain dB':>10}")
for p, g in zip(result["phase"], gain):
    bar = "#" * (1 + int((g - gain.min()) / span * 40))
    print(f"{p / np.pi:>14.2f} {g:>10.3f}  {bar}")

print(f"\nmax gain {gain.max():+.3f} dB, max deamplification {gain.min():+.3f} dB, "
      f"contrast {gain.max() - gain.min():.3f} dB")
