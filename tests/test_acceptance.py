"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Profiles (environment variable SNAILTWPA_PROFILE, default "ci"):

- ci:   criterion 3 checks the polarity-suppression property at
        n_cells=100 and criterion 4 runs at n_cells=100 with the pump
        raised to reach the stated gain thresholds at that size; the
        full-size flux-structure clauses are skipped.
- full: criteria 3 and 4 run at n_cells=700 with the reference drive
        levels (minutes per test).

Criteria 3a/3b/3c encode the residual-3WM claims exactly as stated; the
suppression and full-size flux-structure clauses are not attainable in
this model (the measured contrasts are a few dB, not >= 60 dB) and are
expected to fail honestly; the failure messages carry the measured
numbers, and a residual-3WM budget that would explain them is the ROADMAP.md
open item "A residual-3WM budget that explains both red criteria".  All
other criteria pass.
"""

import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from snailtwpa import calibration, circuit, gaussian, snail
from snailtwpa.cli import main
from snailtwpa.constants import E_CHARGE, PLANCK

PROFILE = os.environ.get("SNAILTWPA_PROFILE", "ci")
FULL = PROFILE == "full"
GOLDEN = Path(__file__).parent / "golden"
F_PUMP = 7.705e9

full_only = pytest.mark.skipif(not FULL, reason="full profile only (SNAILTWPA_PROFILE=full)")


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# --- criterion 1: coefficient symmetry & values (< 1 s) ---------------------


def test_criterion_1_coefficients():
    start = time.perf_counter()
    flux = np.linspace(-1.0, 1.0, 1001)  # phi_ext in [-2pi, 2pi]
    sweep = snail.coefficients_vs_flux(0.07, flux)
    beta, gamma = sweep["beta"], sweep["gamma"]
    c0 = snail.coefficients(snail.SnailParams.from_flux(0.07, 2.19e-6, 0.0))
    gamma_oracle = (1.0 / 6.0) * (0.07 + 1.0 / 27.0) / (0.07 + 1.0 / 3.0)
    elapsed = time.perf_counter() - start
    ok = (
        c0.beta == 0.0
        and bool(np.all(np.abs(beta + beta[::-1]) < 1e-10))
        and bool(np.all(np.abs(gamma - gamma[::-1]) < 1e-10))
        and abs(c0.gamma - gamma_oracle) < 1e-12
        and abs(gamma_oracle - 0.044230) < 1e-6
        and elapsed < 1.0
    )
    report("1 coefficient symmetry & values", ok, f"gamma(0)={c0.gamma:.6f}, {elapsed:.2f} s")


# --- criterion 2: flux-dependence shape (< 1 s) ------------------------------


def test_criterion_2_flux_shape(tmp_path):
    start = time.perf_counter()
    flux = np.linspace(-1.0, 1.0, 1001)
    sweep = snail.coefficients_vs_flux(0.07, flux)
    beta, gamma = sweep["beta"], sweep["gamma"]
    crossings = np.where(np.diff(np.sign(gamma)) != 0)[0]
    extrema = [
        k
        for k in range(1, flux.size - 1)
        if abs(beta[k]) >= abs(beta[k - 1]) and abs(beta[k]) >= abs(beta[k + 1])
        and abs(beta[k]) > 0.9 * np.max(np.abs(beta))
    ]
    export = tmp_path / "flux_shape.csv"
    rows = ["flux_phi0,beta,gamma,is_gamma_zero_crossing,is_beta_extremum"]
    marks_z = set(crossings.tolist())
    marks_e = set(extrema)
    for k in range(flux.size):
        rows.append(
            f"{flux[k]!r},{beta[k]!r},{gamma[k]!r},{int(k in marks_z)},{int(k in marks_e)}"
        )
    export.write_text("\n".join(rows) + "\n")
    elapsed = time.perf_counter() - start
    ok = (
        len(crossings) >= 2
        and len(crossings) % 2 == 0
        and len(extrema) >= 2
        and np.max(np.abs(beta[extrema])) == pytest.approx(np.max(np.abs(beta)))
        and elapsed < 1.0
    )
    report(
        "2 flux-dependence shape",
        ok,
        f"{len(crossings)} gamma zero crossings, beta extrema at "
        f"{np.round(flux[extrema], 3).tolist()} Phi0 (exported {export.name}), "
        f"{elapsed:.2f} s",
    )


# --- criterion 3: residual-3WM mechanism -------------------------------------


def _idler_levels(points, drive, f_idler):
    """The idler level (dBm) at each (config, flux) point, all in one batch."""
    chains = [circuit.build_chain(config, flux, f_ref=drive.tones[0].frequency) for config, flux in points]
    return circuit.read_levels([(chain, drive, f_idler) for chain in chains])


def test_criterion_3a_polarity_suppression():
    # disorder OFF -> 3WM idler >= 60 dB below the seed-fixed disorder-ON
    # level at the flux of maximal |beta|
    n_cells = 700 if FULL else 100
    drive = circuit.three_wave_drive(F_PUMP)
    f_idler = circuit.idler_frequencies(drive)["three_wave"]
    flux_star = 0.684  # flux of maximal |beta| for r = 0.07
    off, on = _idler_levels(
        [
            (circuit.ChainConfig(n_cells=n_cells, disorder_amplitude=0.0), flux_star),
            (circuit.ChainConfig(n_cells=n_cells, disorder_amplitude=0.05, rng_seed=1), flux_star),
        ],
        drive,
        f_idler,
    )
    contrast = on - off
    report(
        "3a polarity suppression >= 60 dB",
        contrast >= 60.0,
        f"n_cells={n_cells}: disorder-off {off:.1f} dBm, disorder-on {on:.1f} dBm, "
        f"contrast {contrast:.1f} dB (model retains an O(one-cell) end/mismatch "
        "residual; see the ROADMAP.md open item 'A residual-3WM budget that explains both red criteria')",
    )


@full_only
def test_criterion_3b_three_wave_flux_structure():
    # disorder ON: broad maxima near both 0.45 and 0.59 Phi0
    config = circuit.ChainConfig(n_cells=700, disorder_amplitude=0.05, rng_seed=1)
    drive = circuit.three_wave_drive(F_PUMP)
    f_idler = circuit.idler_frequencies(drive)["three_wave"]
    flux_grid = np.array([0.40, 0.45, 0.50, 0.55, 0.59, 0.634, 0.684])
    levels = np.array(_idler_levels([(config, f) for f in flux_grid], drive, f_idler))
    at = dict(zip(flux_grid.tolist(), levels.tolist()))
    dip = at[0.50]
    ok = (at[0.45] > dip + 10.0) and (at[0.59] > dip + 10.0)
    report(
        "3b 3WM flux maxima near Phi1 and Phi2",
        ok,
        f"levels {dict((k, round(v, 1)) for k, v in at.items())} (expect local "
        "minimum at 0.50 where beta = 0)",
    )


@full_only
def test_criterion_3c_four_wave_contrast():
    # 4WM idler at Phi1 = 0.59 lower than at Phi2 = 0.45 by >= 6 dB in
    # >= 3 of 5 disorder seeds
    drive = circuit.four_wave_drive(F_PUMP)
    f_idler = circuit.idler_frequencies(drive)["four_wave"]
    configs = [circuit.ChainConfig(n_cells=700, disorder_amplitude=0.05, rng_seed=seed) for seed in (1, 2, 3, 4, 5)]
    levels = _idler_levels([(config, flux) for config in configs for flux in (0.45, 0.59)], drive, f_idler)
    contrasts = [p2 - p1 for p2, p1 in zip(levels[::2], levels[1::2])]
    n_pass = sum(c >= 6.0 for c in contrasts)
    report(
        "3c 4WM idler contrast >= 6 dB in >= 3/5 seeds",
        n_pass >= 3,
        f"contrasts {np.round(contrasts, 1).tolist()} dB -> {n_pass}/5",
    )


# --- criterion 4: degenerate gain phase dependence ----------------------------


PHASES = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)


def _gain_curve(n_cells, flux, pump_current, phases=PHASES):
    config = circuit.ChainConfig(n_cells=n_cells, disorder_amplitude=0.05, rng_seed=1)
    drive = circuit.three_wave_drive(
        F_PUMP, pump_current, 0.0011e-6, delta_bins=0, window=60e-9 if FULL else 30e-9, settle_time=10e-9
    )
    out = circuit.degenerate_gain_vs_phase(config, flux, drive, phases)
    return out["gain_db"]


# pump currents at the two flux points (pre-calibrated: peak gains are
# comparable at equal drive; the full profile uses the reference
# squeezing-run level of -84 dBm at the input, i.e. 0.4 uA)
PUMP_PHI1 = 0.4e-6 if FULL else 0.8e-6
PUMP_PHI2 = 0.4e-6 if FULL else 0.8e-6


def test_criterion_4_gain_phase():
    n_cells = 700 if FULL else 100
    # 2*pi periodicity: the Phi1 sweep repeats its phase 0 at 2*pi
    sweep_phi1 = _gain_curve(n_cells, 0.59, PUMP_PHI1, np.append(PHASES, 2.0 * np.pi))
    gain_phi1, rep, rep_shift = sweep_phi1[:-1], sweep_phi1[0], sweep_phi1[-1]
    gain_phi2 = _gain_curve(n_cells, 0.45, PUMP_PHI2)
    contrast_1 = gain_phi1.max() - gain_phi1.min()
    contrast_2 = gain_phi2.max() - gain_phi2.min()
    peaks_matched = abs(gain_phi1.max() - gain_phi2.max()) < 1.5
    periodic = abs(rep_shift - rep) < 0.01
    ok = (
        periodic
        and gain_phi1.max() > 1.0
        and gain_phi1.min() < -1.0
        and contrast_2 < contrast_1
        and peaks_matched
    )
    report(
        "4 degenerate gain phase dependence",
        ok,
        f"n_cells={n_cells}: Phi1 max {gain_phi1.max():+.2f} / min {gain_phi1.min():+.2f} dB "
        f"(contrast {contrast_1:.2f}), Phi2 contrast {contrast_2:.2f} dB, "
        f"periodicity delta {abs(rep_shift - rep):.4f} dB",
    )


# --- criterion 5: Gaussian pipeline fidelity (< 30 s) --------------------------


def test_criterion_5_squeezing_pipeline():
    start = time.perf_counter()
    n_rep = 1_000_000
    target_db = -3.0103
    squeeze = 10.0 ** (target_db / 10.0)
    psi_true = np.diag([squeeze, 1.0 / squeeze])
    off_true = 4.0 * np.eye(2)  # 1.5 photons of added noise
    on_true = psi_true - np.eye(2) + off_true
    on = gaussian.estimate_covariance(
        gaussian.sample_gaussian(on_true, n_rep=n_rep, seed=50, pump_state="ON")
    )
    off = gaussian.estimate_covariance(
        gaussian.sample_gaussian(off_true, n_rep=n_rep, seed=51)
    )
    psi = gaussian.subtract_background(on, off)
    s_x, s_p = gaussian.squeezing_db(psi)
    s_min = min(s_x, s_p)
    elapsed = time.perf_counter() - start
    report(
        "5 Gaussian pipeline fidelity",
        abs(s_min - target_db) < 0.1 and elapsed < 30.0,
        f"S_min = {s_min:+.4f} dB vs target {target_db:+.4f} dB at N_rep = 1e6, "
        f"{elapsed:.1f} s",
    )


# --- criterion 6: entanglement oracle (< 1 s) -----------------------------------


def test_criterion_6_entanglement_oracle():
    start = time.perf_counter()
    omega = gaussian.symplectic_form(2)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    ok = True
    details = []
    for r in (0.1, 0.5, 1.0):
        a = math.cosh(2 * r) * np.eye(2)
        c = math.sinh(2 * r) * np.diag([1.0, -1.0])
        sigma = np.block([[a, c], [c.T, a]])
        e_n, nu = gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=sigma))
        nu_oracle = float(np.sort(np.abs(np.linalg.eigvals(1j * omega @ (flip @ sigma @ flip))))[0])
        ok = ok and abs(e_n - 2 * r) < 1e-9 and abs(nu - nu_oracle) / nu_oracle < 1e-9
        details.append(f"E_N({r})={e_n:.10f}")
    e_id, _ = gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=np.eye(4)))
    elapsed = time.perf_counter() - start
    ok = ok and e_id == 0.0 and elapsed < 1.0
    report(
        "6 entanglement oracle",
        ok,
        "; ".join(details) + f"; identity E_N={e_id}, {elapsed:.2f} s",
    )


# --- criterion 7: SNTJ calibration (< 5 s) ---------------------------------------


def test_criterion_7_sntj_calibration():
    start = time.perf_counter()
    gains = [
        (F_PUMP / 2, 61.7),
        (F_PUMP / 2 + 31e6, 62.0),
        (F_PUMP / 2 - 31e6, 61.1),
        (F_PUMP / 2 + 61e6, 61.5),
        (F_PUMP / 2 - 61e6, 62.0),
        (F_PUMP + 31e6, 46.5),
    ]
    ok = True
    worst = 0.0
    for k, (freq, g_db) in enumerate(gains):
        hf_e = PLANCK * freq / E_CHARGE
        v = np.linspace(-8 * hf_e, 8 * hf_e, 50_001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = calibration.SntjModel(
                frequency=freq, bandwidth=3e3, t_electron=0.05, t_sys=4.0,
                g_sys=10 ** (g_db / 10.0),
            )
        rng = np.random.default_rng(1000 + k)
        y = calibration.sntj_noise_power(model, v) * (1 + 0.01 * rng.standard_normal(v.size))
        res = calibration.fit_sntj(v, y, freq, 3e3, initial_guess=(10 ** (g_db / 10) * 0.8, 3.0, 0.04))
        dg = abs(res.g_sys_db - g_db)
        worst = max(worst, dg)
        ok = ok and dg < 0.1
        ok = ok and abs(res.t_sys - 4.0) / 4.0 < 0.10
        ok = ok and abs(res.t_electron - 0.05) / 0.05 < 0.10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        "7 SNTJ calibration",
        ok,
        f"worst gain error {worst:.4f} dB over six frequencies, {elapsed:.1f} s",
    )


# --- criterion 8: determinism & golden regression ---------------------------------


GOLDEN_RUNS = {
    "coeffs": (
        "golden_coeffs.csv",
        {"r": 0.07, "flux_min": -2.0, "flux_max": 2.0, "n_points": 401},
    ),
    "flux-sweep": (
        "golden_flux_sweep.csv",
        {
            "chain": {"n_cells": 20, "disorder_amplitude": 0.05, "rng_seed": 1},
            "drive": {"window": 15e-9, "settle_time": 8e-9},
            "flux_min": 0.45,
            "flux_max": 0.59,
            "n_points": 3,
        },
    ),
    "gain-phase": (
        "golden_gain_phase.csv",
        {
            "chain": {"n_cells": 20, "disorder_amplitude": 0.05, "rng_seed": 1},
            "flux": 0.59,
            "pump_current": 1.2e-6,
            "n_phases": 5,
            "window": 15e-9,
            "settle_time": 8e-9,
        },
    ),
}


def test_criterion_8_determinism_and_goldens(tmp_path):
    ok = True
    details = []
    for command, (golden_name, config) in GOLDEN_RUNS.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert main([command, "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main([command, "--config", str(cfg_path), "--out", str(out_b)]) == 0
        bytes_a = (out_a / "result.csv").read_bytes()
        identical = bytes_a == (out_b / "result.csv").read_bytes()
        golden_path = GOLDEN / golden_name
        matches = bytes_a == golden_path.read_bytes()
        ok = ok and identical and matches
        details.append(f"{command}: rerun {'==' if identical else '!='}, golden {'==' if matches else '!='}")
    report("8 determinism & golden regression", ok, "; ".join(details))
