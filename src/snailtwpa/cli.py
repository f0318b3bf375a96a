"""Batch command-line front end.

Subcommands: coeffs | flux-sweep | gain-phase | sms | tms | sntj-fit |
normalize | attenuation.  Every command reads a JSON run configuration
(``--config``), writes its primary output (``result.csv`` or
``result.json``) plus a ``meta.json`` sidecar into ``--out``, and is pure
with respect to (config, seed): re-running reproduces byte-identical
files.  Exit codes: 0 ok, 1 runtime/solver error, 2 configuration error.

Progress goes to stderr so the primary outputs stay machine-clean.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import calibration, circuit, gaussian, snail
from .errors import ConfigError, SnailTwpaError

SCHEMA_VERSION = "snailtwpa/v1"

PROFILES = {
    "ci": {"n_cells": 100, "flux_points": 9},
    "full": {"n_cells": 700, "flux_points": 17},
}

CHAIN_KEYS = {
    "n_cells",
    "c_j",
    "c_g",
    "i_c_nominal",
    "r",
    "tan_delta",
    "disorder_amplitude",
    "rng_seed",
    "z0",
}

COMMAND_SCHEMAS = {
    "coeffs": {"r", "flux_min", "flux_max", "n_points"},
    "flux-sweep": {"chain", "drive", "flux_min", "flux_max", "n_points"},
    "gain-phase": {"chain", "flux", "pump_frequency", "pump_current", "signal_current", "n_phases", "window", "settle_time"},
    "sms": {"target_s_db", "target_theta", "added_noise_photons", "n_rep", "phases", "seed", "gain_drift", "input_csv", "gain_uncertainty_db"},
    "tms": {"r_values", "added_noise_photons", "thermal_photons", "n_rep", "seed", "gain_drift", "gain_uncertainty_db"},
    "sntj-fit": {"csv", "frequency", "bandwidth", "initial_guess", "max_iter"},
    "normalize": {"g_sys_db", "f_acq", "t_int", "epsilon", "z0", "loss_correction_db", "eta", "chain", "flux"},
    "attenuation": {"s21_off_db", "eta_db", "g_sys_db"},
}

DRIVE_KEYS = {"f_pump", "pump_current", "signal_current", "delta_bins", "window", "settle_time", "dt"}

GUESS_KEYS = {"g_sys_db", "t_sys", "t_electron"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _git_revision() -> str | None:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def _finite(value, name: str, kind=float):
    """``value`` as a finite ``kind``; anything else is a configuration error
    naming ``name``."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _number(config: dict, key: str, default, kind=float):
    """``config[key]`` (or ``default``) as a finite ``kind``."""
    return _finite(config.get(key, default), f"'{key}'", kind)


def _numbers(config: dict, key: str, default) -> list:
    """``config[key]`` (or ``default``) as a list of finite floats."""
    values = config.get(key, default)
    if not isinstance(values, list):
        raise ConfigError(f"'{key}' must be a list of numbers, got {values!r}")
    return [_finite(value, f"'{key}' entry") for value in values]


def _gain_from_db(config: dict, key: str) -> float:
    """``config[key]``, a power gain in dB, as a linear factor."""
    db = _number(config, key, None)
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"'{key}' is too large, got {db} dB") from None


def _input_file(config: dict, key: str) -> Path:
    """``config[key]`` as the path of an existing file."""
    value = config[key]
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' must be a file path, got {value!r}")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"input CSV not found: {path}")
    return path


def _gain_uncertainty(config: dict):
    """The system-gain uncertainty in dB; null turns the systematic bounds off."""
    if config.get("gain_uncertainty_db", 1.0) is None:
        return None
    return _number(config, "gain_uncertainty_db", 1.0)


def _snail_ratio(config: dict) -> float:
    r = _number(config, "r", 0.07)
    if not 0.0 < r < 1.0 / 3.0:
        raise ConfigError(f"'r' must be in (0, 1/3) for a single-valued SNAIL, got {r}")
    return r


def _validate_keys(config: dict, allowed: set, context: str) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _write_csv(path: Path, header_cols, rows, config: dict) -> None:
    lines = [
        f"# schema={SCHEMA_VERSION}",
        f"# config_sha256={_config_hash(config)}",
        ",".join(header_cols),
    ]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_meta(out_dir: Path, command: str, config: dict, seed, extra=None) -> None:
    meta = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "config_sha256": _config_hash(config),
        "master_seed": seed,
        "git_revision": _git_revision(),
    }
    if extra:
        meta.update(extra)
    _write_json(out_dir / "meta.json", meta)


def _chain_config(config: dict, profile: str, seed) -> circuit.ChainConfig:
    block = dict(config.get("chain", {}))
    _validate_keys(block, CHAIN_KEYS, "chain")
    block.setdefault("n_cells", PROFILES[profile]["n_cells"])
    block["r"] = _snail_ratio(block)
    if seed is not None:
        block["rng_seed"] = seed
    try:
        return circuit.ChainConfig(**block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid chain block: {err}") from err


# --- commands ---------------------------------------------------------------


def cmd_coeffs(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["coeffs"], "coeffs")
    r = _snail_ratio(config)
    flux_min = _number(config, "flux_min", -2.0)
    flux_max = _number(config, "flux_max", 2.0)
    n_points = _number(config, "n_points", 401, int)
    if n_points < 1 or flux_min > flux_max:
        raise ConfigError(f"empty flux grid: [{flux_min}, {flux_max}] x {n_points}")
    flux = np.linspace(flux_min, flux_max, n_points)
    sweep = snail.coefficients_vs_flux(r, 1e-6, flux)  # coefficients are i_c independent
    rows = [
        (float(f), float(a), float(b), float(g))
        for f, a, b, g in zip(flux, sweep["alpha_tilde"], sweep["beta"], sweep["gamma"])
    ]
    _write_csv(out_dir / "result.csv", ("flux_phi0", "alpha_tilde", "beta", "gamma"), rows, config)
    _write_meta(out_dir, "coeffs", config, seed)


def _drive_pair(config: dict, profile: str):
    block = dict(config.get("drive", {}))
    _validate_keys(block, DRIVE_KEYS, "drive")
    kw = dict(
        pump_current=_number(block, "pump_current", 0.157e-6),
        signal_current=_number(block, "signal_current", 0.0011e-6),
        delta_bins=_number(block, "delta_bins", 2, int),
        window=_number(block, "window", 60e-9),
        settle_time=_number(block, "settle_time", 10e-9),
        dt=_number(block, "dt", None) if "dt" in block else None,
    )
    f_pump = _number(block, "f_pump", 7.705e9)
    try:  # the builders resolve the drive grid, which validates dt and window
        return circuit.three_wave_drive(f_pump, **kw), circuit.four_wave_drive(f_pump, **kw)
    except ValueError as err:
        raise ConfigError(f"invalid drive block: {err}") from err


def cmd_flux_sweep(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["flux-sweep"], "flux-sweep")
    chain_cfg = _chain_config(config, profile, seed)
    drive3, drive4 = _drive_pair(config, profile)
    flux_min = _number(config, "flux_min", 0.35)
    flux_max = _number(config, "flux_max", 0.75)
    n_points = _number(config, "n_points", PROFILES[profile]["flux_points"], int)
    if n_points < 1 or flux_min > flux_max:
        raise ConfigError(f"empty flux grid: [{flux_min}, {flux_max}] x {n_points}")
    flux = np.linspace(flux_min, flux_max, n_points)
    print(f"flux-sweep: {n_points} points, n_cells={chain_cfg.n_cells}", file=sys.stderr)
    result = circuit.flux_sweep_idler(chain_cfg, drive3, drive4, flux)
    rows = [
        (float(f), float(p3), float(p4))
        for f, p3, p4 in zip(result["flux"], result["idler_3wm_dbm"], result["idler_4wm_dbm"])
    ]
    _write_csv(
        out_dir / "result.csv",
        ("flux_phi0", "idler_3wm_dbm", "idler_4wm_dbm"),
        rows,
        config,
    )

    def nearest_row(target):
        return int(np.argmin(np.abs(flux - target))) if n_points else None

    _write_meta(
        out_dir,
        "flux-sweep",
        config,
        seed,
        extra={
            "phi1_phi0": 0.59,
            "phi2_phi0": 0.45,
            "phi1_row": nearest_row(0.59),
            "phi2_row": nearest_row(0.45),
            "f_idler_3wm": result["f_idler_3wm"],
            "f_idler_4wm": result["f_idler_4wm"],
            "n_cells": chain_cfg.n_cells,
        },
    )


def cmd_gain_phase(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["gain-phase"], "gain-phase")
    chain_cfg = _chain_config(config, profile, seed)
    flux = _number(config, "flux", 0.59)
    f_pump = _number(config, "pump_frequency", 7.705e9)
    pump_current = _number(config, "pump_current", 0.157e-6)
    signal_current = _number(config, "signal_current", 0.0011e-6)
    n_phases = _number(config, "n_phases", 9, int)
    window = _number(config, "window", 60e-9)
    settle = _number(config, "settle_time", 10e-9)
    if n_phases < 1:
        raise ConfigError("n_phases must be >= 1")
    if not f_pump > 0.0:
        raise ConfigError(f"'pump_frequency' must be positive, got {f_pump}")
    phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
    print(f"gain-phase: {n_phases} phases, n_cells={chain_cfg.n_cells}", file=sys.stderr)
    result = circuit.degenerate_gain_vs_phase(
        chain_cfg,
        flux,
        pump=circuit.Tone(f_pump, pump_current),
        signal=circuit.Tone(f_pump / 2.0, signal_current),
        phase_grid=phases,
        window=window,
        settle_time=settle,
    )
    rows = [(float(p), float(g)) for p, g in zip(result["phase"], result["gain_db"])]
    _write_csv(out_dir / "result.csv", ("pump_phase_rad", "gain_db"), rows, config)
    _write_meta(
        out_dir,
        "gain-phase",
        config,
        seed,
        extra={"flux_phi0": flux, "f_signal": result["f_signal"], "n_cells": chain_cfg.n_cells},
    )


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _synthetic_psi(psi_true, n_add, drift, n_rep, master, idx, gain_unc) -> gaussian.CovMatrix:
    """Background-subtracted covariance of synthetic ON and OFF records for
    point ``idx``: the OFF state is vacuum plus ``n_add`` added photons, the
    ON state adds ``psi_true`` on top of a background drifted by ``drift``."""
    eye = np.eye(len(psi_true))
    off_true = (1.0 + 2.0 * n_add) * eye
    on_true = psi_true - eye + off_true * (1.0 + drift) ** 2
    on_seed, off_seed = np.random.SeedSequence(entropy=master, spawn_key=(idx,)).spawn(2)
    on = gaussian.estimate_covariance(
        gaussian.sample_gaussian(on_true, n_rep=n_rep, seed=on_seed, pump_state="ON")
    )
    off = gaussian.estimate_covariance(
        gaussian.sample_gaussian(off_true, n_rep=n_rep, seed=off_seed, pump_state="OFF")
    )
    return gaussian.subtract_background(on, off, gain_uncertainty_db=gain_unc)


def cmd_sms(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["sms"], "sms")
    gain_unc = _gain_uncertainty(config)
    if config.get("input_csv"):
        path = _input_file(config, "input_csv")
        try:
            batches = gaussian.read_quadrature_csv(path)
        except (OSError, ValueError, SnailTwpaError) as err:
            raise ConfigError(f"cannot read input CSV {path}: {err}") from err
        if set(batches) != {"ON", "OFF"}:
            raise ConfigError("input_csv must contain ON and OFF pump states")
        sigma_on = gaussian.estimate_covariance(batches["ON"])
        sigma_off = gaussian.estimate_covariance(batches["OFF"])
        psi = gaussian.subtract_background(sigma_on, sigma_off, gain_uncertainty_db=gain_unc)
        s_x, s_p = gaussian.squeezing_db(psi)
        payload = {
            "mode": "from_file",
            "s_x_db": s_x,
            "s_p_db": s_p,
            "covariance": json.loads(psi.to_json()),
        }
        _write_json(out_dir / "result.json", payload)
        _write_meta(out_dir, "sms", config, seed)
        return

    s_db = _number(config, "target_s_db", 0.0)
    theta = _number(config, "target_theta", 0.0)
    n_add = _number(config, "added_noise_photons", 1.5)
    n_rep = _number(config, "n_rep", 1_000_000, int)
    if n_rep < 2:
        raise ConfigError(f"'n_rep' must be >= 2 for a covariance estimate, got {n_rep}")
    drift = _number(config, "gain_drift", 0.0)
    phases = _numbers(config, "phases", [0.0])
    master = seed if seed is not None else _number(config, "seed", 0, int)

    squeeze = 10.0 ** (s_db / 10.0)
    results = []
    for idx, phase in enumerate(phases):
        rot = _rotation(theta + phase)
        psi_true = rot @ np.diag([squeeze, 1.0 / squeeze]) @ rot.T
        psi = _synthetic_psi(psi_true, n_add, drift, n_rep, master, idx, gain_unc)
        s_x, s_p = gaussian.squeezing_db(psi)
        err_x = 10.0 / math.log(10.0) * psi.uncertainty[0, 0] / psi.entries[0, 0]
        err_p = 10.0 / math.log(10.0) * psi.uncertainty[1, 1] / psi.entries[1, 1]
        results.append(
            {
                "phase": phase,
                "s_x_db": s_x,
                "s_p_db": s_p,
                "stat_err_x_db": err_x,
                "stat_err_p_db": err_p,
                "covariance": json.loads(psi.to_json()),
            }
        )
        print(f"sms phase {idx + 1}/{len(phases)}", file=sys.stderr)
    payload = {
        "mode": "synthetic",
        "target_s_db": s_db,
        "n_rep": n_rep,
        "added_noise_photons": n_add,
        "gain_drift": drift,
        "results": results,
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "sms", config, master)


def cmd_tms(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["tms"], "tms")
    r_values = _numbers(config, "r_values", [0.0, 0.25, 0.5, 0.75, 1.0])
    n_add = _number(config, "added_noise_photons", 1.5)
    n_thermal = _number(config, "thermal_photons", 0.0)
    n_rep = _number(config, "n_rep", 1_000_000, int)
    if n_rep < 2:
        raise ConfigError(f"'n_rep' must be >= 2 for a covariance estimate, got {n_rep}")
    drift = _number(config, "gain_drift", 0.0)
    gain_unc = _gain_uncertainty(config)
    master = seed if seed is not None else _number(config, "seed", 0, int)

    for r in r_values:
        try:
            math.cosh(2 * r)
        except OverflowError:
            raise ConfigError(f"'r_values' entry {r} is too large: cosh(2r) overflows") from None

    results = []
    for idx, r in enumerate(r_values):
        a_block = (math.cosh(2 * r) + 2.0 * n_thermal) * np.eye(2)
        c_block = math.sinh(2 * r) * np.diag([1.0, -1.0])
        psi_true = np.block([[a_block, c_block], [c_block.T, a_block]])
        psi = _synthetic_psi(psi_true, n_add, drift, n_rep, master, idx, gain_unc)
        e_n, nu = gaussian.logarithmic_negativity(psi)
        nu_true = gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=psi_true))[1]
        entry = {
            "r": r,
            "e_n": e_n,
            "nu_minus": nu,
            "e_n_true": max(-math.log(nu_true), 0.0) + 0.0,  # +0.0 normalizes -0.0
            "covariance": json.loads(psi.to_json()),
        }
        if psi.systematic is not None:
            lo, hi = psi.systematic
            entry["e_n_sys_range"] = [_safe_en(lo), _safe_en(hi)]
        results.append(entry)
        print(f"tms point {idx + 1}/{len(r_values)}", file=sys.stderr)
    payload = {
        "mode": "synthetic",
        "n_rep": n_rep,
        "added_noise_photons": n_add,
        "thermal_photons": n_thermal,
        "gain_drift": drift,
        "results": results,
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "tms", config, master)


def _safe_en(sigma: np.ndarray):
    """E_N of ``sigma`` by the closed form, or None when it is unphysical."""
    try:
        return gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=sigma))[0]
    except SnailTwpaError:
        return None


def cmd_sntj_fit(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["sntj-fit"], "sntj-fit")
    for key in ("csv", "frequency", "bandwidth"):
        if key not in config:
            raise ConfigError(f"sntj-fit requires '{key}'")
    frequency = _number(config, "frequency", None)
    bandwidth = _number(config, "bandwidth", None)
    max_iter = _number(config, "max_iter", 500, int)
    for key, value in (("frequency", frequency), ("bandwidth", bandwidth), ("max_iter", max_iter)):
        if not value > 0:
            raise ConfigError(f"'{key}' must be positive, got {value}")
    guess = config.get("initial_guess")
    if guess is not None:
        if not isinstance(guess, dict):
            raise ConfigError(f"'initial_guess' must be an object, got {guess!r}")
        _validate_keys(guess, GUESS_KEYS, "initial_guess")
        guess = (
            _gain_from_db(guess, "g_sys_db"),
            _number(guess, "t_sys", None),
            _number(guess, "t_electron", None),
        )
    path = _input_file(config, "csv")
    try:
        data = np.loadtxt(path, delimiter=",", comments="#")
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read input CSV {path}: {err}") from err
    if data.ndim != 2 or data.shape[1] < 2:
        raise ConfigError(f"input CSV {path} must have columns (v_bias, psd_watts)")
    if not np.isfinite(data).all():
        raise ConfigError(f"input CSV {path} holds a non-finite value")
    try:
        result = calibration.fit_sntj(
            data[:, 0],
            data[:, 1],
            frequency=frequency,
            bandwidth=bandwidth,
            initial_guess=guess,
            max_iter=max_iter,
        )
    except ValueError as err:  # too few points or a non-positive initial guess
        raise ConfigError(f"sntj-fit: {err}") from err
    errors = result.parameter_errors
    payload = {
        "g_sys_db": result.g_sys_db,
        "g_sys_linear": result.g_sys,
        "t_sys_kelvin": result.t_sys,
        "t_electron_kelvin": result.t_electron,
        "errors": {
            "g_sys_linear": float(errors[0]),
            "t_sys_kelvin": float(errors[1]),
            "t_electron_kelvin": float(errors[2]),
        },
        "residual_norm_watts": result.residual_norm,
        "n_iterations": result.n_iter,
        "n_points": int(data.shape[0]),
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "sntj-fit", config, seed)


def cmd_normalize(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["normalize"], "normalize")
    if "g_sys_db" not in config or "f_acq" not in config:
        raise ConfigError("normalize requires 'g_sys_db' and 'f_acq'")
    f_acq = _number(config, "f_acq", None)
    g_sys_db = _number(config, "g_sys_db", None)
    if "eta" in config:
        eta = _number(config, "eta", None)
    else:
        block = dict(config.get("chain", {}))
        _validate_keys(block, CHAIN_KEYS, "chain")
        flux = _number(config, "flux", 0.0)
        params = snail.SnailParams.from_flux(
            _snail_ratio(block), _number(block, "i_c_nominal", 2.19e-6), flux
        )
        inductance = snail.coefficients(params).inductance
        eta = calibration.insertion_loss_from_tan_delta(
            _number(block, "tan_delta", 2.1e-3),
            _number(block, "n_cells", 700, int),
            f_acq,
            inductance,
            _number(block, "c_g", 250e-15),
            _number(block, "c_j", 50e-15),
        )
    try:
        params = calibration.NormalizationParams(
            eta=eta,
            g_sys=_gain_from_db(config, "g_sys_db"),
            f_acq=f_acq,
            z0=_number(config, "z0", 50.0),
            t_int=_number(config, "t_int", 10e-6),
            epsilon=_number(config, "epsilon", 0.98),
            loss_correction_db=_number(config, "loss_correction_db", 1.0),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    ups = calibration.normalization_factor(params)
    payload = {
        "upsilon": ups,
        "eta_linear": eta,
        "eta_db": 10.0 * math.log10(eta),
        "g_sys_db_input": g_sys_db,
        "g_sys_db_corrected": g_sys_db + params.loss_correction_db,
        "f_acq": f_acq,
        "t_int": params.t_int,
        "epsilon": params.epsilon,
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "normalize", config, seed)


def cmd_attenuation(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["attenuation"], "attenuation")
    for key in ("s21_off_db", "eta_db", "g_sys_db"):
        if key not in config:
            raise ConfigError(f"attenuation requires '{key}'")
    ledger = calibration.input_attenuation(
        _number(config, "s21_off_db", None),
        _number(config, "eta_db", None),
        _number(config, "g_sys_db", None),
    )
    payload = {
        "a_in_db": ledger.a_in,
        "s21_off_db": ledger.s21_off,
        "eta_db": ledger.eta_db,
        "g_sys_db": ledger.g_sys_db,
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "attenuation", config, seed)


COMMANDS = {
    "coeffs": cmd_coeffs,
    "flux-sweep": cmd_flux_sweep,
    "gain-phase": cmd_gain_phase,
    "sms": cmd_sms,
    "tms": cmd_tms,
    "sntj-fit": cmd_sntj_fit,
    "normalize": cmd_normalize,
    "attenuation": cmd_attenuation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snailtwpa", description="SNAIL TWPA simulation and analysis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=str, default="out", help="output directory")
        p.add_argument("--profile", choices=sorted(PROFILES), default="ci")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                config = json.loads(path.read_text())
            except json.JSONDecodeError as err:
                raise ConfigError(f"config is not valid JSON: {err}") from err
            if not isinstance(config, dict):
                raise ConfigError("config must be a JSON object")
        else:
            config = {}
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](config, out_dir, args.profile, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SnailTwpaError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
