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


def _number(config: dict, key: str, default, kind=float):
    """``config[key]`` (or ``default``) as a finite ``kind``; a value that is
    not one is a configuration error naming the key."""
    value = config.get(key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{key}' must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"'{key}' must be finite, got {value!r}")
    return number


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
    if seed is not None:
        block["rng_seed"] = seed
    try:
        return circuit.ChainConfig(**block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid chain block: {err}") from err


# --- commands ---------------------------------------------------------------


def cmd_coeffs(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["coeffs"], "coeffs")
    r = _number(config, "r", 0.07)
    if not 0.0 < r < 1.0 / 3.0:
        raise ConfigError(f"'r' must be in (0, 1/3) for a single-valued SNAIL, got {r}")
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
        pump_current=float(block.get("pump_current", 0.157e-6)),
        signal_current=float(block.get("signal_current", 0.0011e-6)),
        delta_bins=int(block.get("delta_bins", 2)),
        window=float(block.get("window", 60e-9)),
        settle_time=float(block.get("settle_time", 10e-9)),
        dt=float(block["dt"]) if "dt" in block else None,
    )
    f_pump = float(block.get("f_pump", 7.705e9))
    try:  # the builders resolve the drive grid, which validates dt and window
        return circuit.three_wave_drive(f_pump, **kw), circuit.four_wave_drive(f_pump, **kw)
    except ValueError as err:
        raise ConfigError(f"invalid drive block: {err}") from err


def cmd_flux_sweep(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["flux-sweep"], "flux-sweep")
    chain_cfg = _chain_config(config, profile, seed)
    drive3, drive4 = _drive_pair(config, profile)
    flux_min = float(config.get("flux_min", 0.35))
    flux_max = float(config.get("flux_max", 0.75))
    n_points = int(config.get("n_points", PROFILES[profile]["flux_points"]))
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
    flux = float(config.get("flux", 0.59))
    f_pump = _number(config, "pump_frequency", 7.705e9)
    pump_current = float(config.get("pump_current", 0.157e-6))
    signal_current = float(config.get("signal_current", 0.0011e-6))
    n_phases = int(config.get("n_phases", 9))
    window = float(config.get("window", 60e-9))
    settle = float(config.get("settle_time", 10e-9))
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


def cmd_sms(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["sms"], "sms")
    gain_unc = config.get("gain_uncertainty_db", 1.0)
    if config.get("input_csv"):
        batches = gaussian.read_quadrature_csv(config["input_csv"])
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

    s_db = float(config.get("target_s_db", 0.0))
    theta = float(config.get("target_theta", 0.0))
    n_add = float(config.get("added_noise_photons", 1.5))
    n_rep = _number(config, "n_rep", 1_000_000, int)
    if n_rep < 2:
        raise ConfigError(f"'n_rep' must be >= 2 for a covariance estimate, got {n_rep}")
    drift = float(config.get("gain_drift", 0.0))
    phases = config.get("phases", [0.0])
    master = seed if seed is not None else int(config.get("seed", 0))

    squeeze = 10.0 ** (s_db / 10.0)
    off_true = (1.0 + 2.0 * n_add) * np.eye(2)
    results = []
    for idx, phase in enumerate(phases):
        rot = _rotation(theta + float(phase))
        psi_true = rot @ np.diag([squeeze, 1.0 / squeeze]) @ rot.T
        on_true = psi_true - np.eye(2) + off_true * (1.0 + drift) ** 2
        seeds = np.random.SeedSequence(entropy=master, spawn_key=(idx,)).spawn(2)
        on = gaussian.estimate_covariance(
            gaussian.sample_gaussian(on_true, n_rep=n_rep, seed=seeds[0], pump_state="ON")
        )
        off = gaussian.estimate_covariance(
            gaussian.sample_gaussian(off_true, n_rep=n_rep, seed=seeds[1], pump_state="OFF")
        )
        psi = gaussian.subtract_background(on, off, gain_uncertainty_db=gain_unc)
        s_x, s_p = gaussian.squeezing_db(psi)
        err_x = 10.0 / math.log(10.0) * psi.uncertainty[0, 0] / psi.entries[0, 0]
        err_p = 10.0 / math.log(10.0) * psi.uncertainty[1, 1] / psi.entries[1, 1]
        results.append(
            {
                "phase": float(phase),
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
    r_values = config.get("r_values", [0.0, 0.25, 0.5, 0.75, 1.0])
    n_add = float(config.get("added_noise_photons", 1.5))
    n_thermal = float(config.get("thermal_photons", 0.0))
    n_rep = _number(config, "n_rep", 1_000_000, int)
    if n_rep < 2:
        raise ConfigError(f"'n_rep' must be >= 2 for a covariance estimate, got {n_rep}")
    drift = float(config.get("gain_drift", 0.0))
    gain_unc = config.get("gain_uncertainty_db", 1.0)
    master = seed if seed is not None else int(config.get("seed", 0))

    off_true = (1.0 + 2.0 * n_add) * np.eye(4)
    results = []
    for idx, r in enumerate(r_values):
        r = float(r)
        a_block = (math.cosh(2 * r) + 2.0 * n_thermal) * np.eye(2)
        c_block = math.sinh(2 * r) * np.diag([1.0, -1.0])
        psi_true = np.block([[a_block, c_block], [c_block.T, a_block]])
        on_true = psi_true - np.eye(4) + off_true * (1.0 + drift) ** 2
        seeds = np.random.SeedSequence(entropy=master, spawn_key=(idx,)).spawn(2)
        on = gaussian.estimate_covariance(
            gaussian.sample_gaussian(on_true, n_rep=n_rep, seed=seeds[0], pump_state="ON")
        )
        off = gaussian.estimate_covariance(
            gaussian.sample_gaussian(off_true, n_rep=n_rep, seed=seeds[1], pump_state="OFF")
        )
        psi = gaussian.subtract_background(on, off, gain_uncertainty_db=gain_unc)
        e_n, nu = gaussian.logarithmic_negativity(psi)
        entry = {
            "r": r,
            "e_n": e_n,
            "nu_minus": nu,
            "e_n_true": max(-math.log(_nu_closed_form(psi_true)), 0.0),
            "covariance": json.loads(psi.to_json()),
        }
        if psi.systematic is not None:
            lo, hi = psi.systematic
            entry["e_n_sys_range"] = [
                _safe_en(lo),
                _safe_en(hi),
            ]
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


def _nu_closed_form(sigma: np.ndarray) -> float:
    cov = gaussian.CovMatrix(entries=sigma)
    return gaussian.logarithmic_negativity(cov)[1]


def _safe_en(sigma: np.ndarray):
    try:
        return gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=sigma))[0]
    except SnailTwpaError:
        return None


def cmd_sntj_fit(config: dict, out_dir: Path, profile: str, seed) -> None:
    _validate_keys(config, COMMAND_SCHEMAS["sntj-fit"], "sntj-fit")
    for key in ("csv", "frequency", "bandwidth"):
        if key not in config:
            raise ConfigError(f"sntj-fit requires '{key}'")
    path = Path(config["csv"])
    if not path.exists():
        raise ConfigError(f"input CSV not found: {path}")
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] < 2:
        raise ConfigError("input CSV must have columns (v_bias, psd_watts)")
    guess = config.get("initial_guess")
    if guess is not None:
        guess = (
            10.0 ** (float(guess["g_sys_db"]) / 10.0),
            float(guess["t_sys"]),
            float(guess["t_electron"]),
        )
    result = calibration.fit_sntj(
        data[:, 0],
        data[:, 1],
        frequency=float(config["frequency"]),
        bandwidth=float(config["bandwidth"]),
        initial_guess=guess,
        max_iter=int(config.get("max_iter", 500)),
    )
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
    f_acq = float(config["f_acq"])
    if "eta" in config:
        eta = float(config["eta"])
    else:
        block = dict(config.get("chain", {}))
        _validate_keys(block, CHAIN_KEYS, "chain")
        flux = float(config.get("flux", 0.0))
        params = snail.SnailParams.from_flux(
            float(block.get("r", 0.07)), float(block.get("i_c_nominal", 2.19e-6)), flux
        )
        inductance = snail.coefficients(params).inductance
        eta = calibration.insertion_loss_from_tan_delta(
            float(block.get("tan_delta", 2.1e-3)),
            int(block.get("n_cells", 700)),
            f_acq,
            inductance,
            float(block.get("c_g", 250e-15)),
            float(block.get("c_j", 50e-15)),
        )
    try:
        params = calibration.NormalizationParams(
            eta=eta,
            g_sys=10.0 ** (float(config["g_sys_db"]) / 10.0),
            f_acq=f_acq,
            z0=float(config.get("z0", 50.0)),
            t_int=float(config.get("t_int", 10e-6)),
            epsilon=float(config.get("epsilon", 0.98)),
            loss_correction_db=float(config.get("loss_correction_db", 1.0)),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    ups = calibration.normalization_factor(params)
    payload = {
        "upsilon": ups,
        "eta_linear": eta,
        "eta_db": 10.0 * math.log10(eta),
        "g_sys_db_input": float(config["g_sys_db"]),
        "g_sys_db_corrected": float(config["g_sys_db"]) + params.loss_correction_db,
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
        float(config["s21_off_db"]), float(config["eta_db"]), float(config["g_sys_db"])
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
