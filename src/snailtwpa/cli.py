"""Batch command-line front end.

Subcommands: coeffs | flux-sweep | gain-phase | sms | tms | sntj-fit |
normalize | attenuation.  Every command reads a JSON run configuration
(``--config``), writes its primary output (``result.csv`` or
``result.json``) plus a ``meta.json`` sidecar into ``--out``, and is pure
with respect to (config, seed): re-running reproduces byte-identical
files.  Exit codes: 0 ok, 1 runtime/solver error, 2 configuration error.
The contract holds for any JSON object as config: :func:`parse` reads it
by the command's table in ``TABLES`` and turns every input the command
cannot run on into a configuration error before anything is solved, and a
result that would hold a NaN or an infinity is a runtime error, with no
``result.json`` written.

Progress goes to stderr so the primary outputs stay machine-clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import calibration, circuit, gaussian, snail
from .errors import ConfigError, SnailTwpaError

SCHEMA_VERSION = "snailtwpa/v1"

PROFILES = {
    "ci": {"n_cells": 100, "n_points": 9},
    "full": {"n_cells": 700, "n_points": 17},
}


class Nullable(float):
    """A number default that ``null`` in the config turns into None."""


PROFILE = object()  # marker: the integer default comes from the --profile

# key groups whose defaults are the library's own
CHAIN = {f.name: f.default for f in dataclasses.fields(circuit.ChainConfig) if f.name != "flux_polarity"}
SIM_CHAIN = {**CHAIN, "n_cells": PROFILE}  # the simulating commands size the chain by profile
DRIVE = {
    name: param.default
    for name, param in inspect.signature(circuit.three_wave_drive).parameters.items()
    if name != "pump_phase"
} | {"f_pump": 7.705e9}
NORMALIZATION = {
    f.name: f.default
    for f in dataclasses.fields(calibration.NormalizationParams)
    if f.default is not dataclasses.MISSING
}
SYNTHETIC = {  # the keys sms and tms share
    "added_noise_photons": 1.5,
    "n_rep": 1_000_000,
    "seed": 0,
    "gain_drift": 0.0,
    "gain_uncertainty_db": Nullable(1.0),
}

# One table per command: each accepted key maps to its default, and the
# type of the default gives the key's kind: float (a finite number), int
# (an integer), list (a list of finite numbers), dict (a block with its own
# table; left out or null, it takes its defaults, or is None when it has a
# required key) or str (an input file; "" or null means none).  A type in
# place of a default marks a required key of that kind; None is a number
# that may be left out or null; PROFILE takes the default from the profile.
TABLES = {
    "coeffs": {"r": CHAIN["r"], "flux_min": -2.0, "flux_max": 2.0, "n_points": 401},
    "flux-sweep": {"chain": SIM_CHAIN, "drive": DRIVE, "flux_min": 0.35, "flux_max": 0.75, "n_points": PROFILE},
    "gain-phase": {
        "chain": SIM_CHAIN,
        "flux": 0.59,
        "pump_frequency": DRIVE["f_pump"],
        "n_phases": 9,
        **{key: DRIVE[key] for key in ("pump_current", "signal_current", "window", "settle_time")},
    },
    "sms": {**SYNTHETIC, "target_s_db": 0.0, "target_theta": 0.0, "phases": [0.0], "input_csv": ""},
    "tms": {**SYNTHETIC, "r_values": [0.0, 0.25, 0.5, 0.75, 1.0], "thermal_photons": 0.0},
    "sntj-fit": {
        "csv": str,
        "frequency": float,
        "bandwidth": float,
        "initial_guess": {"g_sys_db": float, "t_sys": float, "t_electron": float},
        "max_iter": 500,
    },
    "normalize": {**NORMALIZATION, "g_sys_db": float, "f_acq": float, "eta": None, "chain": CHAIN, "flux": 0.0},
    "attenuation": {"s21_off_db": float, "eta_db": float, "g_sys_db": float},
}

# Largest accepted two-mode squeezing parameter of ``tms``: a power gain
# cosh(r)^2 of 28.7 dB, the top of what travelling-wave amplifiers reach;
# beyond it float64 can no longer resolve nu_minus = exp(-2r) of the state.
R_MAX = 4.0


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


def _finite(value, name: str) -> float:
    """``value`` as a finite float; anything else is a configuration error
    naming ``name``."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _gain_from_db(db: float, name: str) -> float:
    """``db``, a power gain in dB, as a linear factor."""
    try:
        gain = 10.0 ** (db / 10.0)
    except OverflowError:
        gain = math.inf
    if not 0.0 < gain < math.inf:
        raise ConfigError(f"{name} is out of range, got {db} dB")
    return gain


def _snail_ratio(r: float) -> None:
    if not 0.0 < r < 1.0 / 3.0:
        raise ConfigError(f"'r' must be in (0, 1/3) for a single-valued SNAIL, got {r}")


def _value(default, value, name: str, profile: str):
    """``value`` read as the kind of ``default`` (see TABLES)."""
    kind = default if isinstance(default, type) else type(default)
    if kind is dict:
        if value is None and any(isinstance(entry, type) for entry in default.values()):
            return None
        return _block(default, {} if value is None else value, name, profile)
    if kind is str:
        if value in (None, "") and default == "":
            return None
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a file path, got {value!r}")
        return Path(value)
    if value is None and (default is None or kind is Nullable):
        return None
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
        return [_finite(entry, f"{name} entry") for entry in value]
    number = _finite(value, name)
    if kind is not int:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value if isinstance(value, int) else int(number)


def _block(table: dict, block, name: str, profile: str) -> dict:
    """``block`` read by ``table``: no unknown key, every required key
    given, every value of its kind."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    out = {}
    for key, default in table.items():
        label = f"'{key}'"
        if default is PROFILE:
            default = PROFILES[profile][key]
        if key in block:
            value = block[key]
        elif isinstance(default, type):
            raise ConfigError(f"{name} requires {label}")
        else:
            value = None if isinstance(default, dict) else default
        out[key] = _value(default, value, label, profile)
    return out


def _build(context: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with any input it rejects raised as a
    configuration error that starts with ``context``."""
    try:
        return make(*args, **kwargs)
    except (OSError, ValueError, TypeError, ArithmeticError, SnailTwpaError) as err:
        raise ConfigError(f"{context}: {err}") from err


def _load_psd(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("must have columns (v_bias, psd_watts)")
    if not np.isfinite(data).all():
        raise ValueError("holds a non-finite value")
    return data


def _insertion_loss(chain: circuit.ChainConfig, flux: float, f_acq: float) -> float:
    """The chain's insertion loss at ``f_acq`` from its loss tangent."""
    inductance = snail.coefficients(snail.SnailParams.from_flux(chain.r, chain.i_c_nominal, flux)).inductance
    return calibration.insertion_loss_from_tan_delta(
        chain.tan_delta, chain.n_cells, f_acq, inductance, chain.c_g, chain.c_j
    )


def parse(command: str, config: dict, profile: str = "ci", seed=None) -> SimpleNamespace:
    """The inputs of ``command``, read from ``config`` by its table in
    TABLES, checked, and built into the library's objects: the chain block
    into a ChainConfig, the drive block into the (3WM, 4WM) drive pair,
    input files into their contents and the normalization keys into
    NormalizationParams and its factor ``upsilon``.  ``seed`` (--seed),
    when given, replaces the chain's ``rng_seed`` and the ``seed`` of sms
    and tms.

    Raises ConfigError, naming the key, on any input the command cannot
    run on; it solves nothing."""
    p = SimpleNamespace(**_block(TABLES[command], config, command, profile))
    if seed is not None and hasattr(p, "seed"):
        p.seed = seed
    for key, least in (("n_points", 1), ("n_phases", 1), ("n_rep", 2), ("seed", 0), ("max_iter", 1)):
        if getattr(p, key, least) < least:
            raise ConfigError(f"'{key}' must be >= {least}, got {getattr(p, key)}")
    for key in ("pump_frequency", "frequency", "bandwidth"):
        if not getattr(p, key, 1.0) > 0.0:
            raise ConfigError(f"'{key}' must be positive, got {getattr(p, key)}")
    drive = getattr(p, "drive", None) or vars(p)  # the flux-sweep drive block, or gain-phase's own keys
    for key in ("pump_current", "signal_current"):
        if drive.get(key, 0.0) < 0.0:
            raise ConfigError(f"'{key}' must be >= 0, got {drive[key]}")
    if getattr(p, "gain_uncertainty_db", None) is not None:  # the library takes 10^(x/10)
        _gain_from_db(p.gain_uncertainty_db, "'gain_uncertainty_db'")
    if getattr(p, "flux_min", 0.0) > getattr(p, "flux_max", 0.0):
        raise ConfigError(f"empty flux grid: 'flux_min' {p.flux_min} > 'flux_max' {p.flux_max}")
    for key in ("flux", "flux_min", "flux_max"):  # the reduced flux 2*pi*flux must be finite
        if hasattr(p, key):
            _build(f"invalid '{key}'", snail.SnailParams.from_flux, CHAIN["r"], CHAIN["i_c_nominal"], getattr(p, key))
    if hasattr(p, "r"):
        _snail_ratio(p.r)
    if hasattr(p, "chain"):
        _snail_ratio(p.chain["r"])
        if seed is not None:
            p.chain["rng_seed"] = seed
        p.chain = _build("invalid 'chain' block", circuit.ChainConfig, **p.chain)

    if command == "flux-sweep":
        makers = (circuit.three_wave_drive, circuit.four_wave_drive)
        p.drive = tuple(_build("invalid 'drive' block", make, **p.drive) for make in makers)
    elif command == "gain-phase":
        _build("invalid drive", circuit.three_wave_drive, p.pump_frequency, p.pump_current,
               p.signal_current, delta_bins=0, window=p.window, settle_time=p.settle_time)
    elif command == "sms":
        p.squeeze = _gain_from_db(p.target_s_db, "'target_s_db'")
        if p.input_csv is not None:
            p.input_csv = _build(f"cannot read input CSV {p.input_csv}", gaussian.read_quadrature_csv, p.input_csv)
            if set(p.input_csv) != {"ON", "OFF"}:
                raise ConfigError("input_csv must contain ON and OFF pump states")
    elif command == "tms":
        for r in p.r_values:
            if abs(r) > R_MAX:
                raise ConfigError(f"'r_values' entry {r} is beyond the physical limit |r| <= {R_MAX}")
    elif command == "sntj-fit":
        if p.initial_guess is not None:
            guess = p.initial_guess
            p.initial_guess = (_gain_from_db(guess["g_sys_db"], "'g_sys_db'"), guess["t_sys"], guess["t_electron"])
        p.csv = _build(f"cannot read input CSV {p.csv}", _load_psd, p.csv)
    elif command == "normalize":
        if p.eta is None:
            p.eta = _build("cannot compute 'eta' from the chain", _insertion_loss, p.chain, p.flux, p.f_acq)
        g_sys = _gain_from_db(p.g_sys_db, "'g_sys_db'")
        fields = {key: getattr(p, key) for key in NORMALIZATION}
        params = _build("invalid normalization", calibration.NormalizationParams, p.eta, g_sys, p.f_acq, **fields)
        p.upsilon = _build("invalid normalization", calibration.normalization_factor, params)
    return p


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
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:  # a NaN or an infinity, which JSON cannot hold
        raise SnailTwpaError(f"{path.name} not written: {err}") from err
    path.write_text(text + "\n")


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


# --- commands ---------------------------------------------------------------


def cmd_coeffs(config: dict, out_dir: Path, profile: str, seed) -> None:
    p = parse("coeffs", config, profile, seed)
    flux = np.linspace(p.flux_min, p.flux_max, p.n_points)
    sweep = snail.coefficients_vs_flux(p.r, 1e-6, flux)  # coefficients are i_c independent
    rows = [
        (float(f), float(a), float(b), float(g))
        for f, a, b, g in zip(flux, sweep["alpha_tilde"], sweep["beta"], sweep["gamma"])
    ]
    _write_csv(out_dir / "result.csv", ("flux_phi0", "alpha_tilde", "beta", "gamma"), rows, config)
    _write_meta(out_dir, "coeffs", config, seed)


def cmd_flux_sweep(config: dict, out_dir: Path, profile: str, seed) -> None:
    p = parse("flux-sweep", config, profile, seed)
    flux = np.linspace(p.flux_min, p.flux_max, p.n_points)
    print(f"flux-sweep: {p.n_points} points, n_cells={p.chain.n_cells}", file=sys.stderr)
    result = circuit.flux_sweep_idler(p.chain, *p.drive, flux)
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
        return int(np.argmin(np.abs(flux - target)))

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
            "n_cells": p.chain.n_cells,
        },
    )


def cmd_gain_phase(config: dict, out_dir: Path, profile: str, seed) -> None:
    p = parse("gain-phase", config, profile, seed)
    phases = np.linspace(0.0, 2.0 * np.pi, p.n_phases, endpoint=False)
    print(f"gain-phase: {p.n_phases} phases, n_cells={p.chain.n_cells}", file=sys.stderr)
    result = circuit.degenerate_gain_vs_phase(
        p.chain,
        p.flux,
        pump=circuit.Tone(p.pump_frequency, p.pump_current),
        signal=circuit.Tone(p.pump_frequency / 2.0, p.signal_current),
        phase_grid=phases,
        window=p.window,
        settle_time=p.settle_time,
    )
    rows = [(float(ph), float(g)) for ph, g in zip(result["phase"], result["gain_db"])]
    _write_csv(out_dir / "result.csv", ("pump_phase_rad", "gain_db"), rows, config)
    _write_meta(
        out_dir,
        "gain-phase",
        config,
        seed,
        extra={"flux_phi0": p.flux, "f_signal": result["f_signal"], "n_cells": p.chain.n_cells},
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
    p = parse("sms", config, profile, seed)
    if p.input_csv is not None:
        sigma_on = gaussian.estimate_covariance(p.input_csv["ON"])
        sigma_off = gaussian.estimate_covariance(p.input_csv["OFF"])
        psi = gaussian.subtract_background(sigma_on, sigma_off, gain_uncertainty_db=p.gain_uncertainty_db)
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

    results = []
    for idx, phase in enumerate(p.phases):
        rot = _rotation(p.target_theta + phase)
        psi_true = rot @ np.diag([p.squeeze, 1.0 / p.squeeze]) @ rot.T
        psi = _synthetic_psi(
            psi_true, p.added_noise_photons, p.gain_drift, p.n_rep, p.seed, idx, p.gain_uncertainty_db
        )
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
        print(f"sms phase {idx + 1}/{len(p.phases)}", file=sys.stderr)
    payload = {
        "mode": "synthetic",
        "target_s_db": p.target_s_db,
        "n_rep": p.n_rep,
        "added_noise_photons": p.added_noise_photons,
        "gain_drift": p.gain_drift,
        "results": results,
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "sms", config, p.seed)


def cmd_tms(config: dict, out_dir: Path, profile: str, seed) -> None:
    p = parse("tms", config, profile, seed)
    results = []
    for idx, r in enumerate(p.r_values):
        a_block = (math.cosh(2 * r) + 2.0 * p.thermal_photons) * np.eye(2)
        c_block = math.sinh(2 * r) * np.diag([1.0, -1.0])
        psi_true = np.block([[a_block, c_block], [c_block.T, a_block]])
        psi = _synthetic_psi(
            psi_true, p.added_noise_photons, p.gain_drift, p.n_rep, p.seed, idx, p.gain_uncertainty_db
        )
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
        print(f"tms point {idx + 1}/{len(p.r_values)}", file=sys.stderr)
    payload = {
        "mode": "synthetic",
        "n_rep": p.n_rep,
        "added_noise_photons": p.added_noise_photons,
        "thermal_photons": p.thermal_photons,
        "gain_drift": p.gain_drift,
        "results": results,
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "tms", config, p.seed)


def _safe_en(sigma: np.ndarray):
    """E_N of ``sigma`` by the closed form, or None when it is unphysical."""
    try:
        return gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=sigma))[0]
    except SnailTwpaError:
        return None


def cmd_sntj_fit(config: dict, out_dir: Path, profile: str, seed) -> None:
    p = parse("sntj-fit", config, profile, seed)
    try:
        result = calibration.fit_sntj(
            p.csv[:, 0],
            p.csv[:, 1],
            frequency=p.frequency,
            bandwidth=p.bandwidth,
            initial_guess=p.initial_guess,
            max_iter=p.max_iter,
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
        "n_points": int(p.csv.shape[0]),
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "sntj-fit", config, seed)


def cmd_normalize(config: dict, out_dir: Path, profile: str, seed) -> None:
    p = parse("normalize", config, profile, seed)
    payload = {
        "upsilon": p.upsilon,
        "eta_linear": p.eta,
        "eta_db": 10.0 * math.log10(p.eta),
        "g_sys_db_input": p.g_sys_db,
        "g_sys_db_corrected": p.g_sys_db + p.loss_correction_db,
        "f_acq": p.f_acq,
        "t_int": p.t_int,
        "epsilon": p.epsilon,
    }
    _write_json(out_dir / "result.json", payload)
    _write_meta(out_dir, "normalize", config, seed)


def cmd_attenuation(config: dict, out_dir: Path, profile: str, seed) -> None:
    p = parse("attenuation", config, profile, seed)
    ledger = calibration.input_attenuation(p.s21_off_db, p.eta_db, p.g_sys_db)
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
