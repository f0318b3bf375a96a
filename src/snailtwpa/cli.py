"""Batch command-line front end.

Subcommands: coeffs | flux-sweep | gain-phase | sms | tms | sntj-fit |
normalize | attenuation.  :func:`main` reads the JSON run configuration
(``--config``), builds the command's inputs with :func:`parse`, creates
``--out``, runs the command (``COMMANDS``), which computes and returns,
and writes what it returned: ``result.csv`` or ``result.json`` plus a
``meta.json`` sidecar.  A run is pure with respect to (config, seed):
re-running reproduces byte-identical files.  Exit codes: 0 ok, 1
runtime/solver error, 2 configuration error, for any JSON object as
config: :func:`parse` turns every input the command cannot run on into a
configuration error before anything is solved or written, ``--out``
included; so does an unreadable config file or an ``--out`` that cannot
be created.  A result that would hold a NaN or an infinity, or a file
that cannot be written, is a runtime error; a result that does not
serialize leaves both files unwritten.

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
from .errors import ConfigError, DegenerateBatch, SnailTwpaError

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
} | {"f_pump": 7.705e9}
NORMALIZATION = {
    name: param.default
    for name, param in inspect.signature(calibration.normalization_factor).parameters.items()
    if param.default is not param.empty
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
    "sms": {**SYNTHETIC, "target_s_db": 0.0, "phases": [0.0], "input_csv": ""},
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

# Largest accepted count of grid points, pump phases, repetitions or cells,
# and of time steps times runs of a sweep's transients: numpy sizes an array
# only while its bytes fit in np.intp, and the widest arrays a count sizes
# hold 4 float64 per entry (a chain's junction draws, a two-mode batch's
# records).  A larger count is a configuration error; a smaller one that
# memory cannot hold is a runtime error.
MAX_COUNT = np.iinfo(np.intp).max // 32

# Largest accepted squeezing parameter: of ``tms``'s two-mode states, and of
# ``sms``'s single-mode state, whose squeezing is then at most
# 20 R_MAX / ln 10 = 34.74 dB in size.  r = 4 is a power gain of 28.7 dB, the
# top of what travelling-wave amplifiers reach; beyond it float64 can no
# longer resolve nu_minus = exp(-2r) of the two-mode state.
R_MAX = 4.0


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _git_revision() -> str | None:
    """HEAD's commit, with ``+dirty`` when the package's tracked files
    differ from it; None outside a git checkout.  One git process, which
    takes no lock on the index."""
    try:
        status = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain=v2", "--branch", "--untracked-files=no", "--", "."],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = status.stdout.splitlines()
    sha = next((line.split()[2] for line in lines if line.startswith("# branch.oid ")), "(initial)")
    if status.returncode != 0 or sha == "(initial)":
        return None
    return sha + "+dirty" if any(not line.startswith("#") for line in lines) else sha


def _finite(value, name: str) -> float:
    """``value``, a JSON number, as a finite float; anything else, a JSON
    boolean or a numeric string included, is a configuration error naming
    ``name``."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):  # a bool is an int
            raise TypeError
        number = float(value)
    except (TypeError, OverflowError):
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


def parse(command: str, config: dict, profile: str = "ci", seed=None) -> SimpleNamespace:
    """The inputs of ``command``, read from ``config`` by its table in
    TABLES, checked, and built into the library's objects: the chain block
    into a ChainConfig, the drive block into the (3WM, 4WM) drive pair,
    gain-phase's drive keys into its degenerate 3WM drive, input files
    into their contents, the synthetic states of sms and tms into their
    (ON, OFF) pairs (:func:`gaussian.pump_states`) and the normalization
    keys into the factor ``upsilon`` of :func:`calibration.normalization_factor`.
    ``seed`` (--seed), when given, replaces the chain's ``rng_seed`` and the
    ``seed`` of sms and tms.

    Raises ConfigError, naming the key, on any input the command cannot
    run on; it solves nothing."""
    p = SimpleNamespace(**_block(TABLES[command], config, command, profile))
    if seed is not None and hasattr(p, "seed"):
        p.seed = seed
    for key, least in (("n_points", 1), ("n_phases", 1), ("n_rep", 2), ("seed", 0), ("max_iter", 1)):
        if getattr(p, key, least) < least:
            raise ConfigError(f"'{key}' must be >= {least}, got {getattr(p, key)}")
    for key in ("phases", "r_values"):  # the grids that sms and tms list
        if getattr(p, key, None) == []:
            raise ConfigError(f"'{key}' must list at least one value, got []")
    counts = vars(p) | (getattr(p, "chain", None) or {})  # the chain block is still a dict here
    for key in ("n_points", "n_phases", "n_rep", "n_cells"):
        if counts.get(key, 0) > MAX_COUNT:
            raise ConfigError(f"'{key}' must be <= {MAX_COUNT}, got {counts[key]}")
    for key in ("pump_frequency", "frequency", "bandwidth"):
        if not getattr(p, key, 1.0) > 0.0:
            raise ConfigError(f"'{key}' must be positive, got {getattr(p, key)}")
    amounts = getattr(p, "drive", None) or vars(p)  # the flux-sweep drive block, or the command's own keys
    for key in ("pump_current", "signal_current", "added_noise_photons", "thermal_photons"):
        if amounts.get(key, 0.0) < 0.0:
            raise ConfigError(f"'{key}' must be >= 0, got {amounts[key]}")
    if getattr(p, "gain_uncertainty_db", None) is not None:  # the library takes 10^(x/10)
        _gain_from_db(p.gain_uncertainty_db, "'gain_uncertainty_db'")
    if getattr(p, "flux_min", 0.0) > getattr(p, "flux_max", 0.0):
        raise ConfigError(f"empty flux grid: 'flux_min' {p.flux_min} > 'flux_max' {p.flux_max}")
    for key in ("flux", "flux_min", "flux_max"):  # the reduced flux 2*pi*flux must be finite and in SnailParams' bound
        if hasattr(p, key):
            _build(f"invalid '{key}'", snail.SnailParams.from_flux, CHAIN["r"], CHAIN["i_c_nominal"], getattr(p, key))
    if hasattr(p, "r"):
        _build("invalid 'r'", snail.SnailParams, p.r, CHAIN["i_c_nominal"], 0.0)
    if hasattr(p, "chain"):
        if seed is not None:
            p.chain["rng_seed"] = seed
        p.chain = _build("invalid 'chain' block", circuit.ChainConfig, **p.chain)

    if command == "flux-sweep":
        makers = (circuit.three_wave_drive, circuit.four_wave_drive)
        p.drive = tuple(_build("invalid 'drive' block", make, **p.drive) for make in makers)
    elif command == "gain-phase":
        p.drive = _build("invalid drive", circuit.three_wave_drive, p.pump_frequency, p.pump_current,
                         p.signal_current, delta_bins=0, window=p.window, settle_time=p.settle_time)
    elif command == "sms":
        s_max = 20.0 * R_MAX / math.log(10.0)
        if abs(p.target_s_db) > s_max:
            raise ConfigError(f"'target_s_db' {p.target_s_db} dB is beyond the physical limit of "
                              f"{s_max:.2f} dB in size")
        if p.input_csv is None:
            p.targets = [gaussian.squeezed_vacuum(10.0 ** (p.target_s_db / 10.0), phase) for phase in p.phases]
        else:
            try:
                batches = gaussian.read_quadrature_csv(p.input_csv)
            except (OSError, ValueError, DegenerateBatch) as err:  # a worker process that fails is no config error
                raise ConfigError(f"cannot read input CSV {p.input_csv}: {err}") from err
            if set(batches) != {"ON", "OFF"}:
                raise ConfigError(f"input_csv {p.input_csv} must contain ON and OFF pump states")
            for state in ("ON", "OFF"):  # sms takes the squeezing of one mode
                if batches[state].mode_labels != gaussian.SINGLE_MODE:
                    raise ConfigError(f"input_csv {p.input_csv}: its {state} records are two-mode; "
                                      "sms needs single-mode records")
            p.input_csv = batches
    elif command == "tms":
        for r in p.r_values:
            if abs(r) > R_MAX:
                raise ConfigError(f"'r_values' entry {r} is beyond the physical limit |r| <= {R_MAX}")
        p.targets = [_build("invalid 'thermal_photons'", gaussian.two_mode_squeezed, r, p.thermal_photons)
                     for r in p.r_values]
    elif command == "sntj-fit":
        if p.initial_guess is not None:
            guess = p.initial_guess
            for key in ("t_sys", "t_electron"):
                if not guess[key] > 0.0:
                    raise ConfigError(f"'initial_guess' '{key}' must be positive, got {guess[key]}")
            p.initial_guess = (_gain_from_db(guess["g_sys_db"], "'g_sys_db'"), guess["t_sys"], guess["t_electron"])
        rows = _build(f"cannot read input CSV {p.csv}", _load_psd, p.csv)
        if len(rows) < 10:
            raise ConfigError(f"'csv' {p.csv} has {len(rows)} bias points; the fit needs at least 10")
        p.csv = rows
    elif command == "normalize":
        if p.eta is None:
            p.eta = _build("cannot compute 'eta' from the chain", calibration.insertion_loss, p.chain, p.flux, p.f_acq)
        g_sys = _gain_from_db(p.g_sys_db, "'g_sys_db'")
        fields = {key: getattr(p, key) for key in NORMALIZATION}
        p.upsilon = _build("invalid normalization", calibration.normalization_factor, p.eta, g_sys, p.f_acq, **fields)
    if hasattr(p, "drive"):  # the transients record every time step of every run
        drives, runs = (p.drive, 2 * p.n_points) if command == "flux-sweep" else ((p.drive,), p.n_phases + 1)
        steps = max(drive.n_total for drive in drives)
        if steps * runs > MAX_COUNT:
            raise ConfigError(f"{runs} runs of {steps} time steps exceed {MAX_COUNT}: "
                              "shorten 'window' or 'settle_time', or raise 'dt'")
    if hasattr(p, "targets"):  # the synthetic states of sms and tms
        p.pairs = _build("the targets, 'added_noise_photons' and 'gain_drift' give no pump state",
                         gaussian.pump_states, p.targets, p.added_noise_photons, p.gain_drift)
    return p


# --- commands ---------------------------------------------------------------
# Each command takes the inputs ``parse`` built and returns ``(result,
# meta_extras)``: a payload dict for result.json or a ``(header, columns)``
# pair for result.csv, and entries that extend (or replace) meta.json's.


def cmd_coeffs(p: SimpleNamespace) -> tuple:
    flux = np.linspace(p.flux_min, p.flux_max, p.n_points)
    sweep = snail.coefficients_vs_flux(p.r, flux)
    columns = (flux, sweep["alpha_tilde"], sweep["beta"], sweep["gamma"])
    return (("flux_phi0", "alpha_tilde", "beta", "gamma"), columns), {}


def cmd_flux_sweep(p: SimpleNamespace) -> tuple:
    flux = np.linspace(p.flux_min, p.flux_max, p.n_points)
    print(f"flux-sweep: {p.n_points} points, n_cells={p.chain.n_cells}", file=sys.stderr)
    result = circuit.flux_sweep_idler(p.chain, *p.drive, flux)
    columns = (result["flux"], result["idler_3wm_dbm"], result["idler_4wm_dbm"])
    extras = {
        "phi1_phi0": 0.59,
        "phi2_phi0": 0.45,
        "phi1_row": int(np.argmin(np.abs(flux - 0.59))),
        "phi2_row": int(np.argmin(np.abs(flux - 0.45))),
        "f_idler_3wm": result["f_idler_3wm"],
        "f_idler_4wm": result["f_idler_4wm"],
        "n_cells": p.chain.n_cells,
    }
    return (("flux_phi0", "idler_3wm_dbm", "idler_4wm_dbm"), columns), extras


def cmd_gain_phase(p: SimpleNamespace) -> tuple:
    phases = np.linspace(0.0, 2.0 * np.pi, p.n_phases, endpoint=False)
    print(f"gain-phase: {p.n_phases} phases, n_cells={p.chain.n_cells}", file=sys.stderr)
    result = circuit.degenerate_gain_vs_phase(p.chain, p.flux, p.drive, phases)
    extras = {"flux_phi0": p.flux, "f_signal": result["f_signal"], "n_cells": p.chain.n_cells}
    return (("pump_phase_rad", "gain_db"), (result["phase"], result["gain_db"])), extras


def cmd_sms(p: SimpleNamespace) -> tuple:
    if p.input_csv is not None:
        sigma_on = gaussian.estimate_covariance(p.input_csv["ON"])
        sigma_off = gaussian.estimate_covariance(p.input_csv["OFF"])
        psi = gaussian.subtract_background(sigma_on, sigma_off, gain_uncertainty_db=p.gain_uncertainty_db)
        s_x, s_p = gaussian.squeezing_db(psi)
        return {"mode": "from_file", "s_x_db": s_x, "s_p_db": s_p, "covariance": psi.to_dict()}, {}

    print(f"sms: {len(p.phases)} phases, n_rep={p.n_rep}", file=sys.stderr)
    results = []
    for phase, psi in zip(p.phases, gaussian.measure_states(p.pairs, p.n_rep, p.seed, p.gain_uncertainty_db)):
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
                "covariance": psi.to_dict(),
            }
        )
    payload = {
        "mode": "synthetic",
        "target_s_db": p.target_s_db,
        "n_rep": p.n_rep,
        "added_noise_photons": p.added_noise_photons,
        "gain_drift": p.gain_drift,
        "results": results,
    }
    return payload, {"master_seed": p.seed}


def cmd_tms(p: SimpleNamespace) -> tuple:
    print(f"tms: {len(p.r_values)} points, n_rep={p.n_rep}", file=sys.stderr)
    psis = gaussian.measure_states(p.pairs, p.n_rep, p.seed, p.gain_uncertainty_db)
    results = []
    for r, psi_true, psi in zip(p.r_values, p.targets, psis):
        e_n, nu = gaussian.logarithmic_negativity(psi)
        nu_true = gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=psi_true))[1]
        entry = {
            "r": r,
            "e_n": e_n,
            "nu_minus": nu,
            "e_n_true": max(-math.log(nu_true), 0.0) + 0.0,  # +0.0 normalizes -0.0
            "covariance": psi.to_dict(),
        }
        if psi.systematic is not None:
            lo, hi = psi.systematic
            entry["e_n_sys_range"] = [_safe_en(lo), _safe_en(hi)]
        results.append(entry)
    payload = {
        "mode": "synthetic",
        "n_rep": p.n_rep,
        "added_noise_photons": p.added_noise_photons,
        "thermal_photons": p.thermal_photons,
        "gain_drift": p.gain_drift,
        "results": results,
    }
    return payload, {"master_seed": p.seed}


def _safe_en(sigma: np.ndarray):
    """E_N of ``sigma`` by the closed form, or None when it is unphysical."""
    try:
        return gaussian.logarithmic_negativity(gaussian.CovMatrix(entries=sigma))[0]
    except SnailTwpaError:
        return None


def cmd_sntj_fit(p: SimpleNamespace) -> tuple:
    result = calibration.fit_sntj(
        p.csv[:, 0],
        p.csv[:, 1],
        frequency=p.frequency,
        bandwidth=p.bandwidth,
        initial_guess=p.initial_guess,
        max_iter=p.max_iter,
    )
    errors = result.parameter_errors
    return {
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
    }, {}


def cmd_normalize(p: SimpleNamespace) -> tuple:
    return {
        "upsilon": p.upsilon,
        "eta_linear": p.eta,
        "eta_db": 10.0 * math.log10(p.eta),
        "g_sys_db_input": p.g_sys_db,
        "g_sys_db_corrected": p.g_sys_db + p.loss_correction_db,
        "f_acq": p.f_acq,
        "t_int": p.t_int,
        "epsilon": p.epsilon,
    }, {}


def cmd_attenuation(p: SimpleNamespace) -> tuple:
    return {
        "a_in_db": calibration.input_attenuation(p.s21_off_db, p.eta_db, p.g_sys_db),
        "s21_off_db": p.s21_off_db,
        "eta_db": p.eta_db,
        "g_sys_db": p.g_sys_db,
    }, {}


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


def _json(name: str, payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:  # a NaN or an infinity, which JSON cannot hold
        raise SnailTwpaError(f"{name} not written: {err}") from err


def _write(out_dir: Path, result, meta: dict) -> None:
    """A command's ``result`` and its ``meta`` into ``out_dir``; nothing is
    written unless both serialize."""
    if isinstance(result, dict):
        texts = {"result.json": _json("result.json", result)}
    else:
        header, columns = result
        lines = [f"# schema={SCHEMA_VERSION}", f"# config_sha256={meta['config_sha256']}", ",".join(header)]
        lines += (",".join(map(repr, row)) for row in np.column_stack(columns).tolist())
        texts = {"result.csv": "\n".join(lines) + "\n"}
    texts["meta.json"] = _json("meta.json", meta)
    for name, text in texts.items():
        try:
            (out_dir / name).write_text(text)
        except OSError as err:
            raise SnailTwpaError(f"cannot write {out_dir / name}: {err}") from err


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = {}
        if args.config is not None:
            try:
                config = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
                raise ConfigError(f"cannot read config {args.config}: {err}") from err
            if not isinstance(config, dict):
                raise ConfigError("config must be a JSON object")
        p = parse(args.command, config, args.profile, args.seed)
        out_dir = Path(args.out)
        _build(f"cannot create output directory {out_dir}", out_dir.mkdir, parents=True, exist_ok=True)
        result, extras = COMMANDS[args.command](p)
        meta = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "config": config,
            "config_sha256": _config_hash(config),
            "master_seed": args.seed,
            "git_revision": _git_revision(),
        }
        _write(out_dir, result, meta | extras)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SnailTwpaError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's failed allocation is one, here or from a worker process
        print(f"runtime error: out of memory: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
