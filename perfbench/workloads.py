"""The three benchmark workloads: inputs from the seed, one operation, checks.

Each workload generates its inputs (configs and files) from the workload
seed in :meth:`prepare`; the program receives only those.  ``operation``
is what one timed operation does.  ``check`` judges one operation's
outputs: against the first (warm-up) operation of the run, which must be
repeated bit for bit, and against reference values.  It returns
``(problems, ref_dev_db)``, where ``ref_dev_db`` is the largest absolute
deviation in dB of the outputs from their reference values.
``warm_up`` is the small call the set-up probe makes after importing.

Grids are shortened from the program's defaults so that a run holds
several operations; see README.md for the sizes and why each workload
exists.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from snailtwpa import calibration, circuit, cli, gaussian
from snailtwpa.constants import E_CHARGE, PLANCK

F_PUMP = 7.705e9
REFERENCE_FILE = Path(__file__).parent / "reference.json"
DB_PER_NEPER = 10.0 / math.log(10.0)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _run_cli(argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"snailtwpa {argv[0]} exited with code {code}")


def _deviation_problems(label, values, reference, tol_db):
    if len(values) != len(reference):
        return [f"{label} has {len(values)} values, the reference {len(reference)}"], None
    dev = [abs(v - r) for v, r in zip(values, reference)]
    worst = max(dev)
    problems = []
    if not all(math.isfinite(v) for v in values) or worst > tol_db:
        problems.append(f"{label} {values} deviates from reference {reference} by {worst:.3g} dB > {tol_db} dB")
    return problems, worst


class GainPhase100:
    """CLI ``gain-phase`` at the ci chain size: 4 pump phases plus the
    pump-off reference, i.e. 5 transients on one chain and one grid."""

    name = "gain-phase-100"

    def prepare(self, seed: int, workdir: Path) -> dict:
        config = {
            "chain": {"n_cells": 100, "disorder_amplitude": 0.05, "rng_seed": seed},
            "flux": 0.59,
            "pump_current": 0.8e-6,
            "n_phases": 4,
            "window": 1e-9,
            "settle_time": 1e-9,
        }
        return {
            "argv": ["gain-phase", "--config", str(_write_json(workdir / "gain_phase.json", config)),
                     "--out", str(workdir / "gain_phase"), "--profile", "ci"],
            "result": workdir / "gain_phase" / "result.csv",
        }

    def operation(self, ctx: dict) -> dict:
        _run_cli(ctx["argv"])
        return {"csv": ctx["result"].read_bytes()}

    def gains(self, outputs: dict) -> list:
        rows = [line for line in outputs["csv"].decode().splitlines() if line and not line.startswith("#")]
        return [float(row.split(",")[1]) for row in rows[1:]]

    def check(self, outputs: dict, first: dict):
        ref = json.loads(REFERENCE_FILE.read_text())[self.name]
        gains = self.gains(outputs)
        problems, worst = _deviation_problems("gain_db", gains, ref["gain_db"], ref["tol_db"])
        if outputs["csv"] != first["csv"]:
            problems.append("result.csv differs from the warm-up operation's")
        return problems, worst

    def warm_up(self, workdir: Path) -> None:
        config = {"chain": {"n_cells": 4}, "n_phases": 1, "window": 3e-10, "settle_time": 0.0}
        _run_cli(["gain-phase", "--config", str(_write_json(workdir / "warm.json", config)),
                  "--out", str(workdir / "warm")])


class Idler700:
    """Library pipeline build_chain -> simulate_transient -> extract_spectrum
    for one 3WM drive at the full-profile 700 cells; reads the idler bin."""

    name = "idler-700"

    def prepare(self, seed: int, workdir: Path) -> dict:
        config = {
            "chain": {"n_cells": 700, "disorder_amplitude": 0.05, "rng_seed": seed},
            "flux": 0.684,
            # default dt; the settle time covers the transit of the 700-cell chain
            "drive": {"window": 2e-9, "settle_time": 6e-9},
        }
        return config

    def operation(self, ctx: dict) -> dict:
        chain_cfg = circuit.ChainConfig(**ctx["chain"])
        drive = circuit.three_wave_drive(F_PUMP, **ctx["drive"])
        resolved = drive.resolve()
        f_idler = circuit.idler_frequencies(drive)["three_wave"]
        chain = circuit.build_chain(chain_cfg, ctx["flux"], f_ref=resolved.tones[0].frequency)
        trace = circuit.simulate_transient(chain, resolved)
        spectrum = circuit.extract_spectrum(trace, resolved)
        return {
            "idler_dbm": spectrum.power_dbm_at(f_idler),
            "steps": trace.samples.size,
            "n_total": resolved.n_total,
        }

    def check(self, outputs: dict, first: dict):
        ref = json.loads(REFERENCE_FILE.read_text())[self.name]
        problems, worst = _deviation_problems(
            "idler_dbm", [outputs["idler_dbm"]], [ref["idler_dbm"]], ref["tol_db"]
        )
        if outputs["steps"] != outputs["n_total"]:
            problems.append(f"{outputs['steps']} steps simulated, resolved n_total is {outputs['n_total']}")
        if outputs["idler_dbm"] != first["idler_dbm"]:
            problems.append("idler level differs from the warm-up operation's")
        return problems, worst

    def warm_up(self, workdir: Path) -> None:
        drive = circuit.three_wave_drive(F_PUMP, delta_bins=1, window=6e-10, settle_time=0.0)
        drive = drive.resolve()
        chain = circuit.build_chain(circuit.ChainConfig(n_cells=4), 0.684, f_ref=drive.tones[0].frequency)
        circuit.extract_spectrum(circuit.simulate_transient(chain, drive), drive)


class Analysis:
    """No transient: quadrature CSV write and read (via ``sms``), ``tms``,
    ``sntj-fit`` on a synthetic sweep, and ``coeffs``."""

    name = "analysis"
    N_REP = 100_000
    TARGET_S_DB = -3.0103
    ADDED_NOISE = 1.5
    TMS_R = (0.5, 1.0)
    SNTJ = {"frequency": F_PUMP / 2.0, "bandwidth": 3e3, "g_sys_db": 61.7, "t_sys": 4.0, "t_electron": 0.05}
    SNTJ_POINTS = 50_001
    COEFF_POINTS = 1001
    N_SE = 4.0  # allowed distance from the target in the pipeline's own standard errors
    G_SYS_TOL_DB = 0.1

    def prepare(self, seed: int, workdir: Path) -> dict:
        sq = 10.0 ** (self.TARGET_S_DB / 10.0)
        off_true = (1.0 + 2.0 * self.ADDED_NOISE) * np.eye(2)
        on_true = np.diag([sq, 1.0 / sq]) - np.eye(2) + off_true
        on_seed, off_seed, noise_seed = np.random.SeedSequence(seed).spawn(3)

        s = self.SNTJ
        hf_e = PLANCK * s["frequency"] / E_CHARGE
        v = np.linspace(-8.0 * hf_e, 8.0 * hf_e, self.SNTJ_POINTS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # T = 50 mK is near the quantum-regime warning line
            model = calibration.SntjModel(
                frequency=s["frequency"], bandwidth=s["bandwidth"], t_electron=s["t_electron"],
                t_sys=s["t_sys"], g_sys=10.0 ** (s["g_sys_db"] / 10.0),
            )
        psd = calibration.sntj_noise_power(model, v)
        psd = psd * (1.0 + 0.01 * np.random.default_rng(noise_seed).standard_normal(v.size))
        sntj_csv = workdir / "sntj.csv"
        np.savetxt(sntj_csv, np.column_stack([v, psd]), delimiter=",", fmt="%.17g",
                   header="v_bias,psd_watts")

        quad_csv = workdir / "quadratures.csv"
        configs = {
            "sms": {"input_csv": str(quad_csv)},
            "tms": {"r_values": list(self.TMS_R), "n_rep": 1_000_000,
                    "added_noise_photons": self.ADDED_NOISE, "seed": seed},
            "sntj-fit": {"csv": str(sntj_csv), "frequency": s["frequency"], "bandwidth": s["bandwidth"],
                         "initial_guess": {"g_sys_db": 60.0, "t_sys": 3.0, "t_electron": 0.04}},
            "coeffs": {"n_points": self.COEFF_POINTS},
        }
        runs = []
        for command, config in configs.items():
            cfg_path = _write_json(workdir / f"{command}.json", config)
            runs.append([command, "--config", str(cfg_path), "--out", str(workdir / command)])
        return {
            "on": (on_true, on_seed),
            "off": (off_true, off_seed),
            "quad_csv": quad_csv,
            "runs": runs,
            "results": {cmd: workdir / cmd / name for cmd, name in
                        (("sms", "result.json"), ("tms", "result.json"),
                         ("sntj-fit", "result.json"), ("coeffs", "result.csv"))},
        }

    def operation(self, ctx: dict) -> dict:
        batches = [
            gaussian.sample_gaussian(target, n_rep=self.N_REP, seed=seed, pump_state=state)
            for state, (target, seed) in (("ON", ctx["on"]), ("OFF", ctx["off"]))
        ]
        gaussian.write_quadrature_csv(ctx["quad_csv"], batches)
        for argv in ctx["runs"]:
            _run_cli(argv)
        return {cmd: path.read_bytes() for cmd, path in ctx["results"].items()}

    def check(self, outputs: dict, first: dict):
        problems = [f"{cmd} result differs from the warm-up operation's"
                    for cmd in outputs if outputs[cmd] != first[cmd]]
        devs = []

        sms = json.loads(outputs["sms"])
        cov = sms["covariance"]
        for k, (key, target) in enumerate((("s_x_db", self.TARGET_S_DB), ("s_p_db", -self.TARGET_S_DB))):
            se = DB_PER_NEPER * cov["uncertainty"][k][k] / cov["entries"][k][k]
            dev = abs(sms[key] - target)
            devs.append(dev)
            if not dev <= self.N_SE * se:
                problems.append(f"sms {key} = {sms[key]:.4f} dB is {dev / se:.1f} SE from {target}")

        for point in json.loads(outputs["tms"])["results"]:
            entries = np.array(point["covariance"]["entries"])
            se = _negativity_se(entries, np.array(point["covariance"]["uncertainty"]))
            target = 2.0 * point["r"]
            dev = abs(point["e_n"] - target)
            devs.append(DB_PER_NEPER * dev)
            if abs(point["e_n"] - _negativity(entries)) > 1e-9:
                problems.append(f"tms E_N at r={point['r']} disagrees with its own covariance")
            if not dev <= self.N_SE * se:
                problems.append(f"tms E_N = {point['e_n']:.4f} at r={point['r']} is {dev / se:.1f} SE from {target}")

        fit = json.loads(outputs["sntj-fit"])
        dev = abs(fit["g_sys_db"] - self.SNTJ["g_sys_db"])
        devs.append(dev)
        if not dev < self.G_SYS_TOL_DB:
            problems.append(f"sntj-fit G_sys = {fit['g_sys_db']:.4f} dB is {dev:.3f} dB from truth")
        if fit["n_points"] != self.SNTJ_POINTS:
            problems.append(f"sntj-fit used {fit['n_points']} points")

        rows = [ln for ln in outputs["coeffs"].decode().splitlines() if ln and not ln.startswith("#")]
        if len(rows) != self.COEFF_POINTS + 1:
            problems.append(f"coeffs wrote {len(rows) - 1} rows, expected {self.COEFF_POINTS}")
        return problems, max(devs)

    def warm_up(self, workdir: Path) -> None:
        _run_cli(["coeffs", "--config", str(_write_json(workdir / "warm.json", {"n_points": 11})),
                  "--out", str(workdir / "warm")])


def _negativity(sigma: np.ndarray) -> float:
    """E_N from the smallest symplectic eigenvalue of the partial transpose,
    computed by eigenvalues (independent of the program's closed form)."""
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = np.sort(np.abs(np.linalg.eigvals(1j * omega @ (flip @ sigma @ flip))))[0]
    return max(-math.log(nu), 0.0)


def _negativity_se(sigma: np.ndarray, uncertainty: np.ndarray) -> float:
    """Standard error of E_N propagated from the per-entry standard errors
    the pipeline reports (entries treated as independent)."""
    base = _negativity(sigma)
    total = 0.0
    for i in range(4):
        for j in range(i, 4):
            h = 1e-3 * uncertainty[i, j]
            bumped = sigma.copy()
            bumped[i, j] += h
            if i != j:
                bumped[j, i] += h
            total += ((_negativity(bumped) - base) / h * uncertainty[i, j]) ** 2
    return math.sqrt(total)


WORKLOADS = {w.name: w for w in (GainPhase100(), Idler700(), Analysis())}
