"""Start-up without scipy: the package and the commands that never solve
load no scipy module; the first solve loads scipy's LAPACK extension
``_flapack`` from its file, and neither the ``scipy`` nor the
``scipy.linalg`` package, yet solves with the very functions
``scipy.linalg.lapack`` exports; no process-pool module is loaded; the SI
constants are the values scipy gives."""

import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, cwd) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_analysis_commands_load_no_scipy(tmp_path):
    run_python(
        """
        import json, os, sys, warnings
        import numpy as np
        import snailtwpa, snailtwpa.cli
        from snailtwpa import calibration, gaussian
        from snailtwpa.cli import main

        # two usable CPUs, so that tms, sms and the CSV writer and reader fork their parts
        os.sched_getaffinity = lambda pid: {0, 1}
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(None) or fork()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = calibration.SntjModel(
                frequency=3.8525e9, bandwidth=3e3, t_electron=0.05, t_sys=4.0, g_sys=10**6.17
            )
        hf_e = 6.62607015e-34 * model.frequency / 1.602176634e-19
        v = np.linspace(-8 * hf_e, 8 * hf_e, 201)
        np.savetxt("sntj.csv", np.column_stack([v, calibration.sntj_noise_power(model, v)]), delimiter=",")
        configs = {
            "coeffs": {"n_points": 11},
            "sms": {"target_s_db": -3.0, "phases": [0.0, 0.5], "n_rep": 1000, "seed": 1},
            "tms": {"r_values": [0.5, 1.0], "n_rep": 20000, "seed": 1},
            "sntj-fit": {"csv": "sntj.csv", "frequency": model.frequency, "bandwidth": 3e3},
            "normalize": {"g_sys_db": 61.7, "f_acq": model.frequency},
            "attenuation": {"s21_off_db": -10.0, "eta_db": -1.0, "g_sys_db": 61.0},
        }
        for command, config in configs.items():
            with open(command + ".json", "w") as f:
                json.dump(config, f)
            assert main([command, "--config", command + ".json", "--out", command]) == 0, command
        batches = [gaussian.sample_gaussian(np.eye(2), n_rep=10, seed=1, pump_state=state) for state in ("ON", "OFF")]
        gaussian.write_quadrature_csv("quad.csv", batches)
        with open("sms_file.json", "w") as f:
            json.dump({"input_csv": "quad.csv"}, f)
        assert main(["sms", "--config", "sms_file.json", "--out", "sms_file"]) == 0
        assert len(forks) == 4, forks
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        """,
        tmp_path,
    )


def test_transient_loads_lapack_on_first_solve(tmp_path):
    # CPython enters a single-phase extension module in sys.modules under its
    # full name, so "scipy.linalg._flapack" may be there; nothing else of
    # scipy may be, and a later import of scipy.linalg reuses it
    run_python(
        """
        import json, sys
        from snailtwpa import circuit
        from snailtwpa.cli import main

        def scipy_loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and m != "scipy.linalg._flapack")

        assert "lapack" not in vars(circuit)
        drive = circuit.three_wave_drive(7.705e9, delta_bins=1, window=6e-10, settle_time=0.0)
        chain = circuit.build_chain(circuit.ChainConfig(n_cells=4), 0.684, f_ref=drive.tones[0].frequency)
        assert not scipy_loaded() and "lapack" not in vars(circuit)
        circuit.simulate_transient(chain, drive)
        circuit.linear_transfer(chain, [4e9])
        assert "lapack" in vars(circuit) and not scipy_loaded(), scipy_loaded()

        with open("gain_phase.json", "w") as f:
            json.dump({"chain": {"n_cells": 4}, "n_phases": 1, "window": 6e-10, "settle_time": 0.0}, f)
        assert main(["gain-phase", "--config", "gain_phase.json", "--out", "gain_phase"]) == 0
        assert not scipy_loaded(), scipy_loaded()

        import scipy.linalg.lapack

        assert circuit.lapack.dgtsv is scipy.linalg.lapack.dgtsv
        assert circuit.lapack.zgtsv is scipy.linalg.lapack.zgtsv
        """,
        tmp_path,
    )


def test_missing_lapack_extension_names_the_directory(tmp_path, monkeypatch):
    from snailtwpa import circuit

    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        circuit.__getattr__("lapack")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_asks_for_one_blas_thread_unless_it_is_set(tmp_path, monkeypatch, preset, expected):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    run_python(f"import os, snailtwpa; assert os.environ['OPENBLAS_NUM_THREADS'] == {expected!r}", tmp_path)


def test_cli_import_loads_no_process_pool(tmp_path):
    # the sweeps fork their parts with os.fork; no pool module may creep
    # into start-up
    run_python(
        """
        import sys
        import snailtwpa.cli

        pools = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent."))
        assert not pools, pools
        """,
        tmp_path,
    )


def test_unknown_circuit_attribute_still_raises():
    from snailtwpa import circuit

    with pytest.raises(AttributeError):
        circuit.no_such_attribute


def test_si_constants_match_scipy():
    import scipy.constants as scipy_constants

    from snailtwpa.constants import BOLTZMANN, E_CHARGE, PHI0, PLANCK

    assert E_CHARGE == scipy_constants.e
    assert PLANCK == scipy_constants.h
    assert BOLTZMANN == scipy_constants.k
    assert PHI0 == scipy_constants.h / (2.0 * scipy_constants.e)
    assert PHI0 == scipy_constants.physical_constants["mag. flux quantum"][0]
