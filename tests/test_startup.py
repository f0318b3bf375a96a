"""Start-up without scipy: the package and the commands that never solve
load no scipy module; the transient loads ``scipy.linalg.lapack`` on its
first solve; the SI constants are the values scipy gives."""

import os
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
        import json, sys, warnings
        import numpy as np
        import snailtwpa, snailtwpa.cli
        from snailtwpa import calibration
        from snailtwpa.cli import main

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
            "sms": {"target_s_db": -3.0, "n_rep": 1000, "seed": 1},
            "tms": {"r_values": [0.5], "n_rep": 1000, "seed": 1},
            "sntj-fit": {"csv": "sntj.csv", "frequency": model.frequency, "bandwidth": 3e3},
            "normalize": {"g_sys_db": 61.7, "f_acq": model.frequency},
            "attenuation": {"s21_off_db": -10.0, "eta_db": -1.0, "g_sys_db": 61.0},
        }
        for command, config in configs.items():
            with open(command + ".json", "w") as f:
                json.dump(config, f)
            assert main([command, "--config", command + ".json", "--out", command]) == 0, command
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        """,
        tmp_path,
    )


def test_transient_loads_lapack_on_first_solve(tmp_path):
    run_python(
        """
        import sys
        from snailtwpa import circuit

        assert "lapack" not in vars(circuit) and "scipy.linalg" not in sys.modules
        drive = circuit.three_wave_drive(7.705e9, delta_bins=1, window=6e-10, settle_time=0.0).resolve()
        chain = circuit.build_chain(circuit.ChainConfig(n_cells=4), 0.684, f_ref=drive.tones[0].frequency)
        assert "scipy.linalg" not in sys.modules
        circuit.simulate_transient(chain, drive)
        import scipy.linalg

        assert vars(circuit)["lapack"] is scipy.linalg.lapack
        assert circuit.lapack is scipy.linalg.lapack
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
