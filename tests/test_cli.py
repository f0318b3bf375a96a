import json
import math
import os
import shutil
import subprocess
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snailtwpa import circuit, cli, gaussian, snail
from snailtwpa.cli import main
from snailtwpa.errors import ConfigError
from snailtwpa.calibration import SntjModel, sntj_noise_power
from snailtwpa.gaussian import sample_gaussian, write_quadrature_csv
from snailtwpa.snail import SnailParams, coefficients


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_result_csv(out_dir):
    lines = Path(out_dir, "result.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    rows = [
        [float(x) for x in l.split(",")]
        for l in lines
        if not l.startswith("#") and not l[0].isalpha()
    ]
    return comments, header, np.array(rows)


# --- coeffs -----------------------------------------------------------------


def test_coeffs_beta_antisymmetric(tmp_path):
    cfg = write_config(tmp_path, {"r": 0.07, "flux_min": -2.0, "flux_max": 2.0, "n_points": 401})
    out = tmp_path / "run"
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
    comments, header, rows = read_result_csv(out)
    assert any("schema=" in c for c in comments)
    assert any("config_sha256=" in c for c in comments)
    assert header == ["flux_phi0", "alpha_tilde", "beta", "gamma"]
    beta = rows[:, 2]
    np.testing.assert_allclose(beta, -beta[::-1], atol=1e-10)


def test_coeffs_zero_flux_row_matches_module(tmp_path):
    # flux 0.0 as the first point, and reached in the middle of criterion
    # 8's sweep (row 200 of -2...2 in 401 points)
    ref = coefficients(SnailParams.from_flux(0.07, 2.19e-6, 0.0))
    for flux_min, flux_max, n_points, row in ((0.0, 0.5, 2, 0), (-2.0, 2.0, 401, 200)):
        cfg = write_config(tmp_path, {"r": 0.07, "flux_min": flux_min, "flux_max": flux_max, "n_points": n_points})
        out = tmp_path / f"run{n_points}"
        assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_result_csv(out)
        assert rows[row, 0] == 0.0
        assert rows[row, 1] == pytest.approx(ref.alpha_tilde, abs=1e-12)
        assert rows[row, 2] == 0.0
        assert rows[row, 3] == pytest.approx(ref.gamma, abs=1e-12)


def test_coeffs_empty_grid_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"n_points": 0})
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"r": 0.07, "bogus_key": 1})
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("coeffs", {"r": "abc"}, "'r'"),
        ("coeffs", {"r": 0.5}, "'r'"),
        ("coeffs", {"r": float("nan")}, "'r'"),
        ("flux-sweep", {"drive": {"dt": 1e-9}}, "dt"),
        ("gain-phase", {"pump_frequency": -7.705e9}, "'pump_frequency'"),
        ("sms", {"n_rep": 1}, "'n_rep'"),
        ("tms", {"n_rep": 1}, "'n_rep'"),
        ("gain-phase", {"n_phases": "x"}, "'n_phases'"),
        ("flux-sweep", {"flux_min": "a"}, "'flux_min'"),
        ("gain-phase", {"chain": {"r": 0.5}}, "'r'"),
        ("tms", {"r_values": ["a"]}, "'r_values'"),
        ("tms", {"gain_uncertainty_db": "1 dB"}, "'gain_uncertainty_db'"),
        ("tms", {"r_values": [0.5, 400]}, "'r_values' entry 400"),
        ("attenuation", {"s21_off_db": "a", "eta_db": -1.0, "g_sys_db": 61.0}, "'s21_off_db'"),
        ("sntj-fit", {"csv": "none.csv", "frequency": "x", "bandwidth": 3e3}, "'frequency'"),
        (
            "sntj-fit",
            {"csv": "none.csv", "frequency": 4e9, "bandwidth": 3e3,
             "initial_guess": {"g_sys_db": 60.0, "t_sys": "warm", "t_electron": 0.04}},
            "'t_sys'",
        ),
        ("sntj-fit", {"csv": "none.csv", "frequency": 4e9, "bandwidth": 3e3, "max_iter": "many"}, "'max_iter'"),
        ("sntj-fit", {"csv": "none.csv", "frequency": 4e9, "bandwidth": 3e3, "max_iter": 0}, "'max_iter'"),
        ("sntj-fit", {"csv": "none.csv", "frequency": -4e9, "bandwidth": 3e3}, "'frequency'"),
        ("sntj-fit", {"csv": "none.csv", "frequency": 4e9, "bandwidth": 0.0}, "'bandwidth'"),
        ("normalize", {"g_sys_db": "x", "f_acq": 4e9}, "'g_sys_db'"),
        ("normalize", {"g_sys_db": 61.7, "f_acq": 4e9, "chain": {"n_cells": "q"}}, "'n_cells'"),
        ("gain-phase", {"chain": {"rng_seed": -1}}, "rng_seed"),
        ("gain-phase", {"chain": {"rng_seed": 1.5}}, "'rng_seed'"),
        ("gain-phase", {"chain": {"n_cells": 4.5}}, "'n_cells'"),
        ("gain-phase", {"chain": "x"}, "'chain'"),
        ("gain-phase", {"window": -1e-9}, "window"),
        ("flux-sweep", {"drive": "x"}, "'drive'"),
        ("flux-sweep", {"drive": {"delta_bins": -3, "window": 6e-10}}, "delta_bins"),
        ("normalize", {"g_sys_db": 61.7, "f_acq": 4e9, "chain": "x"}, "'chain'"),
        ("normalize", {"g_sys_db": 61.7, "f_acq": 4e9, "chain": {"n_cells": 0}}, "n_cells"),
        ("sms", {"target_s_db": 4000}, "'target_s_db'"),
        ("sms", {"seed": -1}, "'seed'"),
        ("tms", {"r_values": [300], "n_rep": 10}, "'r_values' entry 300"),
        ("gain-phase", {"pump_current": -1e-7}, "'pump_current'"),
        ("gain-phase", {"signal_current": -1e-9}, "'signal_current'"),
        ("flux-sweep", {"drive": {"pump_current": -1e-7}}, "'pump_current'"),
        ("flux-sweep", {"drive": {"signal_current": -1e-9}}, "'signal_current'"),
        ("coeffs", {"n_points": True}, "'n_points'"),
        ("coeffs", {"flux_max": False}, "'flux_max'"),
        ("sms", {"phases": [True]}, "'phases'"),
        ("coeffs", {"r": "0.07"}, "'r'"),
        ("coeffs", {"n_points": "3"}, "'n_points'"),
        ("sms", {"phases": ["0.5"]}, "'phases'"),
        ("gain-phase", {"chain": {"r": 0.3, "disorder_amplitude": 0.2}}, "'r'"),
        ("flux-sweep", {"chain": {"r": 0.3, "disorder_amplitude": 0.2}}, "'r'"),
        ("flux-sweep", {"chain": {"i_c_nominal": 1e-310}}, "'i_c_nominal'"),
        ("normalize", {"g_sys_db": 61.7, "f_acq": 4e9, "eta": 1.5}, "eta"),
        ("normalize", {"g_sys_db": 61.7, "f_acq": 4e9, "t_int": 0.0}, "t_int"),
        ("sms", {"target_theta": 0.1}, "target_theta"),
        ("coeffs", {"n_points": 10**20}, "'n_points'"),
        ("gain-phase", {"n_phases": 10**20}, "'n_phases'"),
        ("gain-phase", {"chain": {"n_cells": 10**20}}, "'n_cells'"),
        ("tms", {"n_rep": 10**20}, "'n_rep'"),
        ("sms", {"added_noise_photons": -1}, "'added_noise_photons'"),
        ("tms", {"thermal_photons": -1}, "'thermal_photons'"),
        ("tms", {"gain_drift": -1}, "'gain_drift'"),
        ("tms", {"added_noise_photons": 1e308}, "'added_noise_photons'"),
        ("sms", {"target_s_db": -3.0, "gain_drift": -1}, "'gain_drift'"),
        ("gain-phase", {"window": 1e10}, "'window'"),
        ("flux-sweep", {"drive": {"settle_time": 1e10}}, "'settle_time'"),
        ("coeffs", {"flux_min": 1e12, "flux_max": 1e12, "n_points": 1}, "'flux_min'"),
        ("coeffs", {"flux_min": -1001.0}, "'flux_min'"),
        ("gain-phase", {"flux": 1e15}, "'flux'"),
        ("flux-sweep", {"flux_max": 2000.0}, "'flux_max'"),
        ("sms", {"added_noise_photons": 1e308}, "'added_noise_photons'"),
        ("tms", {"thermal_photons": 1e308}, "'thermal_photons'"),
        ("tms", {"gain_drift": 1e200}, "'gain_drift'"),
        ("tms", {"gain_drift": -1e200}, "'gain_drift'"),
        ("sms", {"target_s_db": -3100}, "'target_s_db'"),
        ("sms", {"target_s_db": 3080}, "'target_s_db'"),
        ("sms", {"target_s_db": 400}, "'target_s_db'"),
        ("sms", {"phases": []}, "'phases'"),
        ("tms", {"r_values": []}, "'r_values'"),
        ("normalize", {"g_sys_db": 3000, "f_acq": 4e9, "z0": 1e300, "eta": 0.7}, "z0 = 1e+300"),
        ("normalize", {"g_sys_db": -3000, "f_acq": 4e9, "z0": 1e-300, "eta": 0.7}, "z0 = 1e-300"),
    ],
)
def test_invalid_values_are_config_errors(tmp_path, capsys, command, payload, key):
    # rejected while parsing, before any solve or --out, with the offending key named
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def _json_config(table):
    """Configs of up to two keys of one command table, or an unknown key,
    each holding any JSON value (numbers at any scale, NaN and infinity
    included) or, for a block, a config of the block's own table."""
    numbers = st.floats() | st.integers(-(2**70), 2**70)
    values = (
        numbers
        | st.lists(numbers, max_size=3)
        | st.recursive(
            st.none() | st.booleans() | numbers | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        )
    )

    def entry(key):
        default = table.get(key)
        return (_json_config(default) | values) if isinstance(default, dict) else values

    keys = st.lists(st.sampled_from([*table, "bogus"]), max_size=2, unique=True)
    return keys.flatmap(lambda chosen: st.fixed_dictionaries({key: entry(key) for key in chosen}))


@pytest.mark.parametrize("command", sorted(cli.TABLES))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_returns_or_raises_config_error(command, data):
    # the exit-code contract at parse time: any JSON object either parses or
    # is a ConfigError, and nothing is integrated on the way
    config = data.draw(_json_config(cli.TABLES[command]))
    with warnings.catch_warnings(), mock.patch.object(circuit, "_integrate", side_effect=AssertionError):
        warnings.simplefilter("ignore")
        try:
            cli.parse(command, config, "ci", None)
        except ConfigError:
            pass


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["coeffs", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "case, code",
    [
        ("config is a directory", 2),
        ("config is not UTF-8", 2),
        ("config error", 2),
        ("config nested too deep", 2),
        ("out is a file", 2),
        ("result.csv is a directory", 1),
    ],
)
def test_file_system_failures_name_the_path(tmp_path, capsys, case, code):
    # no traceback: the path is named, and a config error leaves no --out
    cfg, out = tmp_path / "config.json", tmp_path / "run"
    cfg.write_text('{"n_points": 3}')
    named = cfg
    if case == "config is a directory":
        cfg.unlink()
        cfg.mkdir()
    elif case == "config is not UTF-8":
        cfg.write_bytes('{"n_points": 3, "r": "\u00e9"}'.encode("latin-1"))
    elif case == "config error":
        cfg.write_text('{"bogus": 3}')
        named = "bogus"
    elif case == "config nested too deep":  # beyond json's recursion limit
        cfg.write_text("[" * 100_000 + "]" * 100_000)
    elif case == "out is a file":
        out.write_text("")
        named = out
    else:
        (out / "result.csv").mkdir(parents=True)
        named = out / "result.csv"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "runtime error:") and str(named) in err
    assert out.exists() == (case in ("out is a file", "result.csv is a directory"))


@pytest.mark.parametrize("case", ["sntj-fit one-column csv", "sms input_csv without OFF", "config is a JSON array"])
def test_inputs_a_command_cannot_run_on_are_config_errors(tmp_path, capsys, case):
    # one config error line that says what is wrong, and no --out
    out, data = tmp_path / "x", tmp_path / "data.csv"
    if case == "sntj-fit one-column csv":
        data.write_text("".join(f"{k}e-5\n" for k in range(1, 20)))
        command, cfg, why = "sntj-fit", {"csv": str(data), "frequency": 4e9, "bandwidth": 3e3}, "must have columns"
    elif case == "sms input_csv without OFF":
        write_quadrature_csv(data, [sample_gaussian(np.eye(2), n_rep=50, seed=1, pump_state="ON")])
        command, cfg, why = "sms", {"input_csv": str(data)}, "must contain ON and OFF"
    else:
        command, cfg, why = "coeffs", [{"n_points": 3}], "config must be a JSON object"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and why in err and err.count("\n") == 1
    assert not out.exists()


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"r": 0.07, "flux_min": -1.0, "flux_max": 1.0, "n_points": 51})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["coeffs", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["coeffs", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()
    assert (out_a / "meta.json").read_bytes() == (out_b / "meta.json").read_bytes()


# --- flux-sweep ---------------------------------------------------------------


def test_flux_sweep_small_chain(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "chain": {"n_cells": 6, "disorder_amplitude": 0.05, "rng_seed": 3},
            "drive": {"window": 6e-9, "settle_time": 3e-9},
            "flux_min": 0.45,
            "flux_max": 0.59,
            "n_points": 2,
        },
    )
    out = tmp_path / "run"
    assert main(["flux-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_result_csv(out)
    assert header == ["flux_phi0", "idler_3wm_dbm", "idler_4wm_dbm"]
    assert rows.shape == (2, 3)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["phi1_phi0"] == 0.59 and meta["phi2_phi0"] == 0.45
    assert meta["phi1_row"] == 1 and meta["phi2_row"] == 0
    # determinism of a transient-backed command
    out_b = tmp_path / "run_b"
    assert main(["flux-sweep", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()


# --- gain-phase -----------------------------------------------------------------


def test_gain_phase_zero_pump_flat(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "chain": {"n_cells": 6, "disorder_amplitude": 0.05, "rng_seed": 3},
            "flux": 0.59,
            "pump_current": 0.0,
            "n_phases": 4,
            "window": 6e-9,
            "settle_time": 3e-9,
        },
    )
    out = tmp_path / "run"
    assert main(["gain-phase", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_result_csv(out)
    np.testing.assert_array_equal(rows[:, 1], np.zeros(4))


def test_seed_replaces_the_chain_rng_seed():
    assert cli.parse("gain-phase", {}, "ci", 5).chain.rng_seed == 5
    assert cli.parse("flux-sweep", {"chain": {"rng_seed": 3}}, "ci", 7).chain.rng_seed == 7
    assert cli.parse("flux-sweep", {"chain": {"rng_seed": 3}}, "ci").chain.rng_seed == 3


def test_gain_phase_builds_its_drive_once(tmp_path, monkeypatch):
    calls = []
    make = circuit.three_wave_drive

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return make(*args, **kwargs)

    monkeypatch.setattr(circuit, "three_wave_drive", counting)
    cfg = write_config(tmp_path, {"chain": {"n_cells": 4}, "n_phases": 1, "window": 6e-10, "settle_time": 0.0})
    assert main(["gain-phase", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


# --- sms / tms -------------------------------------------------------------------


def test_sms_vacuum_target(tmp_path):
    cfg = write_config(
        tmp_path,
        {"target_s_db": 0.0, "added_noise_photons": 1.0, "n_rep": 200000, "seed": 5},
    )
    out = tmp_path / "run"
    assert main(["sms", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())
    res = payload["results"][0]
    assert abs(res["s_x_db"]) < 4.0 * res["stat_err_x_db"]
    assert abs(res["s_p_db"]) < 4.0 * res["stat_err_p_db"]


def test_sms_squeezed_target_recovery(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "target_s_db": -3.0103,
            "added_noise_photons": 1.5,
            "n_rep": 3_000_000,
            "seed": 7,
        },
    )
    out = tmp_path / "run"
    assert main(["sms", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "result.json").read_text())["results"][0]
    assert res["s_x_db"] == pytest.approx(-3.0103, abs=0.1)


def test_sms_identical_on_off_file_gives_exact_vacuum(tmp_path):
    batch_on = sample_gaussian(3.0 * np.eye(2), n_rep=500, seed=1, pump_state="ON")
    batch_off = sample_gaussian(3.0 * np.eye(2), n_rep=500, seed=1, pump_state="OFF")
    np.testing.assert_array_equal(batch_on.records, batch_off.records)
    path = tmp_path / "quad.csv"
    write_quadrature_csv(path, [batch_on, batch_off])
    cfg = write_config(tmp_path, {"input_csv": str(path)})
    out = tmp_path / "run"
    assert main(["sms", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["s_x_db"] == 0.0
    assert payload["s_p_db"] == 0.0
    entries = np.array(payload["covariance"]["entries"])
    np.testing.assert_array_equal(entries, np.eye(2))


def test_sms_input_csv_ignores_the_synthetic_model(tmp_path):
    # with an input CSV no pump state is built, so a gain drift that would
    # leave none is no config error
    batches = [sample_gaussian(np.eye(2), n_rep=50, seed=s, pump_state=p) for s, p in ((1, "ON"), (2, "OFF"))]
    path = tmp_path / "quad.csv"
    write_quadrature_csv(path, batches)
    cfg = write_config(tmp_path, {"input_csv": str(path), "target_s_db": -3.0, "gain_drift": -1})
    assert main(["sms", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert json.loads((tmp_path / "run" / "result.json").read_text())["mode"] == "from_file"


# line 30 of the file, repetition 25 of the ON batch, becomes each of these
# (None deletes it), and the error names what is wrong
NO_REP_25 = "pump state ON: the signal mode has no row for repetition 25"
BAD_LINE_30 = {
    "bad value": ("25,signal,abc,0.5,ON", "line 30"),
    "short row": ("25,signal,0.5,ON", "line 30"),
    "repeated rep": ("24,signal,0.5,0.5,ON", "line 30"),
    "missing rep": (None, NO_REP_25),
    "huge rep index": ("1000000000000000,signal,0.5,0.5,ON", NO_REP_25),
}


@pytest.mark.parametrize("defect", ["missing file", *BAD_LINE_30])
def test_sms_bad_input_csv_is_config_error(tmp_path, capsys, defect):
    path = tmp_path / "quad.csv"
    if defect != "missing file":
        batches = [sample_gaussian(np.eye(2), n_rep=50, seed=s, pump_state=p) for s, p in ((1, "ON"), (2, "OFF"))]
        write_quadrature_csv(path, batches)
        lines = path.read_text().splitlines()
        row = BAD_LINE_30[defect][0]
        lines[29:30] = [row] if row is not None else []
        path.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, {"input_csv": str(path)})
    assert main(["sms", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    if defect != "missing file":
        assert BAD_LINE_30[defect][1] in err


def _quad_rows(state, modes):
    return "".join(f"{i},{mode},0.5,-0.5,{state}\n" for i in range(50) for mode in modes)


QUAD_HEAD = "# snailtwpa quadrature records v1\n# normalized=true\n# modes=signal\nrep_index,mode,x,p,pump_state\n"
UNREADABLE_CSV = {  # the text of a file the writer cannot write, and the reader's error
    "raw": (QUAD_HEAD.replace("true", "false") + _quad_rows("ON", ["signal"]) + _quad_rows("OFF", ["signal"]),
            "the records are raw (normalized=false)"),
    "idler-only ON": (QUAD_HEAD + _quad_rows("ON", ["idler"]) + _quad_rows("OFF", ["signal"]),
                      "pump state ON: the signal mode has no row for repetition 0 of 0..49"),
}


@pytest.mark.parametrize("case", [*UNREADABLE_CSV, "two-mode", "two-mode ON, single-mode OFF"])
def test_sms_input_csv_it_cannot_use_is_config_error(tmp_path, capsys, case):
    # sms estimates one mode's covariance from records in vacuum units, in
    # both pump states; any other file is refused before --out
    path, out = tmp_path / "quad.csv", tmp_path / "x"
    if case in UNREADABLE_CSV:
        text, why = UNREADABLE_CSV[case]
        path.write_text(text)
        start = f"config error: cannot read input CSV {path}: {why}"
    else:
        modes = (2, 2) if case == "two-mode" else (2, 1)
        write_quadrature_csv(path, [sample_gaussian(np.eye(2 * m), n_rep=50, seed=s, pump_state=p)
                                    for m, s, p in zip(modes, (1, 2), ("ON", "OFF"))])
        start = f"config error: input_csv {path}: its ON records are two-mode"
    cfg = write_config(tmp_path, {"input_csv": str(path)})
    assert main(["sms", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(start)
    assert not out.exists()


def test_sms_input_csv_reader_child_that_dies_is_runtime_error(tmp_path, capsys, forks, monkeypatch):
    parent = os.getpid()
    parse_lines = gaussian._parse_lines

    def dying_in_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return parse_lines(*args)

    path = tmp_path / "quad.csv"
    batches = [sample_gaussian(np.eye(2), n_rep=50, seed=s, pump_state=p) for s, p in ((1, "ON"), (2, "OFF"))]
    write_quadrature_csv(path, batches)
    monkeypatch.setattr(gaussian, "_parse_lines", dying_in_child)
    cfg = write_config(tmp_path, {"input_csv": str(path)})
    assert main(["sms", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "exited with status 3" in err
    assert len(forks) == 2  # one for the write, one for the read


@pytest.mark.parametrize(
    "command, module, name",
    [("coeffs", snail, "coefficients_vs_flux"), ("tms", gaussian, "sample_gaussian")],
)
def test_out_of_memory_is_runtime_error(tmp_path, capsys, forks, monkeypatch, command, module, name):
    # a failed allocation is one runtime error line, also when only a forked
    # worker meets it (tms's last points run in one); nothing is allocated,
    # the library call raises it
    parent = os.getpid()
    call = getattr(module, name)

    def failing(*args, **kwargs):
        if command == "tms" and os.getpid() == parent:
            return call(*args, **kwargs)
        raise MemoryError("Unable to allocate 2.84 PiB for an array")

    monkeypatch.setattr(module, name, failing)
    cfg = write_config(tmp_path, {"n_rep": 1000} if command == "tms" else {})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("runtime error:")] == [
        "runtime error: out of memory: Unable to allocate 2.84 PiB for an array"
    ]
    assert "Traceback" not in err
    assert len(forks) == (command == "tms")


def test_tms_zero_r_and_monotone(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "r_values": [0.0, 0.3, 0.6, 0.9],
            "added_noise_photons": 1.0,
            "n_rep": 400000,
            "seed": 3,
        },
    )
    out = tmp_path / "run"
    assert main(["tms", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "result.json").read_text())["results"]
    assert results[0]["e_n"] < 0.02  # statistical zero
    e_n = [r["e_n"] for r in results]
    assert e_n[1] < e_n[2] < e_n[3]
    assert results[-1]["e_n_true"] == pytest.approx(1.8, abs=1e-9)


def test_tms_zero_r_writes_positive_zero(tmp_path):
    cfg = write_config(tmp_path, {"r_values": [0.0], "n_rep": 2000, "seed": 1})
    out = tmp_path / "run"
    assert main(["tms", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "result.json").read_text()
    assert '"e_n_true": 0.0,' in text
    e_n_true = json.loads(text)["results"][0]["e_n_true"]
    assert e_n_true == 0.0 and math.copysign(1.0, e_n_true) == 1.0


def test_tms_null_gain_uncertainty_drops_systematic_range(tmp_path):
    cfg = write_config(tmp_path, {"r_values": [0.3], "n_rep": 2000, "seed": 1, "gain_uncertainty_db": None})
    out = tmp_path / "run"
    assert main(["tms", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())["results"][0]
    assert "e_n_sys_range" not in result and result["covariance"]["systematic"] is None


def test_tms_gain_drift_artifact(tmp_path):
    # an OFF background recorded at slightly higher gain than during the ON
    # sequence over-subtracts, which can fake entanglement at zero squeezing
    cfg = write_config(
        tmp_path,
        {
            "r_values": [0.0],
            "added_noise_photons": 4.0,
            "n_rep": 300000,
            "seed": 9,
            "gain_drift": -0.02,
        },
    )
    out = tmp_path / "run"
    assert main(["tms", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "result.json").read_text())["results"]
    assert results[0]["e_n"] > 0.05  # spurious negativity from the drift


def test_tms_thermal_noise_kills_entanglement(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "r_values": [0.4],
            "added_noise_photons": 1.0,
            "thermal_photons": 2.0,
            "n_rep": 400000,
            "seed": 4,
        },
    )
    out = tmp_path / "run"
    assert main(["tms", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "result.json").read_text())["results"]
    # A = B = (cosh 2r + 2 n_th) with n_th beyond the separability threshold
    assert results[0]["e_n"] == 0.0


# --- sntj-fit ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, config",
    [
        ("tms", {"r_values": [0.3, 0.8], "n_rep": 3000, "seed": 5}),
        ("sms", {"target_s_db": -3.0, "phases": [0.0, 0.7], "n_rep": 3000, "seed": 5}),
    ],
)
def test_synthetic_points_write_the_same_bytes_on_any_cpu_count(tmp_path, forks, monkeypatch, command, config):
    # each point draws from its own spawn key, so the points may run in
    # forked children; two points make at most two parts
    cfg = write_config(tmp_path, config)
    written = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        before = len(forks)
        out = tmp_path / f"{cpus} cpus"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert len(forks) - before == min(cpus, 2) - 1
        written[cpus] = [(out / name).read_bytes() for name in ("result.json", "meta.json")]
    assert written[2] == written[1] and written[3] == written[1]


@pytest.mark.parametrize(
    "command, config, line",
    [
        ("tms", {"r_values": [0.3, 0.8], "n_rep": 3000}, "tms: 2 points, n_rep=3000\n"),
        ("sms", {"phases": [0.0, 0.7, 1.4], "n_rep": 3000}, "sms: 3 phases, n_rep=3000\n"),
    ],
)
def test_synthetic_commands_print_progress_before_the_work(tmp_path, capsys, monkeypatch, command, config, line):
    # every point comes back at once, so the one progress line is printed
    # before the points run and nothing is printed after them
    printed = []
    measure_states = gaussian.measure_states

    def recording(pairs, n_rep, seed, gain_uncertainty_db):
        printed.append(capsys.readouterr().err)
        return measure_states(pairs, n_rep, seed, gain_uncertainty_db)

    monkeypatch.setattr(gaussian, "measure_states", recording)
    assert main([command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "run")]) == 0
    assert printed == [line] and capsys.readouterr().err == ""


def test_sntj_fit_command(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = SntjModel(
            frequency=3.8525e9, bandwidth=3e3, t_electron=0.05, t_sys=4.0, g_sys=10**6.17
        )
    hf_e = 6.62607015e-34 * model.frequency / 1.602176634e-19
    v = np.linspace(-8 * hf_e, 8 * hf_e, 801)
    rng = np.random.default_rng(11)
    y = sntj_noise_power(model, v) * (1 + 0.005 * rng.standard_normal(v.size))
    csv = tmp_path / "sntj.csv"
    np.savetxt(csv, np.column_stack([v, y]), delimiter=",")
    cfg = write_config(
        tmp_path,
        {
            "csv": str(csv),
            "frequency": model.frequency,
            "bandwidth": 3e3,
            "initial_guess": {"g_sys_db": 60.0, "t_sys": 3.0, "t_electron": 0.04},
        },
    )
    out = tmp_path / "run"
    assert main(["sntj-fit", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["g_sys_db"] == pytest.approx(61.7, abs=0.05)
    assert payload["n_iterations"] > 0
    assert payload["errors"]["t_sys_kelvin"] > 0


def test_sntj_fit_without_initial_guess(tmp_path):
    # the fit then builds its own start from the sweep
    _write_json_golden_inputs(tmp_path)
    cfg = write_config(tmp_path, {"csv": str(tmp_path / "sntj.csv"), "frequency": 3.8525e9, "bandwidth": 3e3})
    out = tmp_path / "run"
    assert main(["sntj-fit", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "result.json").read_text())["g_sys_db"] == pytest.approx(61.7, abs=0.1)


def test_sntj_fit_missing_csv_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path, {"csv": str(tmp_path / "none.csv"), "frequency": 4e9, "bandwidth": 3e3}
    )
    assert main(["sntj-fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("head", ["v,p\n", "# v,p\n0.0,nan\n"], ids=["uncommented header", "nan value"])
def test_sntj_fit_unreadable_csv_is_config_error(tmp_path, capsys, head):
    csv = tmp_path / "sntj.csv"
    csv.write_text(head + "".join(f"{k}e-5,{k}e-12\n" for k in range(1, 20)))
    cfg = write_config(tmp_path, {"csv": str(csv), "frequency": 4e9, "bandwidth": 3e3})
    assert main(["sntj-fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(csv) in err


@pytest.mark.parametrize(
    "guess, rows, key",
    [
        ({"t_sys": -1.0}, 19, "'t_sys'"),
        ({"t_electron": 0.0}, 19, "'t_electron'"),
        ({}, 9, "'csv'"),
    ],
)
def test_sntj_fit_input_checked_before_out(tmp_path, capsys, guess, rows, key):
    # the fit's own input checks run in parse, so no --out is left behind
    csv, out = tmp_path / "sntj.csv", tmp_path / "x"
    csv.write_text("".join(f"{k}e-5,{k}e-12\n" for k in range(1, rows + 1)))
    initial_guess = {"g_sys_db": 60.0, "t_sys": 3.0, "t_electron": 0.04} | guess
    cfg = write_config(tmp_path, {"csv": str(csv), "frequency": 4e9, "bandwidth": 3e3, "initial_guess": initial_guess})
    assert main(["sntj-fit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_sntj_fit_runtime_error_exit_code(tmp_path):
    # bias range below 2hf/e -> IllConditioned -> exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = SntjModel(
            frequency=3.8525e9, bandwidth=3e3, t_electron=0.05, t_sys=4.0, g_sys=10**6.17
        )
    hf_e = 6.62607015e-34 * model.frequency / 1.602176634e-19
    v = np.linspace(-hf_e, hf_e, 101)
    csv = tmp_path / "sntj.csv"
    np.savetxt(csv, np.column_stack([v, sntj_noise_power(model, v)]), delimiter=",")
    cfg = write_config(tmp_path, {"csv": str(csv), "frequency": model.frequency, "bandwidth": 3e3})
    assert main(["sntj-fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


# --- normalize / attenuation --------------------------------------------------------


def test_normalize_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {"g_sys_db": 61.7, "f_acq": 3.8525e9, "chain": {}, "flux": 0.0},
    )
    out = tmp_path / "run"
    assert main(["normalize", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["g_sys_db_corrected"] == pytest.approx(62.7)
    assert payload["upsilon"] == pytest.approx(168941.6041084582, rel=1e-6)


def test_attenuation_command(tmp_path):
    cfg = write_config(tmp_path, {"s21_off_db": -10.0, "eta_db": -1.0, "g_sys_db": 61.0})
    out = tmp_path / "run"
    assert main(["attenuation", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["a_in_db"] == pytest.approx(-70.0)


def test_attenuation_requires_inputs(tmp_path):
    cfg = write_config(tmp_path, {"s21_off_db": -10.0})
    assert main(["attenuation", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


# --- JSON goldens -------------------------------------------------------------------

JSON_GOLDEN = Path(__file__).parent / "golden" / "cli_json"
JSON_GOLDEN_RUNS = {  # case: (command, config, extra argv); input files are relative to the run directory
    "sms_synthetic": ("sms", {"target_s_db": -3.0, "phases": [0.0, 0.7], "n_rep": 4000, "seed": 3}, []),
    "sms_synthetic_seed": ("sms", {"target_s_db": -3.0, "n_rep": 4000, "seed": 3}, ["--seed", "11"]),
    "sms_file": ("sms", {"input_csv": "quad.csv"}, []),
    "sms_file_null_uncertainty": ("sms", {"input_csv": "quad.csv", "gain_uncertainty_db": None}, ["--seed", "5"]),
    "tms": ("tms", {"r_values": [0.25, 0.5], "n_rep": 4000, "seed": 2}, []),
    "tms_seed": ("tms", {"r_values": [0.25, 0.5], "n_rep": 4000, "thermal_photons": 0.1}, ["--seed", "7"]),
    "sntj_fit": (
        "sntj-fit",
        {"csv": "sntj.csv", "frequency": 3.8525e9, "bandwidth": 3e3,
         "initial_guess": {"g_sys_db": 60.0, "t_sys": 3.0, "t_electron": 0.04}},
        [],
    ),
    "normalize": ("normalize", {"g_sys_db": 61.7, "f_acq": 3.8525e9, "chain": {"n_cells": 300}, "flux": 0.1}, []),
    "attenuation": ("attenuation", {"s21_off_db": -10.0, "eta_db": -1.0, "g_sys_db": 61.0}, ["--seed", "3"]),
}


def _write_json_golden_inputs(directory):
    batches = [
        sample_gaussian(np.diag([0.8, 1.6]) + 3.0 * np.eye(2), n_rep=3000, seed=21, pump_state="ON"),
        sample_gaussian(4.0 * np.eye(2), n_rep=3000, seed=22, pump_state="OFF"),
    ]
    write_quadrature_csv(directory / "quad.csv", batches)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = SntjModel(frequency=3.8525e9, bandwidth=3e3, t_electron=0.05, t_sys=4.0, g_sys=10**6.17)
    hf_e = 6.62607015e-34 * model.frequency / 1.602176634e-19
    v = np.linspace(-8 * hf_e, 8 * hf_e, 201)
    y = sntj_noise_power(model, v) * (1 + 0.005 * np.random.default_rng(11).standard_normal(v.size))
    np.savetxt(directory / "sntj.csv", np.column_stack([v, y]), delimiter=",")


def _without_git_revision(text):
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith('  "git_revision": '))


def test_json_commands_match_goldens(tmp_path, monkeypatch):
    # result.json and meta.json (less the git revision) of the JSON commands,
    # byte for byte
    monkeypatch.chdir(tmp_path)
    _write_json_golden_inputs(tmp_path)
    for case, (command, config, extra) in JSON_GOLDEN_RUNS.items():
        cfg = write_config(tmp_path, config, f"{case}.json")
        assert main([command, "--config", cfg, "--out", case, *extra]) == 0, case
        result = (tmp_path / case / "result.json").read_text()
        meta = _without_git_revision((tmp_path / case / "meta.json").read_text())
        assert result == (JSON_GOLDEN / f"{case}.result.json").read_text(), case
        assert meta == (JSON_GOLDEN / f"{case}.meta.json").read_text(), case


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_git_revision_marks_edited_package_dirty(tmp_path, monkeypatch):
    # a copy of the package in its own repository: HEAD's sha while the
    # package matches it, "+dirty" once a tracked package file is edited;
    # untracked files and files outside the package do not count
    package = tmp_path / "snailtwpa"
    shutil.copytree(Path(cli.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "notes.txt").write_text("outside the package\n")

    def git(*args):
        command = ["git", "-c", "user.name=test", "-c", "user.email=test@example.org", "-c", "commit.gpgsign=false", *args]
        return subprocess.run(command, cwd=tmp_path, check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "package")
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    assert cli._git_revision() == git("rev-parse", "HEAD")

    (tmp_path / "notes.txt").write_text("edited\n")
    (package / "untracked.py").write_text("")
    assert cli._git_revision() == git("rev-parse", "HEAD")

    with open(package / "circuit.py", "a") as source:
        source.write("# edited\n")
    assert cli._git_revision() == git("rev-parse", "HEAD") + "+dirty"

    git("commit", "-q", "-am", "edit")
    assert cli._git_revision() == git("rev-parse", "HEAD")
