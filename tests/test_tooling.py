"""Contracts that tools outside the package rely on."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snailtwpa import circuit, cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_commands_are_public_functions_of_cli():
    # a tracer wraps the public functions of cli and finds the commands
    # among them by identity
    for name, command in cli.COMMANDS.items():
        assert inspect.isfunction(command), name
        assert command.__module__ == cli.__name__ and not command.__name__.startswith("_"), name
        assert getattr(cli, command.__name__) is command, name


def test_every_command_has_a_table():
    # parse reads a command's config by its table
    assert set(cli.COMMANDS) == set(cli.TABLES)


def _package_imports(demo: Path) -> tuple:
    """A demo's syntax tree, and the names it imports from the package,
    each with its object."""
    tree = ast.parse(demo.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("snailtwpa"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    return tree, imported


def test_demo_imports_exist():
    # checked from the source, without running the demos
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        tree, _ = _package_imports(demo)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("snailtwpa"):
                        importlib.import_module(alias.name)


def test_demo_calls_bind_to_signatures():
    # a call to a name imported from the package must bind to its current
    # signature; checked from the source, without running the demos
    n_calls = 0
    for demo in sorted(DEMOS.glob("*.py")):
        tree, imported = _package_imports(demo)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
                where = f"{demo.name}:{node.lineno} {node.func.id}"
                assert not any(isinstance(arg, ast.Starred) for arg in node.args), where
                assert all(kw.arg is not None for kw in node.keywords), where
                try:
                    inspect.signature(imported[node.func.id]).bind(*node.args, **{kw.arg: kw for kw in node.keywords})
                except TypeError as err:
                    raise AssertionError(f"{where}: {err}") from None
                n_calls += 1
    assert n_calls


def test_readme_example_configs_parse(tmp_path, monkeypatch):
    # README's example block holds one JSON object after each "// <command>"
    # line; each must still parse, so a key dropped from a command's table
    # cannot stay in the README
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Example configs.", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    examples = {}
    for line in block.splitlines():
        if line.startswith("//"):
            command = line[2:].split()[0]
            examples[command] = ""
        else:
            examples[command] += line + "\n"
    assert set(examples) <= set(cli.TABLES) and len(examples) >= 4, sorted(examples)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sntj.csv").write_text("".join(f"{v * 1e-5!r},{1e-12 + v * 1e-13!r}\n" for v in range(-5, 6)))
    for command, text in examples.items():
        cli.parse(command, json.loads(text))


@pytest.mark.parametrize(
    "demo, writes",
    [
        ("01_snail_flux_tunability.py", "snail_coefficients.csv"),
        ("04_single_mode_squeezing.py", None),
        ("05_two_mode_entanglement.py", None),
        ("06_sntj_calibration.py", None),
    ],
)
def test_fast_demos_run(tmp_path, demo, writes):
    # the demos that take about a second or less run to the end: a call that
    # binds can still use its result wrongly
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    if writes is not None:
        assert (tmp_path / writes).is_file()


def test_benchmark_workloads_run_and_pass_their_checks(tmp_path):
    # the benchmark (perfbench/workloads.py, loaded from its file and left
    # unchanged) calls the package by name; each workload's warm-up and one
    # operation must run and pass the workload's own checks
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    declared = {entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert set(workloads.WORKLOADS) == declared
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload.warm_up(workdir)
        outputs = workload.operation(workload.prepare(0, workdir))
        problems, _ = workload.check(outputs, outputs)
        assert problems == [], (name, problems)


def test_benchmark_tracer_counts_a_traced_transient():
    # the benchmark's --trace 1 path (perfbench/tracing.py, loaded from its
    # file and left unchanged) wraps circuit.simulate_transient, binds its
    # parameters by name and counts dgtsv calls through a stand-in lapack;
    # run on the idler-700 warm-up chain and drive
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    drive = circuit.three_wave_drive(7.705e9, delta_bins=1, window=6e-10, settle_time=0.0)
    chain = circuit.build_chain(circuit.ChainConfig(n_cells=4), 0.684, f_ref=drive.tones[0].frequency)
    real = circuit.lapack
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert circuit.lapack is not real
        tracer.begin(0)
        circuit.simulate_transient(chain, drive)
        tracer.end()
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    assert counts["circuit.steps"] == drive.n_total
    assert counts["circuit.cell_steps"] == 4 * drive.n_total
    assert counts["circuit.dgtsv_calls"] >= drive.n_total
    assert circuit.lapack is real and real.__name__ == "scipy.linalg._flapack"
