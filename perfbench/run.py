"""snailtwpa benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload gain-phase-100 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (``src/snailtwpa`` must exist).
Workloads: gain-phase-100, idler-700, analysis (see perfbench/README.md).

The run launches SETUP_PROBES fresh interpreters, one after another, that
import ``snailtwpa.cli`` and make one small warm-up call; ``setup_s`` is
the median time from launch to ready.  Then one worker process runs the
workload (see worker.py) with BLAS pinned to one thread.  A report goes
to standard output, and its last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with ``--trace 1`` the per-layer ones.  Work files go to
``.perfbench/work`` (removed at the end), records to ``.perfbench/records``.
Exit code 0 on a complete run, 2 on bad arguments or a checkout without
the sources, 3 if the workload process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gain-phase-100", "idler-700", "analysis")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # the whole run ends within this, or fails


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the CLI asks git for a revision; keep git from searching above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {TIME_LIMIT_S} s")
    return left


def probe_setup(workload, workdir, log, deadline) -> float:
    """Seconds from launching a fresh interpreter to its warm-up call
    returning, corrected for host speed."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        samples = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready != b"ready\n":
        raise BenchError(f"set-up probe failed (exit {code})")
    samples = json.loads(samples)
    return hostspeed.correct(elapsed, samples["inside"], samples["speed"])


def run_worker(args, workdir, record, log, deadline) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--record", str(record),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
    try:
        code = proc.wait(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process overran {TIME_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"workload process exited with {code}")
    return json.loads(record.read_text())


def tail_note(walls) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 20:
        return f"{n} operations support no tail percentile (needs >= 20 for 10 samples beyond p50)"
    q = math.floor(100.0 * (n - 10) / n)
    value = statistics.quantiles(walls, n=100)[q - 1]
    return f"p{q} {value:.4f} s over {n} operations"


def report(args, setup, rec) -> dict:
    env = rec["environment"]
    attempted, failed = rec["attempted"], rec["failed"]
    walls = rec["wall_s"]
    print(f"snailtwpa benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  machine {env['machine']} ({env['platform']}), nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads {env['blas_threads']}")
    print(f"  OpenBLAS: numpy {env['numpy_openblas']} | scipy {env['scipy_openblas']}")
    print(f"  closed loop, 1 caller: {attempted} operations in {rec['measured_s']:.1f} s after 1 warm-up")
    print(f"  setup_s       {statistics.median(setup):.4f} s    median of {len(setup)} fresh interpreters: "
          + " ".join(f"{x:.3f}" for x in setup))
    print(f"  wall_s        {statistics.median(walls):.4f} s    median of {len(walls)} untraced operations, "
          f"host-speed corrected (uncorrected median {statistics.median(rec['host_wall_s']):.4f} s); "
          f"{tail_note(walls)}")
    print(f"  peak_rss_mb   {rec['peak_rss_mb']:.1f} MB")
    print(f"  failed_ratio  {failed / attempted:.4f}      {failed} of {attempted}")
    print(f"  ref_dev_db    {rec['ref_dev_db']} dB")
    for op in rec["operations"]:
        for problem in op["problems"]:
            print(f"  operation {op['index']} FAILED: {problem}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in rec["per_layer"].items()}
        layers = [k for k in metrics if k.endswith(".self_s")] + ["unattributed_s"]
        covered = sum(metrics[k]["value"] for k in layers)
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
        print(f"  layer self times + unattributed = {covered:.6f} s; traced operation = "
              f"{metrics['op.traced_s']['value']:.6f} s; tracing overhead {metrics['trace.overhead_s']['value']:+.4f} s")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="snailtwpa benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "snailtwpa" / "__init__.py").is_file():
        print(f"no snailtwpa sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench" / "work" / name
    records = ROOT / ".perfbench" / "records"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    records.mkdir(parents=True, exist_ok=True)
    log_path = records / f"{name}.log"
    try:
        with open(log_path, "w") as log:
            setup = [probe_setup(args.workload, workdir, log, deadline) for _ in range(SETUP_PROBES)]
            rec = run_worker(args, workdir, records / f"{name}.json", log, deadline)
    except BenchError as err:
        print(f"benchmark failed: {err}; log in {log_path}", file=sys.stderr)
        print(log_path.read_text()[-4000:], file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(args, setup, rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
