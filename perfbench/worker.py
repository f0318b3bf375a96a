"""The workload process: runs one workload in a closed loop.

``worker.py --workload W --seed N --seconds S --trace 0|1 --workdir D
--record R`` prepares the inputs, runs one untimed warm-up operation, then
one operation after another (one caller, each started when the previous
returned) until the next one would end after S seconds, always at least
MIN_OPS.  Every operation is timed with the host-speed correction of
hostspeed.py, and its outputs are checked.  With ``--trace 1``
operations alternate between traced and untraced, so the tracing overhead
is measured in the same run.  The record R (JSON) holds the environment,
every operation and the metrics; spans go next to it as CSV.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 3


def blas_threads():
    """Thread count the OpenBLAS that scipy's LAPACK uses reports, if found."""
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads"):
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
            return lib.scipy_openblas_get_num_threads()
    return None


def environment(args) -> dict:
    def blas_config(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["lapack"].get("openblas configuration")

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_config(np),
        "scipy_openblas": blas_config(scipy),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
    }


def run(args) -> None:
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    ctx = workload.prepare(args.seed, workdir)
    first = workload.operation(ctx)

    tracer = tracing.Tracer() if args.trace else None
    ops = []
    start = time.perf_counter()
    while True:
        index = len(ops)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
            tracer.begin(index)
        error = None
        with hostspeed.Sampled() as timing:
            try:
                outputs = workload.operation(ctx)
            except Exception:  # an operation that raises counts as failed; the loop goes on
                outputs, error = None, traceback.format_exc()
        if traced:
            tracer.end()
            tracer.uninstall()
        if error is None:
            try:
                problems, dev = workload.check(outputs, first)
            except Exception:  # so does a check that cannot read the outputs
                error = traceback.format_exc()
        if error is not None:
            problems, dev = [error], None
        ops.append({"index": index, "traced": traced, "host_wall_s": timing.measured,
                    "wall_s": timing.corrected, "speed_samples": len(timing.samples), "ok": not problems,
                    "ref_dev_db": dev, "problems": problems})
        elapsed = time.perf_counter() - start
        walls = [op["host_wall_s"] for op in ops]
        if len(ops) >= MIN_OPS and elapsed + statistics.median(walls) > args.seconds:
            break

    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    host_untraced = [op["host_wall_s"] for op in ops if not op["traced"]]
    devs = [op["ref_dev_db"] for op in ops if op["ref_dev_db"] is not None]
    record = {
        "environment": environment(args),
        "measured_s": elapsed,
        "operations": ops,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "wall_s": untraced,
        "host_wall_s": host_untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_dev_db": max(devs) if devs else None,
    }
    if tracer is not None:
        per_op = tracer.per_op()
        for op in ops:
            if op["traced"]:
                tracing.rescale(per_op[op["index"]], op["wall_s"] / op["host_wall_s"])
        record["per_layer"] = tracing.layer_metrics(per_op, untraced)
        record["per_layer"]["check.ref_dev_db"] = (record["ref_dev_db"] or 0.0, "dB")
        record["per_op"] = per_op
        tracer.write_spans(Path(args.record).with_suffix(".spans.csv"))
    Path(args.record).write_text(json.dumps(record, indent=1, default=float) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", required=True)
    run(parser.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
