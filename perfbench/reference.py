"""Record the reference outputs of the circuit workloads in reference.json.

    python3 perfbench/reference.py

Runs one operation of gain-phase-100 and of idler-700 for each of SEEDS and
stores, per output, the median over the seeds as the reference and
TOL_FACTOR times the largest deviation from it (at least MIN_TOL_DB) as
the tolerance.  The outputs depend on the disorder draw, so the tolerance
has to cover any seed; exact repetition within a run is checked
separately.  The analysis workload checks against its known truth and
needs no entry here.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_FILE, WORKLOADS  # noqa: E402

SEEDS = range(64)  # seeds from 64 upward are held out of the reference
TOL_FACTOR = 3.0
MIN_TOL_DB = 1.0


def tolerance(columns, reference) -> float:
    worst = max(abs(v - r) for col, r in zip(columns, reference) for v in col)
    return max(MIN_TOL_DB, math.ceil(2.0 * TOL_FACTOR * worst) / 2.0)


def main() -> int:
    gain_phase, idler = WORKLOADS["gain-phase-100"], WORKLOADS["idler-700"]
    gains, levels = [], []
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for seed in SEEDS:
            gains.append(gain_phase.gains(gain_phase.operation(gain_phase.prepare(seed, Path(tmp)))))
            levels.append(idler.operation(idler.prepare(seed, Path(tmp)))["idler_dbm"])
            print(f"seed {seed}: gain_db {gains[-1]}, idler_dbm {levels[-1]}", file=sys.stderr)
    gain_cols = list(zip(*gains))
    gain_ref = [statistics.median(col) for col in gain_cols]
    idler_ref = statistics.median(levels)
    reference = {
        "seed_range": [SEEDS[0], SEEDS[-1]],
        "rule": f"median over seeds; tolerance {TOL_FACTOR} x largest deviation, at least {MIN_TOL_DB} dB",
        "gain-phase-100": {"gain_db": gain_ref, "tol_db": tolerance(gain_cols, gain_ref)},
        "idler-700": {"idler_dbm": idler_ref, "tol_db": tolerance([levels], [idler_ref])},
    }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
