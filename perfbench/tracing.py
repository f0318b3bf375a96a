"""Spans and counts around the public functions of the snailtwpa layers.

The tracer is installed from the benchmark, not from the program: it
replaces every public function of ``snailtwpa.snail``, ``circuit``,
``gaussian``, ``calibration`` and ``cli`` with a wrapper wherever a layer
module refers to it (so ``circuit.find_phi_star``, which ``circuit``
imports from ``snail``, is wrapped too, as are the ``cli.COMMANDS``
entries), and replaces the ``lapack`` module that ``circuit`` calls with a
proxy that counts ``dgtsv`` calls.  :meth:`Tracer.uninstall` puts every
original back.

Spans (name, start, end, parent, operation id) and counts are kept in
memory and only recorded while an operation is open, so set-up and output
checks leave no trace.  A span's self time is its duration minus the
durations of its direct children (calls are nested and sequential in the
one benchmark thread); the root span of each operation is named ``op`` and
its self time is the time no layer covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("snail", "circuit", "gaussian", "calibration", "cli")
ROOT_SPAN = "op"


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _transient_work(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    drive = a["drive"]
    resolved = drive.resolve() if hasattr(drive, "resolve") else drive
    n_cells = a["chain"].config.n_cells
    return {"circuit.steps": resolved.n_total, "circuit.cell_steps": resolved.n_total * n_cells}


def _csv_bytes(fn, args, kwargs, result):
    return {"gaussian.csv_bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _records(fn, args, kwargs, result):
    return {"gaussian.records": _bound(fn, args, kwargs)["batch"].n_rep}


def _fit_work(fn, args, kwargs, result):
    return {
        "calibration.fit_sntj.iters": result.n_iter,
        "calibration.fit_sntj.points": len(_bound(fn, args, kwargs)["v_bias"]),
    }


# work counts computed from the arguments and results of single calls
WORK_COUNTS = {
    "circuit.simulate_transient": _transient_work,
    "gaussian.write_quadrature_csv": _csv_bytes,
    "gaussian.estimate_covariance": _records,
    "calibration.fit_sntj": _fit_work,
}


class _CountingLapack:
    """Stands in for ``scipy.linalg.lapack`` inside ``circuit``."""

    def __init__(self, lapack, tracer):
        self._lapack = lapack
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._lapack, name)

    def dgtsv(self, *args, **kwargs):
        self._tracer.count_in("circuit.simulate_transient", "circuit.dgtsv_calls")
        return self._lapack.dgtsv(*args, **kwargs)


class Tracer:
    def __init__(self):
        # each span: [op_id, name, start, end, parent_index]
        self.spans = []
        self.counts = defaultdict(Counter)
        self._stack = []
        self._op = None
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin(self, op_id):
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append([op_id, ROOT_SPAN, time.perf_counter(), None, None])

    def end(self):
        self.spans[self._stack[0]][3] = time.perf_counter()
        self._op = None
        self._stack = []

    def count_in(self, span_name, key):
        if self._op is not None and self.spans[self._stack[-1]][1] == span_name:
            self.counts[self._op][key] += 1

    def _wrap(self, name, fn):
        work = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([self._op, name, time.perf_counter(), None, self._stack[-1]])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if work is not None:
                self.counts[self._op].update(work(fn, args, kwargs, result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"snailtwpa.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(vars(mod), attr, wrapped[obj])
        commands = modules["cli"].COMMANDS
        for key, obj in list(commands.items()):
            self._replace(commands, key, wrapped[obj])
        circuit = modules["circuit"]
        self._replace(vars(circuit), "lapack", _CountingLapack(circuit.lapack, self))

    def _replace(self, namespace, key, value):
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self):
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore = []

    # -- derived metrics ---------------------------------------------------

    def per_op(self):
        """{op_id: {"span_s": {name: inclusive s}, "calls": {name: n},
        "self_s": {layer or "unattributed": s}, "op_s": s, "counts": {...}}}"""
        out = {}
        children = defaultdict(float)
        for op_id, name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        for idx, (op_id, name, start, end, parent) in enumerate(self.spans):
            rec = out.setdefault(
                op_id,
                {"span_s": Counter(), "calls": Counter(), "self_s": Counter(), "op_s": 0.0},
            )
            duration = end - start
            self_time = duration - children[idx]
            if parent is None:
                rec["op_s"] = duration
                rec["self_s"]["unattributed"] += self_time
                continue
            rec["calls"][name] += 1
            rec["self_s"][name.split(".")[0]] += self_time
            if not self._nested_in_same(idx, name):
                rec["span_s"][name] += duration
        for op_id, rec in out.items():
            rec["counts"] = dict(self.counts.get(op_id, {}))
        return out

    def _nested_in_same(self, idx, name):
        parent = self.spans[idx][4]
        while parent is not None:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for op_id, name, start, end, parent in self.spans:
                fh.write(f"{op_id},{name},{start!r},{end!r},{'' if parent is None else parent}\n")


def rescale(rec, factor):
    """Scale the times of one operation's record (for the host-speed correction)."""
    rec["op_s"] *= factor
    for key in ("span_s", "self_s"):
        for name in rec[key]:
            rec[key][name] *= factor


def layer_metrics(per_op, untraced_walls):
    """Per-layer metrics as means over the traced operations."""
    ops = list(per_op.values())
    n = len(ops)

    def mean(get):
        return sum(get(rec) for rec in ops) / n

    def span(name):
        return mean(lambda rec: rec["span_s"].get(name, 0.0))

    def calls(name):
        return mean(lambda rec: rec["calls"].get(name, 0))

    def count(key):
        return mean(lambda rec: rec["counts"].get(key, 0))

    steps = count("circuit.steps")
    transient_s = span("circuit.simulate_transient")
    traced_s = mean(lambda rec: rec["op_s"])
    metrics = {
        "op.traced_s": (traced_s, "s"),
        "op.untraced_s": (statistics.fmean(untraced_walls), "s"),
        "op.traced_count": (n, "count"),
        "trace.overhead_s": (traced_s - statistics.fmean(untraced_walls), "s"),
        "unattributed_s": (mean(lambda rec: rec["self_s"]["unattributed"]), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (mean(lambda rec: rec["self_s"].get(layer, 0.0)), "s")
    metrics.update(
        {
            "circuit.simulate_transient.s": (transient_s, "s"),
            "circuit.simulate_transient.calls": (calls("circuit.simulate_transient"), "count"),
            "circuit.steps": (steps, "count"),
            "circuit.cell_steps": (count("circuit.cell_steps"), "count"),
            "circuit.us_per_step": (1e6 * transient_s / steps if steps else 0.0, "us"),
            "circuit.newton_iters_per_step": (
                count("circuit.dgtsv_calls") / steps if steps else 0.0,
                "iter/step",
            ),
            "circuit.build_chain.s": (span("circuit.build_chain"), "s"),
            "snail.find_phi_star.calls": (calls("snail.find_phi_star"), "count"),
            "circuit.extract_spectrum.s": (span("circuit.extract_spectrum"), "s"),
            "gaussian.write_quadrature_csv.s": (span("gaussian.write_quadrature_csv"), "s"),
            "gaussian.read_quadrature_csv.s": (span("gaussian.read_quadrature_csv"), "s"),
            "gaussian.csv_bytes": (count("gaussian.csv_bytes"), "bytes"),
            "gaussian.sample_gaussian.s": (span("gaussian.sample_gaussian"), "s"),
            "gaussian.estimate_covariance.s": (span("gaussian.estimate_covariance"), "s"),
            "gaussian.records": (count("gaussian.records"), "count"),
            "calibration.fit_sntj.s": (span("calibration.fit_sntj"), "s"),
            "calibration.fit_sntj.iters": (count("calibration.fit_sntj.iters"), "count"),
            "calibration.fit_sntj.points": (count("calibration.fit_sntj.points"), "count"),
            "snail.coefficients_vs_flux.s": (span("snail.coefficients_vs_flux"), "s"),
            "cli.main.s": (span("cli.main"), "s"),
        }
    )
    return metrics
