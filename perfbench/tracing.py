"""Span recorder that measures the mimufusion layers from outside.

``instrument`` swaps every public function of the layer modules, at
every module binding where a caller looks it up, for a wrapper that
records a span, and puts the original objects back when it exits. The
program itself is not edited and has no tracing switch.

A span is ``[name, start, end, parent, op]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at
the root) and ``op`` the operation id. Spans stay in memory until the
run ends. Self time is a span's duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
import types

# The package modules that the benchmark reports as layers. geometry,
# types and errors are reached only through these and get no span.
LAYERS = ("cli", "csvio", "simulation", "harness", "calibration", "vimu",
          "preintegration")
ROOT_SPAN = "op"


def bindings():
    """(module, attribute, function) for every public layer function at
    every layer-module binding, including names imported with
    ``from .x import y``."""
    owners = {f"mimufusion.{name}" for name in LAYERS}
    found = []
    for mod in (importlib.import_module(name) for name in sorted(owners)):
        for attr, obj in sorted(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ in owners):
                found.append((mod, attr, obj))
    return found


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Work counts recorded at the span that does the work, by span name.
# Each takes (args, kwargs, result) and returns a dict of counts.
COUNTERS = {
    "preintegration.preintegrate": lambda a, k, r: {
        "samples": len(_arg(a, k, 0, "series")),
        "cov": bool(_arg(a, k, 5, "with_covariance", True))},
    "csvio.read_imu_csv": lambda a, k, r: {"rows": len(r)},
    "csvio.write_imu_csv": lambda a, k, r: {"rows": len(_arg(a, k, 1, "series"))},
    "csvio.write_virtual_csv": lambda a, k, r: {
        "rows": len(_arg(a, k, 1, "series"))},
    # Everything the program writes is ASCII, so characters are bytes.
    "csvio.atomic_write_text": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text"))},
    "calibration.estimate_rotation": lambda a, k, r: {
        "samples": len(_arg(a, k, 0, "inp").series_a), "iterations": r[1].iterations},
    "calibration.estimate_translation": lambda a, k, r: {
        "samples": len(_arg(a, k, 0, "inp").series_a)},
    "vimu.fuse_series": lambda a, k, r: {
        "sensor_samples": sum(len(s) for s in _arg(a, k, 1, "series"))},
    "simulation.apply_measurement_noise": lambda a, k, r: {
        "samples": len(_arg(a, k, 0, "gyro"))},
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self.op = None

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        self.op = op_id
        idx = self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end(idx)
            self.op = None

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                # A changed signature loses the counts, not the op.
                try:
                    self.counts[idx] = counter(args, kwargs, result)
                except (TypeError, AttributeError, IndexError):
                    pass
            return result
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     **self.counts.get(i, {})}) + "\n")


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every layer binding for the duration of the block."""
    originals = bindings()
    try:
        for mod, attr, fn in originals:
            layer = fn.__module__.rsplit(".", 1)[1]
            setattr(mod, attr, tracer.wrap(f"{layer}.{fn.__name__}", fn))
        yield
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


# Per-layer metrics. busy_s and self_s are self times per op; counts
# are per op; us_per_* divide a summed inclusive time by a summed count.
PER_LAYER_UNITS = {
    "preintegration.us_per_sample": "us",
    "preintegration.busy_s": "s",
    "preintegration.windows": "count",
    "preintegration.cov_windows": "count",
    "preintegration.samples": "count",
    "csvio.rows_written": "count",
    "csvio.bytes_written": "B",
    "csvio.rows_read": "count",
    "csvio.busy_s": "s",
    "calibration.rotation.us_per_sample": "us",
    "calibration.translation.us_per_sample": "us",
    "calibration.busy_s": "s",
    "calibration.gn_iterations": "count",
    "calibration.calls": "count",
    "vimu.fuse.us_per_sensor_sample": "us",
    "vimu.busy_s": "s",
    "vimu.build_fusion.calls": "count",
    "vimu.build_fusion_per_fuse": "ratio",
    "simulation.us_per_sample": "us",
    "simulation.busy_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
    "error_rate": "ratio",
}
# Times that are 0 by construction on one of the gated workloads. The
# result line carries only times that vary from run to run, so these go
# to the readable report and the report file.
REPORT_ONLY_UNITS = {
    "preintegration.cov.us_per_sample": "us",
    "preintegration.nocov.us_per_sample": "us",
    "csvio.write.us_per_row": "us",
    "csvio.read.us_per_row": "us",
    "harness.ingest.busy_s": "s",
    "harness.score.busy_s": "s",
    "setup.simulation.busy_s": "s",
    "setup.csvio.busy_s": "s",
}

# Per-op counts that must repeat exactly for identical inputs. Not
# csvio.bytes_written: the calibration JSON records its own run time.
EXACT_COUNTS = ("preintegration.windows", "preintegration.cov_windows",
                "preintegration.samples",
                "calibration.gn_iterations", "calibration.calls",
                "csvio.rows_written", "csvio.rows_read", "vimu.build_fusion.calls")

_SCORE = ("harness.rmse_metrics", "harness.true_vimu_state")
_CSV_WRITES = ("csvio.write_imu_csv", "csvio.write_virtual_csv")
_CSV_READS = ("csvio.read_imu_csv", "csvio.read_virtual_csv")


def _op_summary(spans, counts, ids):
    """Self time per layer, calls and self time per span name, and work
    counts with the inclusive times that go with them, for one op."""
    child = dict.fromkeys(ids, 0.0)
    for i in ids:
        parent = spans[i][3]
        if parent in child:
            child[parent] += spans[i][2] - spans[i][1]
    busy = {}      # layer -> self seconds
    by_name = {}   # span name -> [calls, self seconds]
    c = {"cov_windows": 0, "cov_samples": 0, "cov_s": 0.0, "nocov_samples": 0,
         "nocov_s": 0.0,
         "rows_written": 0, "write_s": 0.0, "bytes_written": 0,
         "rows_read": 0, "read_s": 0.0, "rot_samples": 0, "rot_s": 0.0,
         "trans_samples": 0, "trans_s": 0.0, "gn_iterations": 0,
         "sensor_samples": 0, "fuse_s": 0.0, "sim_samples": 0, "op_s": 0.0,
         "unaccounted_s": 0.0}
    for i in ids:
        name, start, end, parent, _ = spans[i]
        dur = end - start
        own = dur - child[i]
        n = counts.get(i, {})
        if name == ROOT_SPAN:
            c["op_s"] += dur
            c["unaccounted_s"] += own
            continue
        layer = name.split(".", 1)[0]
        busy[layer] = busy.get(layer, 0.0) + own
        entry = by_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
        if name == "preintegration.preintegrate":
            kind = "cov" if n.get("cov", True) else "nocov"
            c["cov_windows"] += kind == "cov"
            c[f"{kind}_samples"] += n.get("samples", 0)
            c[f"{kind}_s"] += dur
        elif name in _CSV_WRITES:
            c["rows_written"] += n.get("rows", 0)
            c["write_s"] += dur
        elif name == "csvio.atomic_write_text":
            c["bytes_written"] += n.get("bytes", 0)
        elif name in _CSV_READS:
            c["rows_read"] += n.get("rows", 0)
            if parent < 0 or spans[parent][0] not in _CSV_READS:
                c["read_s"] += dur
        elif name == "calibration.estimate_rotation":
            c["rot_samples"] += n.get("samples", 0)
            c["rot_s"] += dur
            c["gn_iterations"] += n.get("iterations", 0)
        elif name == "calibration.estimate_translation":
            c["trans_samples"] += n.get("samples", 0)
            c["trans_s"] += dur
        elif name == "vimu.fuse_series":
            c["sensor_samples"] += n.get("sensor_samples", 0)
            c["fuse_s"] += dur
        elif name == "simulation.apply_measurement_noise":
            c["sim_samples"] += n.get("samples", 0)
    return busy, by_name, c


def _calls(by_name, name):
    return by_name.get(name, [0])[0]


def _self_of(by_name, names):
    return sum(by_name[n][1] for n in names if n in by_name)


def _per_unit(total_s, count):
    """Microseconds per unit of work; 0 where there was no work."""
    return total_s * 1e6 / count if count else 0.0


def layer_metrics(tracer, traced_p50, untraced_p50):
    """Per-layer metrics from the recorded spans.

    Ops with a non-negative id are timed ops; op id -1 is the traced
    set-up. Returns (metrics, mismatched) where ``mismatched`` names the
    exact counts that differed between ops.
    """
    spans, counts = tracer.spans, tracer.counts
    by_op = {}
    for i, span in enumerate(spans):
        by_op.setdefault(span[4], []).append(i)
    setup = by_op.pop(-1, [])
    ops = [_op_summary(spans, counts, ids) for _, ids in sorted(by_op.items())]

    per_op = []
    totals = {}
    for busy, by_name, c in ops:
        for key, val in c.items():
            totals[key] = totals.get(key, 0) + val
        fuses = _calls(by_name, "vimu.fuse_series")
        builds = _calls(by_name, "vimu.build_fusion")
        per_op.append({
            "preintegration.busy_s": busy.get("preintegration", 0.0),
            "preintegration.windows": _calls(by_name, "preintegration.preintegrate"),
            "preintegration.cov_windows": c["cov_windows"],
            "preintegration.samples": c["cov_samples"] + c["nocov_samples"],
            "csvio.rows_written": c["rows_written"],
            "csvio.bytes_written": c["bytes_written"],
            "csvio.rows_read": c["rows_read"],
            "csvio.busy_s": busy.get("csvio", 0.0),
            "calibration.busy_s": busy.get("calibration", 0.0),
            "calibration.gn_iterations": c["gn_iterations"],
            "calibration.calls": _calls(by_name, "calibration.calibrate"),
            "vimu.busy_s": busy.get("vimu", 0.0),
            "vimu.build_fusion.calls": builds,
            "vimu.build_fusion_per_fuse": builds / fuses if fuses else 0.0,
            "simulation.busy_s": busy.get("simulation", 0.0),
            "harness.ingest.busy_s": _self_of(by_name, ["harness.ingest_csv"]),
            "harness.score.busy_s": _self_of(by_name, _SCORE),
            "harness.self_s": busy.get("harness", 0.0),
            "cli.self_s": busy.get("cli", 0.0),
        })

    metrics = {key: statistics.median_low(op[key] for op in per_op)
               for key in per_op[0]}
    mismatched = [key for key in EXACT_COUNTS
                  if len({op[key] for op in per_op}) > 1]
    sim_s = sum(b.get("simulation", 0.0) for b, _, _ in ops)
    metrics.update({
        "preintegration.us_per_sample":
            _per_unit(totals["cov_s"] + totals["nocov_s"],
                      totals["cov_samples"] + totals["nocov_samples"]),
        "preintegration.cov.us_per_sample":
            _per_unit(totals["cov_s"], totals["cov_samples"]),
        "preintegration.nocov.us_per_sample":
            _per_unit(totals["nocov_s"], totals["nocov_samples"]),
        "csvio.write.us_per_row": _per_unit(totals["write_s"], totals["rows_written"]),
        "csvio.read.us_per_row": _per_unit(totals["read_s"], totals["rows_read"]),
        "calibration.rotation.us_per_sample":
            _per_unit(totals["rot_s"], totals["rot_samples"]),
        "calibration.translation.us_per_sample":
            _per_unit(totals["trans_s"], totals["trans_samples"]),
        "vimu.fuse.us_per_sensor_sample":
            _per_unit(totals["fuse_s"], totals["sensor_samples"]),
        "simulation.us_per_sample": _per_unit(sim_s, totals["sim_samples"]),
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
        "trace.unaccounted_frac": totals["unaccounted_s"] / totals["op_s"],
    })
    setup_busy = _op_summary(spans, counts, setup)[0] if setup else {}
    metrics["setup.simulation.busy_s"] = setup_busy.get("simulation", 0.0)
    metrics["setup.csvio.busy_s"] = setup_busy.get("csvio", 0.0)
    return metrics, mismatched
