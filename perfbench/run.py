"""mimufusion benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs ops in a closed
loop with one client for S seconds and checks every op's outputs. With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` ops alternate between untraced and traced and it reports
the per-layer metrics. Earlier stdout lines are a human-readable report.
See perfbench/README.md.
"""
import os

# One BLAS thread, set before numpy loads, so that the figures are about
# the program and not about the scheduler. Child processes inherit it.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# The probe's typical duration on the host the baseline was taken on
# (see README.md, "Host-speed normalisation").
PROBE_REFERENCE_S = 0.08
SETUP_TIMEOUT_S = 120
FULL_SCALE_TRIALS = 100 * 5000 * 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "samples_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(durations):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond). With ten samples or fewer no
    such percentile exists and the minimum is reported."""
    xs = sorted(durations)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def manifest(args, workload):
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mimufusion").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "inputs": workload.sizes(),
    }


class HostClock:
    """Scales measured seconds to the reference host speed.

    The host is shared and its speed swings by tens of percent over
    seconds to minutes. Between timed pieces of work, a probe process
    (probe.py) runs a fixed piece of work while this process waits;
    each piece is scaled by PROBE_REFERENCE_S over the mean of the probes
    just before and just after it. The program never runs inside the
    probe, so a change to the program moves the scaled time as much as
    the raw one. The probe has its own process so that its memory does
    not count in peak_rss_mb.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        self.tick()

    def probe(self):
        self.proc.stdin.write("\n")
        return float(self.proc.stdout.readline())

    def tick(self):
        """Probe now, for the next piece of work to start from."""
        self.last = self.probe()

    def scale(self, seconds):
        now = self.probe()
        factor = PROBE_REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return seconds * factor

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def timed_setups(args, inputs, clock):
    """Run the set-up SETUP_REPEATS times, each in a fresh process.
    Returns (raw seconds, host-scaled seconds)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "gen_inputs.py"), args.workload,
             str(args.seed), str(inputs)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        scaled.append(clock.scale(raw[-1]))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return raw, scaled


def run_op(workload, op_dir, tracer=None, op_id=None):
    """Run one op; returns (seconds, problems). The checks run after
    the timed region and outside any instrumentation."""
    op_dir.mkdir()
    problems = []
    start = end = None
    try:
        with (tracing.instrument(tracer) if tracer else contextlib.nullcontext()):
            with (tracer.op_span(op_id) if tracer else contextlib.nullcontext()):
                start = time.perf_counter()
                for argv in workload.argv(op_dir):
                    code, err = workloads.run_cli(argv)
                    if code != 0:
                        problems.append(f"{argv[0]} exited {code}: {err.strip()}")
                        break
                end = time.perf_counter()
        if not problems:
            problems = workload.check(op_dir)
    except Exception:
        problems.append(traceback.format_exc())
    if end is None:
        end = time.perf_counter()
    shutil.rmtree(op_dir, ignore_errors=True)
    return end - (start if start is not None else end), problems


def measure(args, workload, work, tracer, clock):
    """Warm up with one op, then run ops until ``args.seconds`` pass.
    Returns a list of (raw seconds, scaled seconds, traced, problems),
    the warm-up first with no times."""
    work.mkdir()
    _, problems = run_op(workload, work / "warmup")
    ops = [(None, None, False, problems)]
    clock.tick()
    deadline = time.perf_counter() + args.seconds
    i = 0
    # A traced run needs at least one untraced and one traced op.
    while time.perf_counter() < deadline or (tracer is not None and i < 2):
        traced = tracer is not None and i % 2 == 1
        secs, problems = run_op(workload, work / f"op{i}",
                                tracer if traced else None, i)
        ops.append((secs, clock.scale(secs), traced, problems))
        i += 1
    return ops


def end_to_end(workload, ops, setup_scaled):
    """End-to-end metrics from host-scaled times, plus report details."""
    secs = [scaled for _, scaled, _, _ in ops if scaled is not None]
    ok = sum(1 for _, scaled, _, p in ops if scaled is not None and not p)
    wall = sum(secs)
    value, pct, beyond = tail(secs)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "op_p50_s": statistics.median(secs),
        "op_tail_s": value,
        "samples_per_s": workload.raw_samples_per_op * ok / wall,
        "trials_per_s": workload.trials_per_op * ok / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = [r for r, _, _, _ in ops if r is not None]
    info = {"op_tail_percentile": pct, "op_tail_beyond": beyond,
            "timed_ops": len(secs), "op_seconds_scaled": secs,
            "op_seconds_raw": raw, "op_p50_s_raw": statistics.median(raw)}
    if workload.name == "montecarlo-desk":
        info["projected_full_scale_h"] = FULL_SCALE_TRIALS / metrics["trials_per_s"] / 3600
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mimufusion" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no mimufusion sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    clock = HostClock()
    try:
        inputs = work / "inputs"
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            with tracing.instrument(tracer), tracer.op_span(-1):
                workloads.generate_inputs(args.workload, args.seed, inputs)
        else:
            setup_raw, setup_scaled = timed_setups(args, inputs, clock)
        workload = workloads.make(args.workload, inputs)
        workload.prepare()
        info = {"manifest": manifest(args, workload)}
        ops = measure(args, workload, work / "ops", tracer, clock)
    finally:
        clock.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = [p for _, _, _, p in ops if p]
    for problems in failed:
        print("op failed: " + "; ".join(problems), file=sys.stderr)
    error_rate = len(failed) / len(ops)
    correct = not failed
    if tracer:
        traced = [s for _, s, t, _ in ops if t]
        untraced = [s for _, s, t, _ in ops if s is not None and not t]
        metrics, mismatched = tracing.layer_metrics(
            tracer, statistics.median(traced), statistics.median(untraced))
        metrics["error_rate"] = error_rate
        units = {**tracing.PER_LAYER_UNITS, **tracing.REPORT_ONLY_UNITS}
        if mismatched:
            correct = False
            print(f"exact counts differ between ops: {mismatched}", file=sys.stderr)
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
    else:
        metrics, more = end_to_end(workload, ops, setup_scaled)
        info.update(more, setup_seconds_raw=setup_raw,
                    setup_seconds_scaled=setup_scaled)
        units = END_TO_END_UNITS

    info["error_rate"] = error_rate
    info["metrics"] = metrics
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(info, indent=2) + "\n")
    print("manifest " + json.dumps(info["manifest"], sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    print(f"{len(failed)} of {len(ops)} ops failed")
    if not tracer:
        print(f"op_tail_s is p{info['op_tail_percentile']:.0f} of "
              f"{info['timed_ops']} timed ops ({info['op_tail_beyond']} beyond); "
              f"unscaled op_p50_s {info['op_p50_s_raw']:.6g} s")
        if "projected_full_scale_h" in info:
            print(f"projected evaluate --full-scale: "
                  f"{info['projected_full_scale_h']:.2f} h (information only)")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                    if name not in tracing.REPORT_ONLY_UNITS},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
