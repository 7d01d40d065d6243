"""Regenerate montecarlo_reference.json.

    python3 perfbench/make_reference.py

Runs the montecarlo-desk op once for each of SEEDS and records, per
variant and metric, the mean and spread of log(RMSE mean) across seeds.
The benchmark's output check compares each op's report with these
figures; rerun this only when the program's numbers are meant to change.
"""
import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SEEDS = range(1000, 1030)


def main():
    logs = {}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for seed in SEEDS:
        work = Path(tempfile.mkdtemp(dir=out))
        try:
            workloads.generate_inputs("montecarlo-desk", seed, work / "inputs")
            (argv,) = workloads.make("montecarlo-desk", work / "inputs").argv(work)
            code, err = workloads.run_cli(argv)
            if code != 0:
                raise SystemExit(f"seed {seed}: evaluate exited {code}: {err}")
            report = json.loads((work / "report" / "report.json").read_text())
        finally:
            shutil.rmtree(work)
        for variant, per_metric in report["metrics"].items():
            for metric, stats in per_metric.items():
                logs.setdefault(variant, {}).setdefault(metric, []).append(
                    math.log(stats["mean"]))
        print(f"seed {seed} done", flush=True)
    ref = {
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "extrinsic_samples": workloads.MC_EXTRINSIC_SAMPLES,
        "sequences_per_sample": workloads.MC_SEQUENCES,
        "log_mean": {v: {m: statistics.fmean(x) for m, x in per.items()}
                     for v, per in logs.items()},
        "log_std": {v: {m: statistics.stdev(x) for m, x in per.items()}
                    for v, per in logs.items()},
    }
    workloads.MC_REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")


if __name__ == "__main__":
    main()
