"""Generate one workload's inputs in a fresh process.

    python3 perfbench/gen_inputs.py WORKLOAD SEED DIR

run.py times this whole process, interpreter start and the import of
mimufusion included, as the benchmark's set-up time.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mimufusion.cli  # noqa: E402,F401  (the import is part of set-up)
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, out = sys.argv[1:]
    workloads.generate_inputs(workload, int(seed), out)
