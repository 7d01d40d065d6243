"""Self-tests of the benchmark: python3 -m pytest perfbench

They run the benchmark as the command in BENCHMARK.json does, with
short runs, so they take about two minutes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(results, workload, trace):
    out = results(workload, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in out["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    report = json.loads((HERE / "out" / f"{workload}.trace{trace}.json").read_text())
    named = set(out["metrics"]) | (set(tracing.REPORT_ONLY_UNITS) if trace else set())
    assert set(report["metrics"]) == named


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_runs(results, workload):
    first = results(workload, 1)["metrics"]
    proc = bench(workload, 1)
    again = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in tracing.EXACT_COUNTS:
        assert first[name]["value"] == again[name]["value"], name


def test_instrumentation_is_removed_after_a_traced_op(tmp_path):
    before = [(mod, attr, fn) for mod, attr, fn in tracing.bindings()]
    assert len(before) > 50
    workloads.generate_inputs("pipeline-60s", SEED, tmp_path / "inputs")
    workload = workloads.make("pipeline-60s", tmp_path / "inputs")
    workload.prepare()
    tracer = tracing.Tracer()
    _, problems = run.run_op(workload, tmp_path / "op", tracer, 0)
    assert problems == []
    for mod, attr, fn in before:
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} still wrapped"
    layers = {span[0].split(".")[0] for span in tracer.spans}
    assert layers == set(tracing.LAYERS) | {tracing.ROOT_SPAN}


def test_instrumentation_is_removed_when_the_block_raises():
    before = tracing.bindings()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            raise RuntimeError
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1, 0], ["cli.main", 1.0, 9.0, 0, 0],
                    ["csvio.read_json", 2.0, 5.0, 1, 0]]
    busy, by_name, c = tracing._op_summary(tracer.spans, {}, [0, 1, 2])
    assert busy == {"cli": 5.0, "csvio": 3.0}
    assert c["unaccounted_s"] == 2.0 and c["op_s"] == 10.0


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(1, 41)))
    assert (value, pct, beyond) == (30, 75.0, 10)
    assert run.tail([3, 1, 2])[0] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("pipeline-60s", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
