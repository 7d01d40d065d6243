"""The three benchmark workloads: their inputs, operations and output
checks.

Every workload is a closed loop with one client: one op is a fixed list
of ``mimu`` command lines run in-process through
``mimufusion.cli.main``, and the next op starts when the previous one
has finished. All ops of a run reuse the inputs that set-up generated
from the seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
WORKLOADS = ("pipeline-60s", "montecarlo-desk", "calibrate-10min")

KEYFRAME_INTERVAL_S = 0.5
# montecarlo-desk keeps all five variants of plan_desk.yaml and shrinks
# the counts so that one op takes about two seconds.
MC_EXTRINSIC_SAMPLES = 4
MC_SEQUENCES = 10
MC_REFERENCE = Path(__file__).resolve().parent / "montecarlo_reference.json"
# Every sequence simulates all nine grid sensors, because the plan keeps
# the 9-imu variant.
MC_GRID_SENSORS = 9
CALIBRATE_DURATION_S = 600.0

# Output-check tolerances. Over seeds 0-11 the 60 s pair calibrates to
# within 5.3e-5 rad and 1.1e-3 m and the worst keyframe rotation
# increment is off by 3.5e-4 rad; over seeds 0-5 the 10-minute pair
# calibrates to within 1.6e-5 rad and 1.7e-3 m (bias walk limits the
# lever arm).
ROT_TOL_RAD = 5e-4
LEVER_TOL_M = 5e-3
WINDOW_ROT_TOL_RAD = 1e-3
# A report's log(RMSE mean) may sit this many seed-to-seed standard
# deviations from the reference; over the 30 reference seeds the worst
# sat 3.4.
MC_SIGMAS = 6.0


def _write_yaml(path, data):
    Path(path).write_text(yaml.safe_dump(data, sort_keys=False))


def _sim_pair(seed, duration=None):
    d = yaml.safe_load((CONFIGS / "sim_pair.yaml").read_text())
    d["seed"] = seed
    if duration is not None:
        d["duration"] = duration
    return d


def _noise_pair(sim):
    return {"a": sim["imus"][0]["noise"], "b": sim["imus"][1]["noise"]}


def run_cli(argv):
    """Run one command line in-process; returns (exit code, stderr)."""
    import mimufusion.cli as cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def generate_inputs(workload, seed, inputs):
    """Write the workload's inputs for ``seed`` into the directory
    ``inputs``; the same seed gives the same files."""
    inputs = Path(inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "montecarlo-desk":
        plan = yaml.safe_load((CONFIGS / "plan_desk.yaml").read_text())
        plan.update(extrinsic_samples=MC_EXTRINSIC_SAMPLES,
                    sequences_per_sample=MC_SEQUENCES, master_seed=seed)
        _write_yaml(inputs / "plan.yaml", plan)
        return
    duration = CALIBRATE_DURATION_S if workload == "calibrate-10min" else None
    sim = _sim_pair(seed, duration)
    _write_yaml(inputs / "sim.yaml", sim)
    _write_yaml(inputs / "noise.yaml", _noise_pair(sim))
    if workload == "calibrate-10min":
        code, err = run_cli(["simulate", "--config", inputs / "sim.yaml",
                              "--out", inputs / "logs"])
        if code != 0:
            raise RuntimeError(f"simulate exited with {code}: {err}")


def _rotation(q):
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _exp_so3(phi):
    """Rodrigues' formula over (k, 3) rotation vectors."""
    theta = np.linalg.norm(phi, axis=1)[:, None, None]
    K = np.zeros((len(phi), 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -phi[:, 2], phi[:, 1], -phi[:, 0]
    K -= K.transpose(0, 2, 1)
    safe = np.where(theta > 0, theta, 1.0)
    return (np.eye(3) + np.sin(safe) / safe * K
            + (1 - np.cos(safe)) / safe**2 * (K @ K))


def _angle(Ra, Rb):
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


class Workload:
    """Command lines and checks of one workload on generated inputs.

    ``prepare`` computes the ground truth before any op runs, so that
    the checks never call into an instrumented program.
    """

    raw_samples_per_op = 0
    trials_per_op = 1

    def __init__(self, name, inputs):
        self.name = name
        self.inputs = Path(inputs)

    def prepare(self):
        pass

    def argv(self, op_dir):
        raise NotImplementedError

    def check(self, op_dir):
        """Return a list of problems; empty when the outputs are right."""
        raise NotImplementedError

    def sizes(self):
        files = sorted(p for p in self.inputs.rglob("*") if p.is_file())
        return {"raw_samples_per_op": self.raw_samples_per_op,
                "trials_per_op": self.trials_per_op,
                "input_bytes": sum(p.stat().st_size for p in files),
                "input_files": [str(p.relative_to(self.inputs)) for p in files]}


class _PairWorkload(Workload):
    """Shared truth for the workloads that calibrate the sim_pair rig."""

    def prepare(self):
        sim = yaml.safe_load((self.inputs / "sim.yaml").read_text())
        a, b = sim["imus"]
        self.R_a = _rotation(a["rotation_wxyz"])
        R_b = _rotation(b["rotation_wxyz"])
        self.true_R_ba = R_b @ self.R_a.T
        self.true_p_ab = self.R_a @ (np.asarray(b["position_m"], dtype=float)
                                     - np.asarray(a["position_m"], dtype=float))
        self.freq = float(sim["freq"])
        self.n_samples = int(round(self.freq * float(sim["duration"])))
        self.raw_samples_per_op = 2 * self.n_samples
        self.sim = sim

    def check_calibration(self, path):
        d = json.loads(Path(path).read_text())
        rot_err = _angle(_rotation(d["q_BA"]), self.true_R_ba)
        lever_err = float(np.linalg.norm(np.asarray(d["p_AB_m"]) - self.true_p_ab))
        problems = []
        if not rot_err <= ROT_TOL_RAD:
            problems.append(f"extrinsic rotation error {rot_err:.3e} rad > {ROT_TOL_RAD}")
        if not lever_err <= LEVER_TOL_M:
            problems.append(f"lever-arm error {lever_err:.3e} m > {LEVER_TOL_M}")
        return problems


class Pipeline(_PairWorkload):
    """simulate -> calibrate -> fuse -> preintegrate on sim_pair.yaml."""

    def prepare(self):
        super().prepare()
        from mimufusion.csvio import sim_setup_from_dict
        from mimufusion.simulation import trajectory_samples

        cfg, _ = sim_setup_from_dict(self.sim)
        self.step = int(round(KEYFRAME_INTERVAL_S * self.freq))
        # Fusion drops the first and last sample; window j holds raw
        # samples 1 + j*step .. (j+1)*step. The truth folds the true body
        # rate, in sensor A's axes (the midpoint frame's), through the
        # same sample-and-hold product as the integrator, so that only
        # noise, bias and fusion error remain.
        self.n_windows = (self.n_samples - 2) // self.step
        k = 1 + np.arange(self.n_windows * self.step)
        omega = np.array([s.omega for s in trajectory_samples(cfg, k / self.freq)])
        steps = _exp_so3(omega @ self.R_a.T / self.freq)
        self.true_dR = []
        for j in range(self.n_windows):
            dR = np.eye(3)
            for R in steps[j * self.step:(j + 1) * self.step]:
                dR = dR @ R
            self.true_dR.append(dR)

    def argv(self, op_dir):
        sim, noise = self.inputs / "sim.yaml", self.inputs / "noise.yaml"
        a, b = op_dir / "imu_a.csv", op_dir / "imu_b.csv"
        return [
            ["simulate", "--config", sim, "--out", op_dir],
            ["calibrate", "--imu-a", a, "--imu-b", b, "--noise", noise,
             "--out", op_dir / "calib.json"],
            ["fuse", "--imu-a", a, "--imu-b", b, "--calib", op_dir / "calib.json",
             "--noise", noise, "--out", op_dir / "virtual.csv"],
            ["preintegrate", "--vimu", op_dir / "virtual.csv",
             "--vimu-config", op_dir / "virtual.json",
             "--interval", KEYFRAME_INTERVAL_S, "--out", op_dir / "deltas.jsonl"],
        ]

    def check(self, op_dir):
        problems = self.check_calibration(op_dir / "calib.json")
        lines = (op_dir / "deltas.jsonl").read_text().splitlines()
        if len(lines) != self.n_windows:
            return problems + [f"{len(lines)} windows, expected {self.n_windows}"]
        worst = 0.0
        for line, true_dR in zip(lines, self.true_dR):
            d = json.loads(line)
            dR = np.asarray(d["dR"])
            cov = np.asarray(d["cov_diag"])
            if (d["count"] != self.step or not np.allclose(dR @ dR.T, np.eye(3), atol=1e-9)
                    or not (np.all(np.isfinite(cov)) and np.all(cov > 0))):
                return problems + [f"window {d['window']}: malformed delta"]
            worst = max(worst, _angle(dR, true_dR))
        if not worst <= WINDOW_ROT_TOL_RAD:
            problems.append(f"window rotation error {worst:.3e} rad > {WINDOW_ROT_TOL_RAD}")
        return problems


class Calibrate(_PairWorkload):
    """calibrate on a pair of ten-minute logs made during set-up."""

    def argv(self, op_dir):
        logs = self.inputs / "logs"
        return [["calibrate", "--imu-a", logs / "imu_a.csv", "--imu-b",
                 logs / "imu_b.csv", "--noise", self.inputs / "noise.yaml",
                 "--out", op_dir / "calib.json"]]

    def check(self, op_dir):
        return self.check_calibration(op_dir / "calib.json")


class MonteCarlo(Workload):
    """evaluate on a reduced plan_desk.yaml."""

    def prepare(self):
        plan = yaml.safe_load((self.inputs / "plan.yaml").read_text())
        self.variants = list(plan["variants"])
        sim = plan["sim"]
        self.sequences = plan["extrinsic_samples"] * plan["sequences_per_sample"]
        self.trials_per_op = self.sequences * len(self.variants)
        self.raw_samples_per_op = (MC_GRID_SENSORS * self.sequences
                                   * int(round(sim["freq"] * sim["duration"])))
        self.reference = json.loads(MC_REFERENCE.read_text())
        self.first_metrics = None

    def argv(self, op_dir):
        return [["evaluate", "--config", self.inputs / "plan.yaml",
                 "--out", op_dir / "report"]]

    def check(self, op_dir):
        report = json.loads((op_dir / "report" / "report.json").read_text())
        problems = [f"{v}: {report['completed'].get(v)} of {self.sequences} trials"
                    for v in self.variants
                    if report["completed"].get(v) != self.sequences]
        problems += [f"trial failed: {f}" for f in report["failures"]]
        for v in self.variants:
            for metric, ref in self.reference["log_mean"][v].items():
                mean = report["metrics"][v][metric]["mean"]
                tol = MC_SIGMAS * self.reference["log_std"][v][metric]
                if not (mean > 0 and abs(math.log(mean) - ref) <= tol):
                    problems.append(f"{v} {metric} RMSE mean {mean!r} is more than "
                                    f"{MC_SIGMAS:g} sigma from the reference")
        # Identical inputs must give an identical report in every op.
        if self.first_metrics is None:
            self.first_metrics = report["metrics"]
        elif report["metrics"] != self.first_metrics:
            problems.append("report differs from the run's first op")
        return problems


def make(name, inputs) -> Workload:
    cls = {"pipeline-60s": Pipeline, "montecarlo-desk": MonteCarlo,
           "calibrate-10min": Calibrate}[name]
    return cls(name, inputs)
