"""Monte-Carlo experiment harness: simulate an IMU array, run the
fusion variants, preintegrate at keyframe rate, and score dead-reckoned
states against ground truth.

Variant naming (grid indices are row-major on the 3x3 array):

* ``1-imu-true``       center sensor with its exact mount
* ``2-imu-perturbed``  middle-row ends (3, 5), perturbed extrinsics
* ``4-imu-perturbed``  corners (0, 2, 6, 8), perturbed extrinsics
* ``9-imu-perturbed``  whole grid, perturbed extrinsics
* ``2-imu-calibrated`` middle-row ends, extrinsics estimated from the
  trial's own data by the two-stage calibrator

Every variant is evaluated against the true world motion of the body
-fixed frame it believes it estimates, so extrinsic error enters through
measurement fusion rather than through the scoring frame.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import csvio
from .calibration import CalibrationInput, calibrate
from .errors import EmptyOverlap, FormatError, LengthMismatch, MimuError, RateMismatch
from .geometry import geodesic_angle, rotation_from_quat
from .preintegration import VimuState, predict_state, preintegrate_windows
from .simulation import (
    SimConfig,
    TrajectoryParams,
    apply_measurement_noise,
    grid_mounts,
    ideal_imu_series,
    perturb_extrinsics,
    trajectory_samples,
)
from .types import ImuSeries, NoiseSpec, _check_keys
from .vimu import (
    array_frame,
    build_fusion,
    fuse_series,
    midpoint_frame,
    single_frame,
)

log = logging.getLogger(__name__)

VARIANTS = (
    "1-imu-true",
    "2-imu-perturbed",
    "4-imu-perturbed",
    "9-imu-perturbed",
    "2-imu-calibrated",
)
METRICS = ("position", "orientation", "velocity")

_CENTER = 4
# Nested subsets (pair inside the corner quad inside the full grid) so
# the perturbation draws are shared along the 2 -> 4 -> 9 chain; paired
# comparisons then isolate the marginal benefit of adding sensors.
_PAIR = (0, 2)
_QUAD = (0, 2, 6, 8)


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one harness run."""

    variants: tuple = VARIANTS
    extrinsic_samples: int = 20
    sequences_per_sample: int = 100
    sigma_rot: float = 0.01
    sigma_trans: float = 0.001
    keyframe_interval: float = 0.5
    grid_pitch: float = 0.05
    master_seed: int = 0
    sim: SimConfig = field(default_factory=lambda: SimConfig(duration=3.0))
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        unknown = set(self.variants) - set(VARIANTS)
        if unknown or not self.variants:
            raise ValueError(f"unknown or empty variants: {sorted(unknown)}")
        if self.extrinsic_samples < 1 or self.sequences_per_sample < 1:
            raise ValueError("sample and sequence counts must be >= 1")
        if self.keyframe_interval <= 0:
            raise ValueError("keyframe_interval must be positive")

    def to_dict(self) -> dict:
        return {
            "variants": list(self.variants),
            "extrinsic_samples": self.extrinsic_samples,
            "sequences_per_sample": self.sequences_per_sample,
            "sigma_rot_rad": self.sigma_rot,
            "sigma_trans_m": self.sigma_trans,
            "keyframe_interval_s": self.keyframe_interval,
            "grid_pitch_m": self.grid_pitch,
            "master_seed": self.master_seed,
            "sim": {
                "freq": self.sim.freq,
                "duration": self.sim.duration,
                "gravity": self.sim.gravity.tolist(),
                "trajectory": self.sim.trajectory.to_dict(),
            },
            "noise": self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        """Parse a plan mapping; a block or value of the wrong type (such
        as a null ``sim:``) raises FormatError."""
        try:
            _check_keys(d, ("variants", "extrinsic_samples", "sequences_per_sample",
                            "sigma_rot_rad", "sigma_trans_m", "keyframe_interval_s",
                            "grid_pitch_m", "master_seed", "sim", "noise"), "plan")
            sim_d = d.get("sim", {})
            _check_keys(sim_d, ("freq", "duration", "gravity", "trajectory"), "sim")
            sim = SimConfig(
                freq=float(sim_d.get("freq", 200.0)),
                duration=float(sim_d.get("duration", 3.0)),
                gravity=np.asarray(sim_d.get("gravity", [0.0, 0.0, -9.81]), dtype=float),
                trajectory=TrajectoryParams.from_dict(sim_d.get("trajectory", {})),
            )
            return cls(
                variants=tuple(d.get("variants", VARIANTS)),
                extrinsic_samples=int(d.get("extrinsic_samples", 20)),
                sequences_per_sample=int(d.get("sequences_per_sample", 100)),
                sigma_rot=float(d.get("sigma_rot_rad", 0.01)),
                sigma_trans=float(d.get("sigma_trans_m", 0.001)),
                keyframe_interval=float(d.get("keyframe_interval_s", 0.5)),
                grid_pitch=float(d.get("grid_pitch_m", 0.05)),
                master_seed=int(d.get("master_seed", 0)),
                sim=sim,
                noise=NoiseSpec.from_dict(d.get("noise", {})),
            )
        except TypeError as exc:
            raise FormatError(f"plan: {exc}") from exc


@dataclass
class RmseReport:
    """Aggregated metrics: per variant and metric, the per-extrinsic
    -sample sequence means plus their across-sample mean and std."""

    plan: dict
    metrics: dict
    completed: dict
    failures: list

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "metrics": self.metrics,
            "completed": self.completed,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RmseReport":
        return cls(plan=d["plan"], metrics=d["metrics"],
                   completed=d["completed"], failures=d["failures"])

    def per_sample_means(self, variant: str, metric: str) -> np.ndarray:
        return np.asarray(self.metrics[variant][metric]["per_sample_means"],
                          dtype=float)


def rmse_metrics(predicted, truth) -> tuple:
    """Root-mean-square position (m), orientation angle (rad), and
    velocity (m/s) errors over paired state sequences.

    Both sequences must expose rotation/position/velocity attributes.
    """
    if len(predicted) != len(truth):
        raise LengthMismatch(
            f"{len(predicted)} predicted states vs {len(truth)} truth states")
    if not predicted:
        raise LengthMismatch("empty state sequences")
    pos = np.mean([np.sum((p.position - t.position) ** 2)
                   for p, t in zip(predicted, truth)])
    rot = np.mean([geodesic_angle(t.rotation, p.rotation) ** 2
                   for p, t in zip(predicted, truth)])
    vel = np.mean([np.sum((p.velocity - t.velocity) ** 2)
                   for p, t in zip(predicted, truth)])
    return float(np.sqrt(pos)), float(np.sqrt(rot)), float(np.sqrt(vel))


def true_vimu_state(sample, frame_rotation, frame_position) -> VimuState:
    """Ground-truth state of a body-fixed frame.

    ``frame_rotation``/``frame_position`` place the frame on the body
    (rotation body-from-frame, position in body coords). The frame is
    rigid, so its velocity picks up the angular-rate term.
    """
    R_wb = sample.rotation
    p = np.asarray(frame_position, dtype=float)
    return VimuState(
        rotation=R_wb @ np.asarray(frame_rotation, dtype=float),
        position=sample.position + R_wb @ p,
        velocity=sample.velocity + R_wb @ np.cross(sample.omega, p),
    )


def ingest_csv(paths, expected_freq: float | None = None) -> list:
    """Read several IMU CSVs and synchronize them onto their common time
    window.

    All files must share a sample rate (1% tolerance) and their sample
    grids must align within the same tolerance; no resampling is done.
    Samples are paired by index at the first file's rate, so a rate
    difference that drifts by more than half a period across the common
    window is rejected too. The returned series are trimmed to the
    overlap and stamped with the common window start.
    """
    series = [csvio.read_imu_csv(p) for p in paths]
    if not series:
        raise ValueError("no input files")
    f0 = series[0].freq
    for p, s in zip(paths, series):
        if abs(s.freq - f0) > 0.01 * f0:
            raise RateMismatch(f"{p}: rate {s.freq:.3f} Hz vs {f0:.3f} Hz")
        if expected_freq is not None and abs(s.freq - expected_freq) > 0.01 * expected_freq:
            raise RateMismatch(f"{p}: rate {s.freq:.3f} Hz, expected {expected_freq}")
    period = 1e9 / f0
    t0 = max(s.start_ns for s in series)
    t_end = min(s.start_ns + int(np.rint((len(s) - 1) * period)) for s in series)
    if t0 > t_end:
        raise EmptyOverlap("series share no common time window")
    count = int(np.floor((t_end - t0) / period + 1e-9)) + 1
    out = []
    for p, s in zip(paths, series):
        k0 = int(np.rint((t0 - s.start_ns) / period))
        misalign = abs((t0 - s.start_ns) - k0 * period)
        if misalign > 0.01 * period:
            raise RateMismatch(
                f"{p}: sample grid offset {misalign:.0f} ns does not align "
                "with the common window")
        drift = (count - 1) * abs(s.period_ns - period)
        if drift > 0.5 * period:
            raise RateMismatch(
                f"{p}: rate {s.freq:.3f} Hz vs {f0:.3f} Hz drifts "
                f"{drift * 1e-9:.4f} s over the common window")
        out.append(type(s)(freq=f0, start_ns=t0,
                           gyro=s.gyro[k0:k0 + count].copy(),
                           accel=s.accel[k0:k0 + count].copy()))
    return out


def _keyframe_layout(n_samples: int, freq: float, interval: float):
    """Number of whole keyframe windows in a virtual series plus the
    per-window sample count."""
    step = int(round(interval * freq))
    if step < 1:
        raise ValueError("keyframe interval below one sample period")
    return n_samples // step, step


def _variant_indices(name: str) -> tuple:
    if name == "1-imu-true":
        return (_CENTER,)
    if name == "2-imu-perturbed" or name == "2-imu-calibrated":
        return _PAIR
    if name == "4-imu-perturbed":
        return _QUAD
    if name == "9-imu-perturbed":
        return tuple(range(9))
    raise ValueError(f"unknown variant {name}")


@dataclass
class _VariantSetup:
    indices: tuple
    cfg: object
    fm: object
    truth: list  # true states of the virtual frame at every keyframe


def _setup_variant(name: str, plan: ExperimentPlan, mounts, believed,
                   truth_samples):
    idx = _variant_indices(name)
    if name == "1-imu-true":
        m = mounts[_CENTER]
        cfg = single_frame(plan.noise)
        frame_rot = rotation_from_quat(m.q).T
        frame_pos = m.p
    elif name.endswith("-perturbed"):
        cfg, frame_rot, frame_pos = array_frame(
            [believed[i] for i in idx], [plan.noise] * len(idx))
    else:
        raise ValueError(f"unknown variant {name}")
    truth = [true_vimu_state(ts, frame_rot, frame_pos) for ts in truth_samples]
    return _VariantSetup(indices=idx, cfg=cfg, fm=build_fusion(cfg), truth=truth)


def _setup_calibrated(plan: ExperimentPlan, mounts, series_by_idx,
                      truth_samples):
    """Calibrate the sensor pair from the trial data and anchor the
    resulting midpoint frame at sensor A's true mount."""
    ia, ib = _PAIR
    result = calibrate(CalibrationInput(
        series_a=series_by_idx[ia], series_b=series_by_idx[ib],
        noise_a=plan.noise, noise_b=plan.noise))
    ext = result.extrinsic
    cfg = midpoint_frame(ext, plan.noise, plan.noise)
    R_ba_body = rotation_from_quat(mounts[ia].q).T
    frame_pos = mounts[ia].p + R_ba_body @ (0.5 * ext.p)
    truth = [true_vimu_state(ts, R_ba_body, frame_pos) for ts in truth_samples]
    return _VariantSetup(indices=_PAIR, cfg=cfg, fm=build_fusion(cfg), truth=truth)


def _score_variant(setup: _VariantSetup, series_by_idx, plan: ExperimentPlan,
                   step: int):
    fused = fuse_series(setup.cfg, [series_by_idx[i] for i in setup.indices],
                        fm=setup.fm)
    state = setup.truth[0]
    predicted = []
    for delta in preintegrate_windows(fused, state, setup.cfg, setup.fm, step,
                                      with_covariance=False):
        state = predict_state(state, delta, plan.sim.gravity)
        predicted.append(state)
    return rmse_metrics(predicted, setup.truth[1:])


def run_experiment(plan: ExperimentPlan, out_dir=None) -> RmseReport:
    """Execute the plan; deterministic for a fixed master seed.

    When ``out_dir`` is given, per-trial metrics are appended to
    ``trials.jsonl`` as they complete, so long runs stream to disk.
    """
    mounts = grid_mounts(pitch=plan.grid_pitch)
    needed = sorted({i for v in plan.variants
                     for i in _variant_indices(v)})
    ideal = {i: ideal_imu_series(plan.sim, mounts[i]) for i in needed}

    n_total = plan.sim.sample_count
    n_windows, step = _keyframe_layout(n_total - 2, plan.sim.freq,
                                       plan.keyframe_interval)
    if n_windows < 1:
        raise ValueError("duration too short for one keyframe window")
    kf_times = (1 + step * np.arange(n_windows + 1)) / plan.sim.freq
    truth_samples = trajectory_samples(plan.sim, kf_times)

    acc = {v: {m: np.zeros((plan.extrinsic_samples, plan.sequences_per_sample))
               for m in METRICS} for v in plan.variants}
    ok = {v: np.zeros((plan.extrinsic_samples, plan.sequences_per_sample),
                      dtype=bool) for v in plan.variants}
    failures: list[str] = []

    stream = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stream = open(out_dir / "trials.jsonl", "w")

    try:
        root = np.random.SeedSequence(plan.master_seed)
        sample_seqs = root.spawn(plan.extrinsic_samples)
        for s in range(plan.extrinsic_samples):
            perturb_seq, *trial_seqs = sample_seqs[s].spawn(
                1 + plan.sequences_per_sample)
            perturb_rng = np.random.default_rng(perturb_seq)
            believed = [perturb_extrinsics(m, plan.sigma_rot, plan.sigma_trans,
                                           perturb_rng) for m in mounts]
            static_setups = {
                v: _setup_variant(v, plan, mounts, believed, truth_samples)
                for v in plan.variants if v != "2-imu-calibrated"
            }
            for r in range(plan.sequences_per_sample):
                imu_seqs = trial_seqs[r].spawn(9)
                series_by_idx = {}
                for i in needed:
                    rng = np.random.default_rng(imu_seqs[i])
                    w, a = apply_measurement_noise(
                        ideal[i][0], ideal[i][1], plan.noise, plan.sim.freq, rng)
                    series_by_idx[i] = ImuSeries(plan.sim.freq, 0, w, a)
                for v in plan.variants:
                    try:
                        if v == "2-imu-calibrated":
                            setup = _setup_calibrated(plan, mounts, series_by_idx,
                                                      truth_samples)
                        else:
                            setup = static_setups[v]
                        pos, rot, vel = _score_variant(setup, series_by_idx,
                                                       plan, step)
                    except MimuError as exc:
                        failures.append(
                            f"sample={s} seq={r} variant={v}: "
                            f"{type(exc).__name__}: {exc}")
                        continue
                    acc[v]["position"][s, r] = pos
                    acc[v]["orientation"][s, r] = rot
                    acc[v]["velocity"][s, r] = vel
                    ok[v][s, r] = True
                    if stream is not None:
                        stream.write(json.dumps({
                            "sample": s, "seq": r, "variant": v,
                            "position": pos, "orientation": rot,
                            "velocity": vel}) + "\n")
                if stream is not None:
                    stream.flush()
            log.info("extrinsic sample %d/%d done", s + 1,
                     plan.extrinsic_samples)
    finally:
        if stream is not None:
            stream.close()

    metrics = {}
    completed = {}
    for v in plan.variants:
        completed[v] = int(ok[v].sum())
        metrics[v] = {}
        for m in METRICS:
            means = np.array([
                acc[v][m][s][ok[v][s]].mean() if ok[v][s].any() else np.nan
                for s in range(plan.extrinsic_samples)])
            std = float(np.std(means, ddof=1)) if len(means) > 1 else 0.0
            metrics[v][m] = {
                "mean": float(np.mean(means)),
                "std": std,
                "per_sample_means": means.tolist(),
            }
    return RmseReport(plan=plan.to_dict(), metrics=metrics,
                      completed=completed, failures=failures)


def paired_bootstrap_prob(a, b, n_boot: int = 2000, seed: int = 0) -> float:
    """Bootstrap probability that mean(a) <= mean(b) under paired
    resampling of the common index (e.g. per-extrinsic-sample means that
    share random numbers across variants)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) == 0:
        raise LengthMismatch("paired bootstrap needs equal-length 1-d arrays")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(a), size=(n_boot, len(a)))
    return float(np.mean(a[idx].mean(axis=1) <= b[idx].mean(axis=1)))


def emit_report(report: RmseReport, out_dir):
    """Write report.json, plot_data.csv, and failures.log."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csvio.write_json(out_dir / "report.json", report.to_dict())
    lines = ["variant,metric,mean,std"]
    for v, per_metric in report.metrics.items():
        for m, stats in per_metric.items():
            lines.append(f"{v},{m},{stats['mean']:.17g},{stats['std']:.17g}")
    csvio.atomic_write_text(out_dir / "plot_data.csv", "\n".join(lines) + "\n")
    csvio.atomic_write_text(out_dir / "failures.log",
                            "".join(f"{f}\n" for f in report.failures))
