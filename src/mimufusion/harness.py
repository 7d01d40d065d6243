"""Monte-Carlo experiment harness: simulate an IMU array, run the
fusion variants, preintegrate at keyframe rate, and score dead-reckoned
states against ground truth.

Each variant is one row of ``_VARIANTS``: the grid sensors it fuses
(row-major indices on the 3x3 array) and where their believed poses
come from, the ``true`` mounts, the extrinsic sample's ``perturbed``
mounts, or the trial's own ``calibrated`` pair, whose sensor B the
two-stage calibrator places from sensor A's true mount.

Every variant is evaluated against the true world motion of the body
-fixed frame it believes it estimates, so extrinsic error enters through
measurement fusion rather than through the scoring frame.

The sequences of one extrinsic sample run in chunks of trials, one call
per stage and chunk; every trial keeps its own random stream, which
draws the noise of the whole grid whatever the variants, and its own
failures, so the report does not depend on the chunk size.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import csvio
from .calibration import fit_rotation, fit_translation
from .errors import (EmptyOverlap, FormatError, LengthMismatch, MimuError, RateMismatch,
                     _naming)
from .geometry import geodesic_angle
from .preintegration import PreintDelta, VimuState, predict_state, preintegrate_stack
from .simulation import (
    SimConfig,
    apply_measurement_noise_stack,
    grid_mounts,
    ideal_imu_series_stack,
    innovation_weights,
    perturb_extrinsics,
    trajectory_samples,
)
from .types import ImuSeries, NoiseSpec, _Block, _integral, _number, _read
from .vimu import accel_centroid, fuse_stack

log = logging.getLogger(__name__)

# name -> (grid sensors, pose source). The perturbed subsets nest (pair
# inside the corner quad inside the full grid), so the perturbation
# draws are shared along the 2 -> 4 -> 9 chain; paired comparisons then
# isolate the marginal benefit of adding sensors.
_VARIANTS = {
    "1-imu-true": ((4,), "true"),
    "2-imu-perturbed": ((0, 2), "perturbed"),
    "4-imu-perturbed": ((0, 2, 6, 8), "perturbed"),
    "9-imu-perturbed": (tuple(range(9)), "perturbed"),
    "2-imu-calibrated": ((0, 2), "calibrated"),
}
VARIANTS = tuple(_VARIANTS)
METRICS = ("position", "orientation", "velocity")

# Bytes of one chunk of trials as run_experiment counts them: per trial
# its raw samples, and per variant its fused rows, 379,200 B for a desk
# trial of 9 sensors and 5 variants. That count leaves out the per-chunk
# fusion, truth and dead-reckoning temporaries of _score_chunk, so the
# traced peak grows by about 0.53 MB per desk trial, not 0.38 MB; 2 MiB
# of count is 5 desk trials. Batching pays from a few trials on, more
# only adds memory.
_CHUNK_BYTES = 2 << 20


def _finite(key: str, value, low: float = -np.inf) -> float:
    """value as a finite float >= low, or FormatError naming key."""
    v = _number(key, value)
    if not (np.isfinite(v) and v >= low):
        bound = "" if low == -np.inf else f" and >= {low:g}"
        raise FormatError(f"{key} must be finite{bound}, got {value!r}")
    return v


def _variant_list(key: str, value) -> tuple:
    """A YAML sequence of variant names as a tuple; a single string is
    not a list of its characters."""
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{key} must be a list, got {type(value).__name__}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentPlan(_Block):
    """Full description of one harness run. Its plan YAML block reads
    through ``_KEYS``; the ``sim`` block's absent keys keep this class's
    default, a 3 s simulation."""

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

    _NAME = "plan"
    _KEYS = {
        "variants": ("variants", _variant_list),
        "extrinsic_samples": ("extrinsic_samples", _integral),
        "sequences_per_sample": ("sequences_per_sample", _integral),
        "sigma_rot_rad": ("sigma_rot", lambda k, v: _finite(k, v, 0.0)),
        "sigma_trans_m": ("sigma_trans", lambda k, v: _finite(k, v, 0.0)),
        "keyframe_interval_s": ("keyframe_interval", _number),
        "grid_pitch_m": ("grid_pitch", _finite),
        "master_seed": ("master_seed", _integral),
        "sim": ("sim", lambda k, d: _read(SimConfig, d, k, ExperimentPlan().sim)),
        "noise": ("noise", lambda k, d: _read(NoiseSpec, d, k)),
    }

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        unknown = set(self.variants) - set(VARIANTS)
        if unknown or not self.variants:
            raise ValueError(f"unknown or empty variants: {sorted(unknown)}")
        if len(set(self.variants)) < len(self.variants):
            raise ValueError(f"variants repeat a name: {list(self.variants)}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        for name in ("extrinsic_samples", "sequences_per_sample"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.keyframe_interval) and self.keyframe_interval > 0):
            raise ValueError("keyframe_interval must be finite and positive, "
                             f"got {self.keyframe_interval}")
        if not np.isfinite(self.keyframe_interval * self.sim.freq):
            raise ValueError(f"keyframe_interval * sim.freq must be finite, got "
                             f"{self.keyframe_interval} * {self.sim.freq}")


@dataclass
class RmseReport:
    """Aggregated metrics: per variant and metric, the per-extrinsic
    -sample sequence means plus their across-sample mean and std."""

    plan: dict
    metrics: dict
    completed: dict
    failures: list

    def to_dict(self) -> dict:
        """The report as strict JSON data: a NaN (the mean of a sample with
        no completed trial, and each statistic over it) becomes None."""
        return _nan_to_none(asdict(self))


def _nan_to_none(x):
    """x, a tree of dicts and lists, with each NaN float replaced by None."""
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_nan_to_none(v) for v in x]
    return None if isinstance(x, float) and np.isnan(x) else x


def _stack_states(states) -> VimuState:
    """A VimuState whose rotation, position and velocity stack those of
    ``states`` along a new first axis."""
    return VimuState(*(np.stack([getattr(s, f) for s in states])
                       for f in ("rotation", "position", "velocity")))


def rmse_metrics(predicted, truth) -> tuple:
    """Root-mean-square position (m), orientation angle (rad), and
    velocity (m/s) errors over paired state sequences.

    A sequence is a list of states, or a VimuState whose arrays carry
    the sequence axis first, then any trial axes, then the vector axes;
    the three results then carry the trial axes. Sequences of different
    lengths or stacks of different shapes raise LengthMismatch.
    """
    if not isinstance(predicted, VimuState):
        if len(predicted) != len(truth):
            raise LengthMismatch(
                f"{len(predicted)} predicted states vs {len(truth)} truth states")
        if not predicted:
            raise LengthMismatch("empty state sequences")
        predicted, truth = _stack_states(predicted), _stack_states(truth)
    for f in ("position", "rotation", "velocity"):
        if np.shape(getattr(predicted, f)) != np.shape(getattr(truth, f)):
            raise LengthMismatch(f"predicted and truth {f} stacks differ in shape")
    pos = np.mean(np.sum((predicted.position - truth.position) ** 2, axis=-1), axis=0)
    rot = np.mean(geodesic_angle(truth.rotation, predicted.rotation) ** 2, axis=0)
    vel = np.mean(np.sum((predicted.velocity - truth.velocity) ** 2, axis=-1), axis=0)
    return np.sqrt(pos), np.sqrt(rot), np.sqrt(vel)


def true_vimu_state(sample, frame_rotation, frame_position) -> VimuState:
    """Ground-truth state of a body-fixed frame.

    ``frame_rotation``/``frame_position`` place the frame on the body
    (rotation body-from-frame, position in body coords). The frame is
    rigid, so its velocity picks up the angular-rate term. Arrays with
    a leading axis of instants give states with that axis; positions
    (..., 3) with trial axes give states that carry them after it (the
    rotation with axes of length 1, as it does not depend on the
    position).
    """
    p = np.asarray(frame_position, dtype=float)
    trials = (1,) * (p.ndim - 1)
    R_wb, pos, vel, omega = (
        x.reshape(x.shape[:x.ndim - tail] + trials + x.shape[x.ndim - tail:])
        for x, tail in ((sample.rotation, 2), (sample.position, 1),
                        (sample.velocity, 1), (sample.omega, 1)))
    return VimuState(
        rotation=R_wb @ np.asarray(frame_rotation, dtype=float),
        position=pos + (R_wb @ p[..., None])[..., 0],
        velocity=vel + (R_wb @ np.cross(omega, p)[..., None])[..., 0],
    )


def ingest_csv(paths) -> list:
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
        if abs(s.freq - f0) > csvio.RATE_JITTER_TOL * f0:
            raise RateMismatch(f"{p}: rate {s.freq:.3f} Hz vs {f0:.3f} Hz")
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
        if misalign > csvio.RATE_JITTER_TOL * period:
            raise RateMismatch(
                f"{p}: sample grid offset {misalign:.0f} ns does not align "
                "with the common window")
        drift = (count - 1) * abs(s.period_ns - period)
        if drift > 0.5 * period:
            raise RateMismatch(
                f"{p}: rate {s.freq:.3f} Hz vs {f0:.3f} Hz drifts "
                f"{drift * 1e-9:.4f} s over the common window")
        out.append(type(s)(freq=f0, start_ns=t0,
                           gyro=s.gyro[k0:k0 + count], accel=s.accel[k0:k0 + count]))
    return out


def _truth(positions, plan: ExperimentPlan, keyframes) -> VimuState:
    """True states (keyframe, trials...) of the virtual frame of sensor
    origins (..., n, 3) in body coordinates, any leading axes being
    trials: body axes, at the accel-weighted centroid of the origins,
    where the fusion of their rotations puts it."""
    noises = (plan.noise,) * positions.shape[-2]
    return true_vimu_state(keyframes, np.eye(3), accel_centroid(positions, noises))


def _calibrated_poses(plan: ExperimentPlan, grid, gyro, accel, cols) -> tuple:
    """Calibrate each trial's sensor pair, in columns cols of the chunk's
    samples (S, n, m, 3). Sensor A sits on its true mount, sensor B at A
    composed with the trial's estimated extrinsic (R, p): rotation
    R R_A and origin p_A + R_A^T p. Returns the rotations (S, 2, 3, 3),
    the origins (S, 2, 3) and a MimuError or None per trial. ``grid``
    holds the true mounts' rotations (9, 3, 3) and origins (9, 3)."""
    (ga, gb), (aa, ab) = ([x[:, :, c] for c in cols] for x in (gyro, accel))
    R, _, rot_errors = fit_rotation(ga, gb)
    p, _, trans_errors = fit_translation(R, ga, aa, gb, ab, plan.sim.freq)
    R_a, p_a = (x[cols[0]] for x in grid)
    errors = [r or t for r, t in zip(rot_errors, trans_errors)]
    # a failed trial's estimate need not be finite: it is set up at A's
    # pose instead, which keeps the shared scoring pass finite
    failed = [i for i, e in enumerate(errors) if e is not None]
    R[failed], p[failed] = np.eye(3), 0.0
    rotations = np.stack([np.broadcast_to(R_a, R.shape), R @ R_a], axis=-3)
    positions = np.stack([np.broadcast_to(p_a, p.shape), p_a + p @ R_a], axis=-2)
    return rotations, positions, errors


def _score_chunk(plan: ExperimentPlan, setups, grid, gyro, accel, keyframes,
                 n_windows: int, step: int) -> dict:
    """Per variant, the (position, orientation, velocity) RMSE or the
    MimuError of each trial of a chunk of raw samples (S, n, 9, 3), one
    column per grid sensor. ``setups`` holds the rotations and _truth of
    every variant but the calibrated ones, whose every trial is
    calibrated and set up here. Calibration reads every sample; only the
    n_windows * step rows that the windows integrate are fused. The fused
    rows of every variant and trial, variant-major, are dead-reckoned
    from their first truth state and scored in one pass."""
    S = gyro.shape[0]
    rows_all, k = len(plan.variants) * S, n_windows * step
    fused_w = np.empty((rows_all, k, 3))
    fused_a = np.empty_like(fused_w)
    truth = VimuState(*(np.empty((n_windows + 1, rows_all) + shape)
                        for shape in ((3, 3), (3,), (3,))))
    errors = []
    for j, v in enumerate(plan.variants):
        cols, source = _VARIANTS[v]
        cols = list(cols)
        if source == "calibrated":
            rotations, positions, errs = _calibrated_poses(plan, grid, gyro, accel, cols)
            truth_v = _truth(positions, plan, keyframes)
        else:
            rotations, truth_v = setups[v]
            errs = [None] * S
        rows = slice(j * S, (j + 1) * S)
        # fused row t is raw row t + 1, as in fuse_series
        fused_w[rows], fused_a[rows] = fuse_stack(
            rotations, (plan.noise,) * len(cols), gyro[:, 1:k + 1], accel[:, 1:k + 1], cols)
        errors += errs
        for f in ("rotation", "position", "velocity"):
            getattr(truth, f)[:, rows] = getattr(truth_v, f)
    finite = (np.isfinite(fused_w) & np.isfinite(fused_a)).all(axis=(1, 2))
    for r in np.flatnonzero(~finite):
        try:  # what an ImuSeries of the trial's fused samples raises
            ImuSeries(plan.sim.freq, 0, fused_w[r], fused_a[r])
        except MimuError as exc:
            errors[r] = errors[r] or exc
    failed = [r for r, err in enumerate(errors) if err is not None]
    fused_w[failed] = fused_a[failed] = 0.0  # keeps the pass free of inf and NaN
    # The truth start states carry no bias, so the deltas do not depend
    # on them: the rows go to the kernel as they are, viewed as windows.
    shape = (rows_all, n_windows, step, 3)
    dR, dv, dp, _ = preintegrate_stack(fused_w.reshape(shape),
                                       fused_a.reshape(shape), plan.sim.freq)
    duration = step * (1.0 / plan.sim.freq)
    states = [VimuState(truth.rotation[0], truth.position[0], truth.velocity[0])]
    for w in range(n_windows):
        states.append(predict_state(states[-1], PreintDelta(
            dR[:, w], dv[:, w], dp[:, w], None, duration, step), plan.sim.gravity))
    metrics = rmse_metrics(_stack_states(states[1:]), VimuState(
        truth.rotation[1:], truth.position[1:], truth.velocity[1:]))
    return {v: [errors[r] or tuple(float(m[r]) for m in metrics)
                for r in range(j * S, (j + 1) * S)]
            for j, v in enumerate(plan.variants)}


def run_experiment(plan: ExperimentPlan, out_dir=None) -> RmseReport:
    """Execute the plan; deterministic for a fixed master seed.

    When ``out_dir`` is given, per-trial metrics are appended to
    ``trials.jsonl`` as they complete, so long runs stream to disk.
    """
    # the true body-to-sensor rotations (9, 3, 3) and origins (9, 3)
    grid = grid_mounts(pitch=plan.grid_pitch)
    # (gyro/accel, sample, grid sensor, axis), the layout of a trial's
    # raw samples
    ideal = np.ascontiguousarray(
        ideal_imu_series_stack(plan.sim, *grid).transpose(1, 2, 0, 3))

    n_total = plan.sim.sample_count
    step = int(round(plan.keyframe_interval * plan.sim.freq))
    if step < 1:
        raise ValueError("keyframe interval below one sample period")
    n_windows = (n_total - 2) // step
    if n_windows < 1:
        raise ValueError("duration too short for one keyframe window")
    kf_times = (1 + step * np.arange(n_windows + 1)) / plan.sim.freq
    keyframes = trajectory_samples(plan.sim, kf_times)
    with _naming("plan.noise."):  # once per run
        noise_weights = innovation_weights(plan.noise, plan.sim.freq, n_total)

    acc = {v: {m: np.zeros((plan.extrinsic_samples, plan.sequences_per_sample))
               for m in METRICS} for v in plan.variants}
    ok = {v: np.zeros((plan.extrinsic_samples, plan.sequences_per_sample),
                      dtype=bool) for v in plan.variants}
    failures: list[str] = []
    trial_bytes = 8 * (6 * ideal.shape[2] * n_total
                       + len(plan.variants) * 6 * n_windows * step)
    chunk = min(plan.sequences_per_sample, max(1, _CHUNK_BYTES // trial_bytes))
    # (trial, gyro/accel, sample, grid sensor, axis), and the noise's
    # bias level of one trial
    raw = np.empty((chunk,) + ideal.shape)
    level = np.empty(ideal.shape)

    stream = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stream = open(out_dir / "trials.jsonl", "w")

    try:
        root = np.random.SeedSequence(plan.master_seed)
        sample_seqs = root.spawn(plan.extrinsic_samples)
        start = perf_counter()
        for s in range(plan.extrinsic_samples):
            perturb_seq, *trial_seqs = sample_seqs[s].spawn(
                1 + plan.sequences_per_sample)
            perturb_rng = np.random.default_rng(perturb_seq)
            believed = perturb_extrinsics(*grid, plan.sigma_rot, plan.sigma_trans,
                                          perturb_rng)
            poses = {"true": grid, "perturbed": believed}
            setups = {}
            for v in plan.variants:
                cols, source = _VARIANTS[v]
                if source in poses:
                    rotations, positions = (x[None, list(cols)] for x in poses[source])
                    setups[v] = rotations, _truth(positions, plan, keyframes)
            for r0 in range(0, plan.sequences_per_sample, chunk):
                seqs = range(r0, min(r0 + chunk, plan.sequences_per_sample))
                for c, r in enumerate(seqs):
                    apply_measurement_noise_stack(
                        ideal, plan.noise, plan.sim.freq,
                        np.random.default_rng(trial_seqs[r]), out=raw[c],
                        level=level, weights=noise_weights)
                gyro, accel = raw[:len(seqs), 0], raw[:len(seqs), 1]
                if not (np.isfinite(gyro).all() and np.isfinite(accel).all()):
                    for c, j in np.ndindex(len(seqs), ideal.shape[2]):
                        ImuSeries(plan.sim.freq, 0, gyro[c, :, j], accel[c, :, j])
                results = _score_chunk(plan, setups, grid, gyro, accel, keyframes,
                                       n_windows, step)
                for c, r in enumerate(seqs):
                    for v in plan.variants:
                        res = results[v][c]
                        if isinstance(res, MimuError):
                            failures.append(
                                f"sample={s} seq={r} variant={v}: "
                                f"{type(res).__name__}: {res}")
                            continue
                        for m, x in zip(METRICS, res):
                            acc[v][m][s, r] = x
                        ok[v][s, r] = True
                        if stream is not None:
                            stream.write(json.dumps({"sample": s, "seq": r, "variant": v,
                                                     **dict(zip(METRICS, res))}) + "\n")
                if stream is not None:
                    stream.flush()
            # a trial is one (sequence, variant), as in the benchmark
            elapsed = perf_counter() - start
            log.info("extrinsic sample %d/%d done, %.0f trials/s, ETA %.0f s",
                     s + 1, plan.extrinsic_samples,
                     (s + 1) * plan.sequences_per_sample * len(plan.variants) / elapsed,
                     (plan.extrinsic_samples - s - 1) * elapsed / (s + 1))
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
            metrics[v][m] = {"mean": float(np.mean(means)), "std": std,
                             "per_sample_means": means.tolist()}
    return RmseReport(plan=plan.to_dict(), metrics=metrics,
                      completed=completed, failures=failures)


def emit_report(report: RmseReport, out_dir):
    """Write report.json, plot_data.csv, and failures.log. A mean or std
    over a sample with no completed trial (NaN) is null in report.json
    and an empty field in plot_data.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csvio.write_json(out_dir / "report.json", report.to_dict())
    lines = ["variant,metric,mean,std"]
    for v, per_metric in report.metrics.items():
        for m, stats in per_metric.items():
            mean, std = ("" if np.isnan(x) else f"{x:.17g}"
                         for x in (stats["mean"], stats["std"]))
            lines.append(f"{v},{m},{mean},{std}")
    csvio.atomic_write_text(out_dir / "plot_data.csv", "\n".join(lines) + "\n")
    csvio.atomic_write_text(out_dir / "failures.log",
                            "".join(f"{f}\n" for f in report.failures))
