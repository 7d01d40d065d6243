"""Monte-Carlo experiment harness: simulate an IMU array, run the
fusion variants, preintegrate at keyframe rate, and score dead-reckoned
states against ground truth.

Variant naming (grid indices are row-major on the 3x3 array):

* ``1-imu-true``       center sensor with its exact mount
* ``2-imu-perturbed``  first-row ends (0, 2), perturbed extrinsics
* ``4-imu-perturbed``  corners (0, 2, 6, 8), perturbed extrinsics
* ``9-imu-perturbed``  whole grid, perturbed extrinsics
* ``2-imu-calibrated`` first-row ends, extrinsics estimated from the
  trial's own data by the two-stage calibrator

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
from .errors import EmptyOverlap, FormatError, LengthMismatch, MimuError, RateMismatch
from .geometry import geodesic_angle, rotation_from_quat
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
from .vimu import build_fusion_stack, fuse_stack

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
        for name in ("extrinsic_samples", "sequences_per_sample"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.keyframe_interval) and self.keyframe_interval > 0):
            raise ValueError("keyframe_interval must be finite and positive, "
                             f"got {self.keyframe_interval}")


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
        if abs(s.freq - f0) > 0.01 * f0:
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
    indices = {"1-imu-true": (_CENTER,), "2-imu-perturbed": _PAIR, "2-imu-calibrated": _PAIR,
               "4-imu-perturbed": _QUAD, "9-imu-perturbed": tuple(range(9))}
    if name not in indices:
        raise ValueError(f"unknown variant {name}")
    return indices[name]


def _poses(mounts, indices) -> tuple:
    """The body poses of mounts[indices] as one trial: body-to-sensor
    rotations (1, n, 3, 3) and sensor origins (1, n, 3)."""
    return (rotation_from_quat([mounts[i].q for i in indices])[None],
            np.array([[mounts[i].p for i in indices]]))


def _setup(rotations, positions, plan: ExperimentPlan, keyframes) -> tuple:
    """Fusion and truth of arrays at believed body poses: body-to-sensor
    rotations (..., n, 3, 3) and sensor origins (..., n, 3) in body
    coordinates, any leading axes being trials. The virtual frame has
    body axes and sits at the centroid of the origins. Returns the
    FusionMatrices, the true states of the frame (keyframe, trials...)
    and a SingularFusion or None per trial."""
    centroid = np.mean(positions, axis=-2)
    fm, errors = build_fusion_stack(rotations, positions - centroid[..., None, :],
                                    (plan.noise,) * rotations.shape[-3])
    return fm, true_vimu_state(keyframes, np.eye(3), centroid), errors


def _calibrated_poses(plan: ExperimentPlan, mounts, gyro, accel, cols) -> tuple:
    """Calibrate each trial's sensor pair, in columns cols of the chunk's
    samples (S, n, m, 3). Sensor A sits on its true mount, sensor B at A
    composed with the trial's estimated extrinsic (R, p): rotation
    R R_A and origin p_A + R_A^T p. Returns the rotations (S, 2, 3, 3),
    the origins (S, 2, 3) and a MimuError or None per trial."""
    (ga, gb), (aa, ab) = ([x[:, :, c] for c in cols] for x in (gyro, accel))
    q, _, rot_errors = fit_rotation(ga, gb, plan.noise, plan.noise, plan.sim.freq)
    p, _, trans_errors = fit_translation(q, ga, aa, gb, ab, plan.noise, plan.noise,
                                         plan.sim.freq)
    R = rotation_from_quat(q)
    R_a, p_a = rotation_from_quat(mounts[_PAIR[0]].q), mounts[_PAIR[0]].p
    rotations = np.stack([np.broadcast_to(R_a, R.shape), R @ R_a], axis=-3)
    positions = np.stack([np.broadcast_to(p_a, p.shape), p_a + p @ R_a], axis=-2)
    return rotations, positions, [r or t for r, t in zip(rot_errors, trans_errors)]


def _score_chunk(plan: ExperimentPlan, setups, mounts, gyro, accel, keyframes,
                 n_windows: int, step: int) -> dict:
    """Per variant, the (position, orientation, velocity) RMSE or the
    MimuError of each trial of a chunk of raw samples (S, n, 9, 3), one
    column per grid sensor. ``setups`` holds the _setup of every
    variant but 2-imu-calibrated, whose every trial is calibrated and
    set up here. Calibration reads every sample; only the
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
        cols = list(_variant_indices(v))
        if v == "2-imu-calibrated":
            *poses, fit_errors = _calibrated_poses(plan, mounts, gyro, accel, cols)
            fm, truth_v, errs = _setup(*poses, plan, keyframes)
            errs = [f or e for f, e in zip(fit_errors, errs)]
        else:
            fm, truth_v, errs = setups[v]
            errs = errs * S  # one set-up for all trials
        rows = slice(j * S, (j + 1) * S)
        # fused row t is raw row t + 1, and it needs rows t and t + 2
        fused_w[rows], fused_a[rows] = fuse_stack(
            fm, gyro[:, :k + 2], accel[:, :k + 2], plan.sim.freq, cols)
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
    mounts = grid_mounts(pitch=plan.grid_pitch)
    # (gyro/accel, sample, grid sensor, axis), the layout of a trial's
    # raw samples
    ideal = np.ascontiguousarray(
        ideal_imu_series_stack(plan.sim, mounts).transpose(1, 2, 0, 3))

    n_total = plan.sim.sample_count
    n_windows, step = _keyframe_layout(n_total - 2, plan.sim.freq,
                                       plan.keyframe_interval)
    if n_windows < 1:
        raise ValueError("duration too short for one keyframe window")
    kf_times = (1 + step * np.arange(n_windows + 1)) / plan.sim.freq
    keyframes = trajectory_samples(plan.sim, kf_times)
    # once per run: the noise weights and the variant on true mounts
    noise_weights = innovation_weights(plan.noise, plan.sim.freq, n_total)
    setups = {v: _setup(*_poses(mounts, (_CENTER,)), plan, keyframes)
              for v in plan.variants if v == "1-imu-true"}

    acc = {v: {m: np.zeros((plan.extrinsic_samples, plan.sequences_per_sample))
               for m in METRICS} for v in plan.variants}
    ok = {v: np.zeros((plan.extrinsic_samples, plan.sequences_per_sample),
                      dtype=bool) for v in plan.variants}
    failures: list[str] = []
    trial_bytes = 8 * (6 * len(mounts) * n_total
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
            believed = [perturb_extrinsics(m, plan.sigma_rot, plan.sigma_trans,
                                           perturb_rng) for m in mounts]
            setups.update({v: _setup(*_poses(believed, _variant_indices(v)), plan,
                                     keyframes)
                           for v in plan.variants if v.endswith("-perturbed")})
            for r0 in range(0, plan.sequences_per_sample, chunk):
                seqs = range(r0, min(r0 + chunk, plan.sequences_per_sample))
                for c, r in enumerate(seqs):
                    apply_measurement_noise_stack(
                        ideal, plan.noise, plan.sim.freq,
                        np.random.default_rng(trial_seqs[r]), out=raw[c],
                        level=level, weights=noise_weights)
                gyro, accel = raw[:len(seqs), 0], raw[:len(seqs), 1]
                if not (np.isfinite(gyro).all() and np.isfinite(accel).all()):
                    for c, j in np.ndindex(len(seqs), len(mounts)):
                        ImuSeries(plan.sim.freq, 0, gyro[c, :, j], accel[c, :, j])
                results = _score_chunk(plan, setups, mounts, gyro, accel, keyframes,
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
