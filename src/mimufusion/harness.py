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
per stage and chunk. Each chunk sets every variant up by one path: its
believed poses, the sample's ``true`` or ``perturbed`` mounts or each
trial's calibrated pair, give its fusion matrices and the centroid of
its truth. The fused rows of all variants come from one product per
category, and their truths from one true_vimu_state call. Every trial
keeps its own random stream, which draws the noise of the whole grid
whatever the variants, and its own failures, so the report does not
depend on the chunk size.

Two chunk buffers are live: a worker thread adds the next chunk's noise
into one while this thread scores the chunk in the other (the normal
draws release the GIL). Each trial keeps its stream and its slot, so
the outputs depend neither on the chunk size nor on when the worker runs.
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
from .vimu import _fused_rows, _fusion_matrices, accel_centroid

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

# Bytes of one chunk of trials as _chunk_trials counts them: per trial
# its raw samples, and per variant its fused rows, 379,200 B for a desk
# trial of 9 sensors and 5 variants; 4 MiB of count is 11 desk trials.
# The traced peak (tracemalloc, chunks of 2 to 11 desk trials) grows by
# 0.53 MB per trial, not 0.38 MB: the count leaves out the calibration,
# truth and dead-reckoning temporaries of _score_chunk. A second buffer
# of raw samples, which the worker fills ahead, adds 2.85 MB for 11 desk
# trials. On a 2 x 44 desk plan with the noise added ahead, chunks of 2,
# 5, 11 and 22 trials (1, 2, 4 and 8 MiB) ran 2,816, 4,677, 5,456 and
# 5,097 trials per wall second (medians of 15 runs on a shared 2-vCPU
# host), against 2,715, 3,642, 4,076 and 4,116 when the noise was added
# inline before scoring: past 4 MiB a chunk only adds memory.
_CHUNK_BYTES = 4 << 20


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
        "sigma_rot_rad": ("sigma_rot", _number),
        "sigma_trans_m": ("sigma_trans", _number),
        "keyframe_interval_s": ("keyframe_interval", _number),
        "grid_pitch_m": ("grid_pitch", _number),
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
        # named by their file keys, which the field names do not spell out
        for key, low in (("sigma_rot_rad", 0.0), ("sigma_trans_m", 0.0),
                         ("grid_pitch_m", -np.inf)):
            v = getattr(self, self._KEYS[key][0])
            if not (np.isfinite(v) and v >= low):
                bound = "" if low == -np.inf else f" and >= {low:g}"
                raise ValueError(f"{key} must be finite{bound}, got {v}")
        if not (np.isfinite(self.keyframe_interval) and self.keyframe_interval > 0):
            raise ValueError("keyframe_interval must be finite and positive, "
                             f"got {self.keyframe_interval}")
        if not np.isfinite(self.keyframe_interval * self.sim.freq):
            raise ValueError(f"keyframe_interval * sim.freq must be finite, got "
                             f"{self.keyframe_interval} * {self.sim.freq}")
        _windows(self)  # a trial holds at least one whole keyframe window


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


def _score_chunk(plan: ExperimentPlan, poses, gyro, accel, keyframes,
                 n_windows: int, step: int) -> tuple:
    """The (variant, metric, trial) RMSEs of a chunk of raw samples
    (S, n, 9, 3), one column per grid sensor, in METRICS order and NaN
    where a trial failed, and the (variant, trial) MimuError or None of
    each trial. ``poses`` maps the ``true`` and ``perturbed`` pose
    sources to rotations (9, 3, 3) and origins (9, 3); the calibrated
    variants calibrate every trial here. Calibration reads every sample;
    only the n_windows * step rows that the windows integrate are fused.
    The fused rows of every variant and trial, variant-major, are
    dead-reckoned from their first truth state and scored in one pass; a
    trial whose fused rows or metrics are not finite fails."""
    S, m, k = gyro.shape[0], gyro.shape[2], n_windows * step
    matrices, centroids, errors = [], [], []
    for v in plan.variants:
        cols, source = _VARIANTS[v]
        cols = list(cols)
        noises = (plan.noise,) * len(cols)
        if source == "calibrated":
            rotations, positions, errs = _calibrated_poses(plan, poses["true"], gyro,
                                                           accel, cols)
        else:
            rotations, positions = (x[cols] for x in poses[source])
            errs = [None] * S
        matrices.append([np.broadcast_to(w, (S, 3 * m, 3))
                         for w in _fusion_matrices(rotations, noises, m, cols)])
        centroids.append(np.broadcast_to(accel_centroid(positions, noises), (S, 3)))
        errors += errs
    # one product per category: (S, k, 3m) @ (V, S, 3m, 3) gives (V, S, k, 3)
    fused_w, fused_a = (x.reshape(-1, k, 3) for x in _fused_rows(
        gyro, accel, [np.stack(w) for w in zip(*matrices)], k))
    # each centroid frame has body axes
    truth = true_vimu_state(keyframes, np.broadcast_to(np.eye(3), (len(errors), 3, 3)),
                            np.concatenate(centroids))
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
    shape = (len(errors), n_windows, step, 3)
    dR, dv, dp, _ = preintegrate_stack(fused_w.reshape(shape),
                                       fused_a.reshape(shape), plan.sim.freq)
    duration = step * (1.0 / plan.sim.freq)
    states = [VimuState(truth.rotation[0], truth.position[0], truth.velocity[0])]
    # finite samples can still dead-reckon to an error whose square
    # overflows; such a trial fails below instead of scoring inf
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(n_windows):
            states.append(predict_state(states[-1], PreintDelta(
                dR[:, w], dv[:, w], dp[:, w], None, duration, step), plan.sim.gravity))
        metrics = rmse_metrics(_stack_states(states[1:]), VimuState(
            truth.rotation[1:], truth.position[1:], truth.velocity[1:]))
    for r in np.flatnonzero(~np.isfinite(metrics).all(axis=0)):
        bad = [name for name, x in zip(METRICS, metrics) if not np.isfinite(x[r])]
        errors[r] = errors[r] or FormatError(
            f"the {' and '.join(bad)} RMSE of the dead-reckoned states is not finite")
    scores = np.stack(metrics)
    scores[:, [r for r, err in enumerate(errors) if err is not None]] = np.nan
    return (scores.reshape(len(METRICS), -1, S).swapaxes(0, 1),
            np.array(errors, dtype=object).reshape(-1, S))


def _windows(plan: ExperimentPlan) -> tuple:
    """Samples per keyframe window, and the whole windows of a trial:
    window w integrates fused rows w * step to (w + 1) * step."""
    step = int(round(plan.keyframe_interval * plan.sim.freq))
    if step < 1:
        raise ValueError("keyframe_interval_s is below one sample period")
    n_windows = (plan.sim.sample_count - 2) // step
    if n_windows < 1:
        raise ValueError("keyframe_interval_s leaves no whole window in sim.duration")
    return step, n_windows


def _chunk_trials(plan: ExperimentPlan) -> int:
    """Trials per chunk: as many as _CHUNK_BYTES holds when a trial
    counts its raw samples (every sample of every grid sensor) and, per
    variant, the fused rows of its windows; at least one, at most the
    sequences of one extrinsic sample."""
    step, n_windows = _windows(plan)
    trial_bytes = 8 * 6 * (len(grid_mounts()[0]) * plan.sim.sample_count
                           + len(plan.variants) * n_windows * step)
    return min(plan.sequences_per_sample, max(1, _CHUNK_BYTES // trial_bytes))


def _chunks(plan: ExperimentPlan, chunk: int):
    """Each chunk of the run in order, as its extrinsic sample, the
    seed of that sample's perturbation, and its sequences, a range, with
    their seeds. A sample's seeds are spawned when its first chunk comes
    up."""
    n = plan.sequences_per_sample
    for s, sample_seq in enumerate(
            np.random.SeedSequence(plan.master_seed).spawn(plan.extrinsic_samples)):
        perturb_seq, *trial_seqs = sample_seq.spawn(1 + n)
        for r0 in range(0, n, chunk):
            seqs = range(r0, min(r0 + chunk, n))
            yield (s, perturb_seq, seqs), trial_seqs[r0:seqs.stop]


def _noisy_chunks(chunks, fill, raws, pool):
    """Each (chunk, trial seeds) of ``chunks`` as (chunk, its raw
    samples), which fill(buffer, trial seeds) adds into one of the two
    ``raws``. The pool's worker fills the next chunk in the other buffer
    while the caller scores this one, and is handed a buffer again only
    when the caller asks for the chunk after it; the worker's exception
    is raised here."""
    ahead = None
    for i, (key, trial_seqs) in enumerate(chunks):
        filling = key, pool.submit(fill, raws[i % 2], trial_seqs)
        if ahead is not None:
            yield ahead[0], ahead[1].result()
        ahead = filling
    if ahead is not None:
        yield ahead[0], ahead[1].result()


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
    step, n_windows = _windows(plan)
    kf_times = (1 + step * np.arange(n_windows + 1)) / plan.sim.freq
    keyframes = trajectory_samples(plan.sim, kf_times)
    with _naming("plan.noise."):  # once per run
        noise_weights = innovation_weights(plan.noise, plan.sim.freq, n_total)

    # the (variant, metric, sequence) RMSEs of one extrinsic sample, NaN
    # where a trial failed, and each sample's means once it ends
    scores = np.empty((len(plan.variants), len(METRICS), plan.sequences_per_sample))
    means = np.empty((len(plan.variants), len(METRICS), plan.extrinsic_samples))
    completed = np.zeros(len(plan.variants), dtype=int)
    failures: list[str] = []
    chunk = _chunk_trials(plan)
    # the noise's bias level of one trial, which only the worker uses
    level = np.empty(ideal.shape)

    def fill(raw, trial_seqs):
        for out, seq in zip(raw, trial_seqs):
            apply_measurement_noise_stack(ideal, plan.noise, plan.sim.freq,
                                          np.random.default_rng(seq), out=out,
                                          level=level, weights=noise_weights)
        return raw[:len(trial_seqs)]

    stream = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stream = open(out_dir / "trials.jsonl", "w")

    # two buffers of (trial, gyro/accel, sample, grid sensor, axis): a
    # worker adds the next chunk's noise into one while this thread
    # scores the current chunk in the other. Imported on first use: it
    # would add about 10 ms to the import of mimufusion, which every
    # command pays.
    from concurrent.futures import ThreadPoolExecutor

    raws = [np.empty((chunk,) + ideal.shape) for _ in range(2)]
    pool = ThreadPoolExecutor(1)
    try:
        start = perf_counter()
        for (s, perturb_seq, seqs), raw in _noisy_chunks(_chunks(plan, chunk), fill,
                                                         raws, pool):
            if seqs.start == 0:
                believed = perturb_extrinsics(*grid, plan.sigma_rot, plan.sigma_trans,
                                              np.random.default_rng(perturb_seq))
                poses = {"true": grid, "perturbed": believed}
            gyro, accel = raw[:, 0], raw[:, 1]
            if not (np.isfinite(gyro).all() and np.isfinite(accel).all()):
                for c, j in np.ndindex(len(seqs), ideal.shape[2]):
                    ImuSeries(plan.sim.freq, 0, gyro[c, :, j], accel[c, :, j])
            scores[..., seqs], errors = _score_chunk(plan, poses, gyro, accel,
                                                     keyframes, n_windows, step)
            for c, r in enumerate(seqs):
                for v, err, x in zip(plan.variants, errors[:, c],
                                     scores[..., r].tolist()):
                    if err is not None:
                        failures.append(f"sample={s} seq={r} variant={v}: "
                                        f"{type(err).__name__}: {err}")
                    elif stream is not None:
                        stream.write(json.dumps({"sample": s, "seq": r, "variant": v,
                                                 **dict(zip(METRICS, x))}) + "\n")
            if stream is not None:
                stream.flush()
            if seqs.stop < plan.sequences_per_sample:
                continue
            ok = ~np.isnan(scores[:, 0])
            completed += ok.sum(axis=1)
            for j, i in np.ndindex(means.shape[:2]):
                means[j, i, s] = scores[j, i][ok[j]].mean() if ok[j].any() else np.nan
            # a trial is one (sequence, variant), as in the benchmark
            elapsed = perf_counter() - start
            log.info("extrinsic sample %d/%d done, %.0f trials/s, ETA %.0f s",
                     s + 1, plan.extrinsic_samples,
                     (s + 1) * plan.sequences_per_sample * len(plan.variants) / elapsed,
                     (plan.extrinsic_samples - s - 1) * elapsed / (s + 1))
    finally:
        pool.shutdown(cancel_futures=True)
        if stream is not None:
            stream.close()

    metrics = {}
    for v, rows in zip(plan.variants, means):
        metrics[v] = {}
        for m, x in zip(METRICS, rows):
            std = float(np.std(x, ddof=1)) if len(x) > 1 else 0.0
            metrics[v][m] = {"mean": float(np.mean(x)), "std": std,
                             "per_sample_means": x.tolist()}
    return RmseReport(plan=plan.to_dict(), metrics=metrics,
                      completed=dict(zip(plan.variants, completed.tolist())),
                      failures=failures)


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
