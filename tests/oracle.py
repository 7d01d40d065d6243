"""The tests' independent oracles.

``propagate_step`` folds one bias-corrected sample into a running
``PreintDelta``, starting from ``identity_delta``, with per-sample 3x3
and 9x9 algebra: its own ``step_matrices`` and its own noise input
covariance. The library's kernel (``preintegrate_windows``) advances
many windows at once instead, its step matrices filled in its loop; the
tests compare the two, so this code must not call the kernel.

``write_imu_csv`` and ``parse_csv`` are the per-value IMU CSV writer
and per-line reader that the library's bulk codec replaced: one
f-string per value, one ``int()``/``float()`` per field.

``general_solves``, ``lever_arm_stack`` and ``psi_matrix`` are the
virtual IMU in its general form, for any virtual frame: the whitened
stacked least-squares solves (the pseudo-inverse of the whitened
design), and the lever-arm stack and its rate Jacobian built sensor by
sensor. ``step_matrices`` routes gyro noise into position through
``psi_matrix``. The library fuses by the closed-form weighted mean at
the accelerometer-weighted centroid, where the contraction of both
lever terms with the accelerometer solve vanishes, so it computes
neither; the tests check the library against this general form at that
centroid.

``run_experiment`` is the Monte-Carlo harness with one trial at a time:
per trial it calibrates, fuses, preintegrates, predicts and scores
through the library's one-trial calls (the stage kernels on one pair,
``fuse_series``, ``preintegrate_windows``, ``predict_state``), where the
library's harness runs each stage once per chunk of trials. Like the
harness, it frames the calibrated pair with the fitted rotation matrix,
not with the rotation of ``calibrate``'s rounded quaternion. It draws a
trial's standard normals for the whole grid in one block, as the library does,
and adds each sensor's noise from its slice of the block with the
library's one-sensor ``apply_measurement_noise`` (through ``Replay``),
which the noise tests tie to ``innovations_noise`` below: a report's
``std`` entries turn a last-bit change of the samples into a relative
change of about 1e-11, so the per-trial and chunked runs must draw the
same bits. It fuses every interior sample, where the library fuses only the
rows that the keyframe windows integrate. It frames each variant its own way:
``single_frame`` keeps the centre sensor's axes, ``array_frame`` puts
the perturbed arrays at their centroid with body axes, and
``centroid_frame`` puts the calibrated pair at its accel-weighted
centroid with sensor A's axes. The library sets up every variant at the
accel-weighted centroid of its believed body poses, with body axes; on
the grid's identity-oriented mounts, with the plan's one noise spec,
the frames are the same.

``fit_rotation`` and ``fit_translation`` form the calibration Grams with
``einsum`` contractions over the samples; the library forms them as
matrix products over the stacked design. Both pass the rotation as a
matrix, as the library's kernels do, and ``fit_translation`` judges the
conditioning of its normal equations by ``np.linalg.cond`` (an SVD),
where the library reads it off the Gram's eigenvalues.

``log_so3`` extracts the rotation vector, axis included; the library
reads only the angle (``geometry.geodesic_angle``), and the tests use
the full logarithm as a reference.

``apply_measurement_noise`` is the paper's noise model as it reads:
four draws per sensor, white gyro and accel noise and gyro and accel
bias-walk steps, summed with per-sensor ``vstack``/``cumsum``. The
library draws one normal per sample instead
(``simulation.apply_measurement_noise_stack``): the innovations form of
the same white-noise-plus-walk model, whose samples have the same
distribution but not the same values; the tests compare the two by
their covariance. ``innovations_noise`` is that innovations form one
sensor at a time, with the Riccati recursion run as a loop
(``riccati_schedule``) where the library evaluates it in closed form
for every sample at once; the two agree to round-off.

``skew_lever_matrix``, ``is_rotation``, ``preintegrate_stack`` and
``translation_cost`` are the forms the library replaced: the lever
operator as skew-matrix products, a per-matrix rotation check with
``np.allclose``, the kernel's specific force rotated by a stacked
(3, 3) @ (3, 1) ``matmul``, and the translation cost with its residual
formed in the B frame by a stacked 3x3 product per sample. The library
builds the lever operator entry by entry, checks every rotation of a
stack in one pass, rotates the specific force by broadcast multiply-adds
over the rotation's columns, and forms the residual in the R^T frame
from the stacked design.

``sample_trajectory``, ``ideal_imu_series`` and ``simulate_imu`` are
the one-case forms the library dropped: one instant of
``trajectory_samples``, one mount of ``ideal_imu_series_stack``, and
one mount's samples with the library's noise from one seed. Each takes
its mount as an ``Extrinsic``; ``grid_extrinsics`` gives the grid's
mounts in that form, for the per-trial ``run_experiment`` and the tests
that walk the grid mount by mount.

``ideal_body_measurements``, ``virtual_bias``, ``residual_omega`` and
``quat_rotate`` have no caller in the library; the tests keep them as
references. ``centred_config`` moves an array's origins to their
accelerometer-weighted centroid with its own weights, so that tests can
build valid ``VimuConfig``s from any sensor origins.
``paired_bootstrap_prob`` is the bootstrap behind criterion 4's
orderings; no library code calls it either, nor
``per_sample_means``, which reads a variant's per-sample means out of a
report. ``still_trajectory`` and ``rmse_report_from_dict`` build test
inputs: a motionless trajectory, and a report read back from its
``report.json``.

``quat_multiply``, ``quat_conjugate`` and ``quat_from_rotvec`` are the
scalar quaternion algebra, and ``perturb_extrinsic`` perturbs one mount
with it: two ``standard_normal(3)`` draws, the rotation composed as
``q * q{delta}``. The library perturbs every mount of the grid in one
stacked draw, ``R Exp(delta)`` on rotation matrices
(``simulation.perturb_extrinsics``); the two are the same map, and the
tests check that they agree to round-off and use the generator alike.
"""
import itertools
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mimufusion.calibration import (
    GYRO_EXCITATION_MIN,
    TRANSLATION_EXCITATION_MIN,
    _angular_accel,
)
from mimufusion.csvio import IMU_CSV_HEADER, atomic_write_text
from mimufusion.errors import (
    DegenerateMotion,
    FormatError,
    LengthMismatch,
    MimuError,
    SingularNormalEquations,
)
from mimufusion.geometry import (
    SMALL_ANGLE,
    exp_so3,
    lever_matrix,
    quat_from_rotation,
    right_jacobian,
    rotation_from_quat,
    skew,
    vee,
)
from mimufusion.harness import (
    METRICS,
    ExperimentPlan,
    RmseReport,
    rmse_metrics,
    true_vimu_state,
)
from mimufusion import calibration, simulation
from mimufusion.preintegration import (
    PreintDelta,
    predict_state,
    preintegrate_windows,
)
from mimufusion.simulation import (
    SimConfig,
    TrajectoryParams,
    TrajectorySample,
    grid_mounts,
    ideal_imu_series_stack,
    trajectory_samples,
)
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec, _vec3
from mimufusion.vimu import (
    VimuConfig,
    VimuNoise,
    centroid_frame,
    fuse_series,
)

log = logging.getLogger(__name__)


@dataclass
class StepMatrices:
    """One-step error-state transition (9x9) and noise input (9x6)."""

    a: np.ndarray
    b: np.ndarray


def general_solves(cfg: VimuConfig) -> tuple:
    """The gyro and accelerometer solves (3, 3n) of the whitened stacked
    least-squares fit: pinv(W D) W, with D the stacked rotations and W
    the whitening by the category's sigmas (by ones when every sigma of
    the category is zero), which map the raw stacked samples to the
    fitted virtual sample."""
    design = np.concatenate(cfg.rotations)

    def solve(sigmas):
        sigmas = np.asarray(sigmas, dtype=float)
        w = np.repeat(1.0 / (sigmas if np.any(sigmas) else np.ones_like(sigmas)), 3)
        return np.linalg.pinv(w[:, None] * design) * w

    return (solve([ns.sigma_g for ns in cfg.noises]),
            solve([ns.sigma_a for ns in cfg.noises]))


def psi_matrix(cfg: VimuConfig, w_hat) -> np.ndarray:
    """Jacobian of the lever-arm stack with respect to the angular rate,
    at rate w_hat: blocks R_i (-[w]x [p_i]x - [[w]x p_i]x), stacked to
    (3n, 3). Rows of shape (k, 3) give (k, 3n, 3)."""
    w_hat = np.asarray(w_hat, dtype=float)
    sw = skew(w_hat)
    blocks = []
    for r, p in zip(cfg.rotations, cfg.positions):
        swp = skew(np.cross(w_hat, p))
        blocks.append(np.einsum("ij,...jk->...ik", r, -sw @ skew(p) - swp))
    return np.concatenate(blocks, axis=-2)


def lever_arm_stack(cfg: VimuConfig, omega, omega_dot) -> np.ndarray:
    """Stack of predicted lever-arm accelerations, one 3-block per
    sensor: R_i ([w]x^2 p_i + [wdot]x p_i). Rates of shape (3,) give
    (3n,); rows of shape (k, 3) give (k, 3n)."""
    M = lever_matrix(omega, omega_dot)
    return np.concatenate([(M @ p) @ r.T for r, p in
                           zip(cfg.rotations, cfg.positions)], axis=-1)


def step_matrices(accum_rotation, step_rotation, w_hat, a_hat,
                  cfg: VimuConfig, dt: float) -> StepMatrices:
    """Error-state transition and noise-input matrices for one sample.

    ``accum_rotation`` is the delta rotation accumulated before this
    sample; ``step_rotation`` is Exp(w_hat dt) for this sample.
    """
    sa = skew(a_hat)
    A = np.zeros((9, 9))
    A[0:3, 0:3] = step_rotation.T
    A[3:6, 0:3] = -accum_rotation @ sa * dt
    A[3:6, 3:6] = np.eye(3)
    A[6:9, 0:3] = -0.5 * accum_rotation @ sa * dt**2
    A[6:9, 3:6] = dt * np.eye(3)
    A[6:9, 6:9] = np.eye(3)

    B = np.zeros((9, 6))
    B[0:3, 0:3] = right_jacobian(np.asarray(w_hat) * dt) * dt
    # Gyro noise leaks into position through the fused accelerometer's
    # lever-arm sensitivity; the corresponding velocity block carries a
    # noise-dependent factor and vanishes at the expectation.
    t_psi = general_solves(cfg)[1] @ psi_matrix(cfg, w_hat)
    B[6:9, 0:3] = -0.5 * accum_rotation @ t_psi * dt**2
    B[3:6, 3:6] = accum_rotation * dt
    B[6:9, 3:6] = 0.5 * accum_rotation * dt**2
    return StepMatrices(a=A, b=B)


def identity_delta() -> PreintDelta:
    """The empty delta that propagate_step folds samples into."""
    return PreintDelta(rotation=np.eye(3), velocity=np.zeros(3), position=np.zeros(3),
                       covariance=np.zeros((9, 9)), duration=0.0, count=0)


def propagate_step(prev: PreintDelta, w_hat, a_hat, cfg: VimuConfig,
                   noise: VimuNoise, freq: float) -> PreintDelta:
    """Fold one bias-corrected sample into the running delta."""
    dt = 1.0 / freq
    w_hat = np.asarray(w_hat, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    step_rot = exp_so3(w_hat * dt)
    sm = step_matrices(prev.rotation, step_rot, w_hat, a_hat, cfg, dt)
    zero = np.zeros((3, 3))
    s_eta = np.block([[noise.gyro, zero], [zero, noise.accel]]) * freq
    cov = sm.a @ prev.covariance @ sm.a.T + sm.b @ s_eta @ sm.b.T
    cov = 0.5 * (cov + cov.T)
    accel_world = prev.rotation @ a_hat
    return PreintDelta(
        rotation=prev.rotation @ step_rot,
        velocity=prev.velocity + accel_world * dt,
        position=prev.position + prev.velocity * dt + 0.5 * accel_world * dt**2,
        covariance=cov,
        duration=prev.duration + dt,
        count=prev.count + 1,
    )


def apply_measurement_noise(gyro, accel, noise: NoiseSpec, freq: float, rng):
    """Add white noise plus a bias random walk to ideal measurements.

    Discrete white noise has std sigma * sqrt(freq) per axis; the bias
    walk steps by sigma_b / sqrt(freq) per sample starting from the
    spec's initial bias (the step after sample k perturbs sample k+1).
    """
    gyro = np.asarray(gyro, dtype=float)
    accel = np.asarray(accel, dtype=float)
    n = gyro.shape[0]
    sqf = np.sqrt(freq)
    eta_g = rng.standard_normal((n, 3)) * (noise.sigma_g * sqf)
    eta_a = rng.standard_normal((n, 3)) * (noise.sigma_a * sqf)
    steps_g = rng.standard_normal((n, 3)) * (noise.sigma_bg / sqf)
    steps_a = rng.standard_normal((n, 3)) * (noise.sigma_ba / sqf)
    walk_g = noise.initial_bias_g + np.vstack(
        [np.zeros(3), np.cumsum(steps_g[:-1], axis=0)])
    walk_a = noise.initial_bias_a + np.vstack(
        [np.zeros(3), np.cumsum(steps_a[:-1], axis=0)])
    return gyro + walk_g + eta_g, accel + walk_a + eta_a


class Replay:
    """A stand-in for a Generator whose next standard normals are the
    array e, such as one sensor's slice of a block drawn for many:
    standard_normal returns a copy of e, or fills out with it."""

    def __init__(self, e):
        self.e = np.asarray(e)

    def standard_normal(self, size=None, out=None):
        if out is None:
            assert tuple(np.atleast_1d(size)) == self.e.shape
            return self.e.copy()
        out[...] = self.e
        return out


def riccati_schedule(var_w: float, q: float, n: int) -> tuple:
    """Innovation variances S_k and gains K_k, k < n, of the scalar
    Kalman filter of x_k = L_k + N(0, var_w) with L_0 known and
    L_{k+1} = L_k + N(0, q), by the Riccati recursion one sample at a
    time: S_k = P_k + var_w, K_k = P_k / S_k and
    P_{k+1} = ((var_w + q) P_k + q var_w) / S_k from P_0 = 0 (q, and
    K_k = 0, where S_k is 0)."""
    s, gain = np.empty(n), np.empty(n)
    p = 0.0
    for k in range(n):
        s[k] = p + var_w
        gain[k] = p / s[k] if s[k] > 0 else 0.0
        p = ((var_w + q) * p + q * var_w) / s[k] if s[k] > 0 else q
    return s, gain


def innovations_noise(gyro, accel, noise: NoiseSpec, freq: float, rng):
    """The library's noise model, the white noise and bias walk of
    apply_measurement_noise, from one (2, n, 3) standard-normal draw.

    Per row, the scalar Kalman filter of x_k = L_k + N(0, var_w) with
    L_0 the initial bias and L_{k+1} = L_k + N(0, q), var_w = sigma^2
    freq and q = sigma_b^2 / freq, gives the innovation variances S_k and
    gains K_k (``riccati_schedule``). Sample k is then
    ideal_k + L_0 + sum_{j<k} K_j nu_j + nu_k, nu_k = sqrt(S_k) e_k.
    """
    ideal = np.array([gyro, accel], dtype=float)
    n = ideal.shape[1]
    e = rng.standard_normal((2, n, 3))
    rows = ((noise.sigma_g, noise.sigma_bg, noise.initial_bias_g),
            (noise.sigma_a, noise.sigma_ba, noise.initial_bias_a))
    out = np.empty_like(ideal)
    for row, (sigma, sigma_b, bias) in enumerate(rows):
        s, gain = riccati_schedule(sigma * sigma * freq, sigma_b * sigma_b / freq, n)
        nu = np.sqrt(s)[:, None] * e[row]
        level = np.vstack([np.zeros(3), np.cumsum(gain[:-1, None] * nu[:-1], axis=0)])
        out[row] = ideal[row] + bias + level + nu
    return out[0], out[1]


def write_imu_csv(path, series: ImuSeries):
    """Write a raw or fused series, one row per sample at its implicit
    timestamp."""
    lines = [IMU_CSV_HEADER]
    for t, w, a in zip(series.times_ns(), series.gyro, series.accel):
        vals = ",".join(f"{x:.17g}" for x in (*w, *a))
        lines.append(f"{int(t)},{vals}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def parse_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != IMU_CSV_HEADER:
            raise FormatError(
                f"{path}: bad header {header!r}, expected {IMU_CSV_HEADER!r}")
        times = []
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise FormatError(f"{path}:{lineno}: expected 7 columns")
            try:
                times.append(int(parts[0]))
                values.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if len(times) < 2:
        raise FormatError(f"{path}: need at least 2 samples to derive a rate")
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = _line_of_row(path, int(np.argmin(finite)))
        raise FormatError(f"{path}:{lineno}: non-finite sample value")
    return np.asarray(times, dtype=np.int64), values


def _line_of_row(path, row: int) -> int:
    """File line number of data row ``row`` (0-based, blank lines
    skipped). Only the error path calls this, so the parse loop need
    not track line numbers."""
    with open(path) as fh:
        data_lines = (n for n, line in enumerate(fh, start=1)
                      if n > 1 and line.strip())
        return next(itertools.islice(data_lines, row, None))


def sample_trajectory(cfg: SimConfig, t: float) -> TrajectorySample:
    """Ground-truth state at time t: the one-time case of
    trajectory_samples."""
    return trajectory_samples(cfg, [t])[0]


def ideal_imu_series(cfg: SimConfig, mount: Extrinsic) -> tuple:
    """Noise-free gyro/accel arrays of one mounted IMU: the one-mount
    case of ideal_imu_series_stack."""
    return tuple(ideal_imu_series_stack(cfg, mount.rotation()[None], mount.p[None])[0])


def grid_extrinsics(pitch: float = 0.05) -> list:
    """The mounts of grid_mounts as one Extrinsic each, in its order."""
    return [Extrinsic(q=quat_from_rotation(R), p=p) for R, p in zip(*grid_mounts(pitch))]


def simulate_imu(cfg: SimConfig, mount: Extrinsic, noise: NoiseSpec,
                 seed=None) -> ImuSeries:
    """One mounted IMU with the library's noise from default_rng(seed),
    cfg.seed when None, as the simulate command builds each IMU."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    w, a = simulation.apply_measurement_noise(*ideal_imu_series(cfg, mount), noise,
                                              cfg.freq, rng)
    return ImuSeries(freq=cfg.freq, start_ns=0, gyro=w, accel=a)


def ideal_body_measurements(sample: TrajectorySample, gravity) -> tuple:
    """Noise-free gyro and specific-force measurement at the body origin.

    Specific force is R_wb^T (a_world - g): a stationary, level body reads
    (0, 0, +9.81) with gravity (0, 0, -9.81).
    """
    g = _vec3(gravity, "gravity")
    f = sample.rotation.T @ (sample.acceleration - g)
    return sample.omega.copy(), f


def virtual_bias(cfg: VimuConfig, gyro_biases, accel_biases) -> tuple:
    """Virtual-frame biases equivalent to the given per-sensor biases."""
    gyro_solve, accel_solve = general_solves(cfg)
    return (
        gyro_solve @ np.ravel(np.asarray(gyro_biases, dtype=float)),
        accel_solve @ np.ravel(np.asarray(accel_biases, dtype=float)),
    )


def single_frame(noise: NoiseSpec, rotation=None, position=None) -> VimuConfig:
    """Degenerate one-sensor array (passthrough with optional re-framing)."""
    return VimuConfig(
        rotations=(np.eye(3) if rotation is None else rotation,),
        positions=(np.zeros(3) if position is None else position,),
        noises=(noise,),
    )


def centred_config(rotations, positions, noises) -> VimuConfig:
    """The array with its sensor origins moved so that their
    accelerometer-weighted centroid, sum_i w_i p_i with w_i proportional
    to 1/sigma_a_i^2 (equal when every sigma_a is zero), is the origin."""
    sigmas = np.array([ns.sigma_a for ns in noises])
    w = np.ones(len(sigmas)) if np.all(sigmas == 0.0) else 1.0 / sigmas**2
    positions = np.asarray(positions, dtype=float)
    return VimuConfig(rotations=tuple(rotations),
                      positions=tuple(positions - w @ positions / w.sum()),
                      noises=tuple(noises))


def array_frame(mounts: list, noises: list) -> tuple:
    """VimuConfig for body-mounted sensors with the virtual frame at the
    centroid of the mount positions, axes aligned with the body.

    Returns (config, frame_rotation, frame_position) where the last two
    place the virtual frame on the body (R body-from-virtual = I, so the
    rotation returned is the identity; the position is the centroid).
    """
    if len(mounts) != len(noises) or not mounts:
        raise ValueError("need matching, non-empty mount and noise lists")
    centroid = np.mean([m.p for m in mounts], axis=0)
    cfg = VimuConfig(
        rotations=tuple(rotation_from_quat([m.q for m in mounts])),
        positions=tuple(m.p - centroid for m in mounts),
        noises=tuple(noises),
    )
    return cfg, np.eye(3), centroid


# The grid sensors of each variant, row-major on the 3x3 array, declared
# here and not read from the harness, so that a wrong set there shows:
# the centre, the first-row ends, the corners and the whole grid.
CENTER = 4
PAIR = (0, 2)
VARIANT_SENSORS = {
    "1-imu-true": (CENTER,),
    "2-imu-perturbed": PAIR,
    "4-imu-perturbed": (0, 2, 6, 8),
    "9-imu-perturbed": tuple(range(9)),
    "2-imu-calibrated": PAIR,
}


@dataclass
class _VariantSetup:
    indices: tuple
    cfg: VimuConfig
    truth: list  # true states of the virtual frame at every keyframe


def _setup_variant(name: str, plan: ExperimentPlan, mounts, believed,
                   truth_samples):
    idx = VARIANT_SENSORS[name]
    if name == "1-imu-true":
        m = mounts[CENTER]
        cfg = single_frame(plan.noise)
        frame_rot = rotation_from_quat(m.q).T
        frame_pos = m.p
    elif name.endswith("-perturbed"):
        cfg, frame_rot, frame_pos = array_frame(
            [believed[i] for i in idx], [plan.noise] * len(idx))
    else:
        raise ValueError(f"unknown variant {name}")
    truth = [true_vimu_state(ts, frame_rot, frame_pos) for ts in truth_samples]
    return _VariantSetup(indices=idx, cfg=cfg, truth=truth)


def _setup_calibrated(plan: ExperimentPlan, mounts, series_by_idx,
                      truth_samples):
    """Calibrate the sensor pair from the trial data with the library's
    stage kernels on that one pair, raising the first error as calibrate
    does, and anchor the centroid frame of the fitted rotation matrix
    and lever arm at sensor A's true mount."""
    ia, ib = PAIR
    a, b = series_by_idx[ia], series_by_idx[ib]
    R, _, (error,) = calibration.fit_rotation(a.gyro, b.gyro)
    if error is None:
        p, _, (error,) = calibration.fit_translation(R, a.gyro, a.accel, b.gyro,
                                                     b.accel, a.freq)
    if error is not None:
        raise error
    cfg = replace(centroid_frame(Extrinsic(p=p), plan.noise, plan.noise),
                  rotations=(np.eye(3), R))
    R_ba_body = rotation_from_quat(mounts[ia].q).T
    # sensor A sits at positions[0] in the frame, which has A's axes
    frame_pos = mounts[ia].p - R_ba_body @ cfg.positions[0]
    truth = [true_vimu_state(ts, R_ba_body, frame_pos) for ts in truth_samples]
    return _VariantSetup(indices=PAIR, cfg=cfg, truth=truth)


def _score_variant(setup: _VariantSetup, series_by_idx, plan: ExperimentPlan,
                   step: int):
    fused = fuse_series(setup.cfg, [series_by_idx[i] for i in setup.indices])
    state = setup.truth[0]
    predicted = []
    for delta in preintegrate_windows(fused, state, step):
        state = predict_state(state, delta, plan.sim.gravity)
        predicted.append(state)
    return rmse_metrics(predicted, setup.truth[1:])


def run_experiment(plan: ExperimentPlan, out_dir=None) -> RmseReport:
    """Execute the plan; deterministic for a fixed master seed.

    When ``out_dir`` is given, per-trial metrics are appended to
    ``trials.jsonl`` as they complete, so long runs stream to disk.
    """
    mounts = grid_extrinsics(pitch=plan.grid_pitch)
    needed = sorted({i for v in plan.variants
                     for i in VARIANT_SENSORS[v]})
    ideal = {i: ideal_imu_series(plan.sim, mounts[i]) for i in needed}

    n_total = plan.sim.sample_count
    step = int(round(plan.keyframe_interval * plan.sim.freq))
    if step < 1:
        raise ValueError("keyframe interval below one sample period")
    n_windows = (n_total - 2) // step
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
            believed = [perturb_extrinsic(m, plan.sigma_rot, plan.sigma_trans,
                                          perturb_rng) for m in mounts]
            static_setups = {
                v: _setup_variant(v, plan, mounts, believed, truth_samples)
                for v in plan.variants if v != "2-imu-calibrated"
            }
            for r in range(plan.sequences_per_sample):
                # (gyro/accel, sample, grid sensor, axis)
                e = np.random.default_rng(trial_seqs[r]).standard_normal(
                    (2, n_total, len(mounts), 3))
                series_by_idx = {}
                for i in needed:
                    w, a = simulation.apply_measurement_noise(
                        ideal[i][0], ideal[i][1], plan.noise, plan.sim.freq,
                        Replay(e[:, :, i]))
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


def log_so3(R) -> np.ndarray:
    """Rotation vector of a rotation matrix (3, 3), or of each matrix of
    a stack (n, 3, 3), with norm <= pi.

    Near pi the dominant-axis extraction is used because the
    antisymmetric part of R degenerates there; each row takes its own
    branch.
    """
    R = np.asarray(R, dtype=float)
    w = 0.5 * vee(R - np.swapaxes(R, -1, -2))  # sin(angle) * axis
    sin_angle = np.linalg.norm(w, axis=-1)
    cos_angle = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0,
                        -1.0, 1.0)
    # atan2 keeps the angle well conditioned where arccos alone degrades
    # (cos near +-1); the measured sine also cancels out of angle/sin * w.
    angle = np.arctan2(sin_angle, cos_angle)
    small = angle < SMALL_ANGLE
    scale = np.where(small, 1.0, angle / np.where(small, 1.0, sin_angle))
    # R ~ 2 a a^T - I near pi: pick the axis from the strongest column of
    # the symmetrized R + I (symmetrizing drops the sin(angle) [a]x term);
    # sin(angle) >= 0, so the antisymmetric part fixes the sign when it
    # has not fully collapsed.
    m = 0.5 * (R + np.swapaxes(R, -1, -2)) + np.eye(3)
    k = np.argmax(np.diagonal(m, axis1=-2, axis2=-1), axis=-1)
    axis = np.take_along_axis(m, k[..., None, None], axis=-1)[..., 0]
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    axis *= np.where(np.sum(w * axis, axis=-1) < 0.0, -1.0, 1.0)[..., None]
    return np.where((np.pi - angle < 1e-6)[..., None], angle[..., None] * axis,
                    scale[..., None] * w)


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b (composition: rotate by b, then by a)."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_rotvec(phi) -> np.ndarray:
    """Unit quaternion (w >= 0) of a rotation vector (3,)."""
    phi = np.asarray(phi, dtype=float)
    angle = float(np.linalg.norm(phi))
    # sin(a/2)/a ~ 1/2 - a^2/48 below SMALL_ANGLE
    factor = (0.5 - angle**2 / 48.0 if angle < SMALL_ANGLE
              else np.sin(angle / 2.0) / angle)
    q = np.concatenate(([np.cos(angle / 2.0)], factor * phi))
    q /= np.linalg.norm(q)
    return -q if q[0] < 0.0 else q


def perturb_extrinsic(ext: Extrinsic, sigma_rot: float, sigma_trans: float,
                      rng) -> Extrinsic:
    """One mount's perturbed extrinsic: q composed with the quaternion of
    a N(0, sigma_rot^2 I) rotation vector, then p shifted by
    N(0, sigma_trans^2 I), each drawn by one standard_normal(3) call."""
    if sigma_rot < 0 or sigma_trans < 0:
        raise ValueError("perturbation sigmas must be >= 0")
    delta_rot = rng.standard_normal(3) * sigma_rot
    delta_p = rng.standard_normal(3) * sigma_trans
    return Extrinsic(q=quat_multiply(ext.q, quat_from_rotvec(delta_rot)),
                     p=ext.p + delta_p)


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector(s) v by quaternion q; v may be (3,) or (n, 3)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u = q[1:]
    w = q[0]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def residual_omega(q, omega_a, omega_b) -> np.ndarray:
    """Gyro pairing residual: w_B - q * w_A * q^-1. Broadcasts over rows."""
    return np.asarray(omega_b, dtype=float) - quat_rotate(q, omega_a)


def fit_rotation(gyro_a, gyro_b) -> tuple:
    """Stage-one kernel: the Procrustes rotation R minimizing
    sum_t |wB_t - R wA_t|^2, for gyro rows (..., n, 3). Returns (R (..., 3, 3), cost (...), errors): errors holds a
    DegenerateMotion or None per trial, row-major over the leading axes.
    """
    wa = np.asarray(gyro_a, dtype=float)
    wb = np.asarray(gyro_b, dtype=float)
    moment = np.swapaxes(wa, -1, -2) @ wa / wa.shape[-2]
    smallest = np.linalg.eigvalsh(moment)[..., 0]
    U, _, VT = np.linalg.svd(np.einsum("...ti,...tj->...ij", wb, wa))
    U[..., 2] *= np.sign(np.linalg.det(U) * np.linalg.det(VT))[..., None]
    R = U @ VT
    r = wb - wa @ np.swapaxes(R, -1, -2)
    errors = [None if e >= GYRO_EXCITATION_MIN else DegenerateMotion(
        "gyro second moment too weak for orientation estimation "
        f"(smallest eigenvalue {e:.3e} < {GYRO_EXCITATION_MIN:.0e})")
        for e in np.ravel(smallest)]
    return R, np.einsum("...ti,...ti->...", r, r), errors


def fit_translation(R, gyro_a, accel_a, gyro_b, accel_b, freq: float) -> tuple:
    """Stage-two kernel: the lever arm p minimizing
    sum_t |b_t - R M_t p|^2 over the interior samples, with
    b_t = aB_t - R aA_t and M_t = [w]x^2 + [wdot]x, for sample rows
    (..., n, 3) and rotations R (..., 3, 3). The residual is affine in
    p, so the normal equations are solved directly. Returns
    (p (..., 3), cost (...), errors): errors holds a DegenerateMotion,
    SingularNormalEquations or None per trial, row-major over the leading
    axes.
    """
    R = np.asarray(R, dtype=float)
    wa = gyro_a[..., 1:-1, :]
    wdot = _angular_accel(R, gyro_a, gyro_b, freq)
    M = lever_matrix(wa, wdot)  # (..., n - 2, 3, 3)
    mean_MtM = np.einsum("...tki,...tkj->...ij", M, M) / M.shape[-3]
    smallest = np.linalg.eigvalsh(mean_MtM)[..., 0]

    b = accel_b[..., 1:-1, :] - accel_a[..., 1:-1, :] @ np.swapaxes(R, -1, -2)
    bR = b @ R  # R^T b, row-wise
    H = np.einsum("...tki,...tkj->...ij", M, M)
    g = np.einsum("...tki,...tk->...i", M, bR)
    cond = np.linalg.cond(H)
    solvable = np.isfinite(cond) & (cond <= 1e12)
    p = np.linalg.solve(np.where(solvable[..., None, None], H, np.eye(3)),
                        g[..., None])[..., 0]
    r = b - (M @ p[..., None, :, None])[..., 0] @ np.swapaxes(R, -1, -2)
    errors = [
        DegenerateMotion("rotational excitation too weak for lever-arm "
                         f"estimation (smallest design eigenvalue {e:.3e})")
        if e < TRANSLATION_EXCITATION_MIN else None if ok else
        SingularNormalEquations(f"normal equations ill-conditioned (cond {c:.3e})")
        for e, c, ok in zip(np.ravel(smallest), np.ravel(cond), np.ravel(solvable))]
    return p, np.einsum("...ti,...ti->...", r, r), errors


def skew_lever_matrix(omega, omega_dot) -> np.ndarray:
    """Rigid-body lever operator [w]x^2 + [wdot]x as a product of skew
    matrices plus a skew matrix."""
    sw = skew(omega)
    return sw @ sw + skew(omega_dot)


def is_rotation(R, tol: float = 1e-9) -> bool:
    """True when the one matrix R is orthogonal with determinant +1
    within tol."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    return (
        np.allclose(R.T @ R, np.eye(3), atol=tol)
        and abs(float(np.linalg.det(R)) - 1.0) < tol
    )


def preintegrate_stack(gyro, accel, freq: float) -> tuple:
    """Every window's (dR, dv, dp) of rows (..., windows, step, 3), with
    the specific force rotated by a stacked (3, 3) @ (3, 1) matmul per
    sample; no covariance."""
    w_hat = np.asarray(gyro, dtype=float)
    a_hat = np.asarray(accel, dtype=float)
    dt = 1.0 / freq
    rot = exp_so3(w_hat * dt)
    dR = np.tile(np.eye(3), w_hat.shape[:-2] + (1, 1))
    for t in range(w_hat.shape[-2]):
        dR = dR @ rot[..., t, :, :]
        rot[..., t, :, :] = dR
    accel_world = a_hat.copy()
    np.matmul(rot[..., :-1, :, :], a_hat[..., 1:, :, None],
              out=accel_world[..., 1:, :, None])
    k = a_hat.shape[-2]
    dv_dp = np.array([np.full(k, dt), (k - 0.5 - np.arange(k)) * dt**2]) @ accel_world
    return dR, dv_dp[..., 0, :], dv_dp[..., 1, :]


def translation_cost(R, gyro_a, accel_a, gyro_b, accel_b, freq: float,
                     p) -> np.ndarray:
    """fit_translation's cost sum_t |b_t - R M_t p|^2 at a given lever
    arm p, with the residual formed in the B frame: a stacked 3x3
    product M_t p per sample, rotated by R."""
    R = np.asarray(R, dtype=float)
    M = lever_matrix(gyro_a[..., 1:-1, :], _angular_accel(R, gyro_a, gyro_b, freq))
    b = accel_b[..., 1:-1, :] - accel_a[..., 1:-1, :] @ np.swapaxes(R, -1, -2)
    r = b - (M @ p[..., None, :, None])[..., 0] @ np.swapaxes(R, -1, -2)
    return np.einsum("...ti,...ti->...", r, r)


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


def still_trajectory() -> TrajectoryParams:
    """Motionless trajectory (all amplitudes zero)."""
    return TrajectoryParams(pos_amplitude=np.zeros(3), euler_amplitude=np.zeros(3))


def rmse_report_from_dict(d: dict) -> RmseReport:
    """The RmseReport that ``RmseReport.to_dict`` gave ``d``."""
    return RmseReport(plan=d["plan"], metrics=d["metrics"],
                      completed=d["completed"], failures=d["failures"])


def per_sample_means(report: RmseReport, variant: str, metric: str) -> np.ndarray:
    """A variant's per-extrinsic-sample means of one metric."""
    return np.asarray(report.metrics[variant][metric]["per_sample_means"],
                      dtype=float)
