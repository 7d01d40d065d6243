"""Closed-form rigid-body trajectory simulation and ideal/noisy IMU
measurement synthesis.

The trajectory family is per-axis sinusoids: position ``A sin(2 pi f t
+ phi0)`` on each world axis, orientation from per-axis Euler sinusoids
(yaw-pitch-roll, ZYX) with body rates and angular accelerations obtained
by analytic differentiation of the Euler-rate kinematics. Everything is
exact in closed form, so simulated data can serve as a ground-truth
oracle for the estimators.

Measurement noise is white noise plus a bias random walk per axis. It
is drawn as one standard normal per sample and axis and shaped by the
innovations form of that model's scalar Kalman filter, whose gains
come from the closed-form solution of its Riccati recursion
(apply_measurement_noise_stack).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import lever_matrix, quat_from_rotvec, quat_multiply
from .types import Extrinsic, NoiseSpec, _Block, _finite_floats, _number, _read, _vec3


@dataclass(frozen=True)
class TrajectoryParams(_Block):
    """Sinusoid parameters, one entry per axis.

    Position axes are world x/y/z in meters; Euler axes are roll (x),
    pitch (y), yaw (z) in radians. Frequencies in Hz, phases in rad.
    """

    pos_amplitude: np.ndarray = field(default_factory=lambda: np.array([0.8, 0.6, 0.4]))
    pos_frequency: np.ndarray = field(default_factory=lambda: np.array([0.30, 0.40, 0.50]))
    pos_phase: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 2.0]))
    euler_amplitude: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.4, 0.6]))
    euler_frequency: np.ndarray = field(default_factory=lambda: np.array([0.50, 0.35, 0.45]))
    euler_phase: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.7, 1.4]))

    _NAME = "trajectory"
    _KEYS = {
        "position_amplitude_m": ("pos_amplitude", _finite_floats),
        "position_frequency_hz": ("pos_frequency", _finite_floats),
        "position_phase_rad": ("pos_phase", _finite_floats),
        "euler_amplitude_rad": ("euler_amplitude", _finite_floats),
        "euler_frequency_hz": ("euler_frequency", _finite_floats),
        "euler_phase_rad": ("euler_phase", _finite_floats),
    }

    def __post_init__(self):
        for name, _ in self._KEYS.values():
            object.__setattr__(self, name, _vec3(getattr(self, name)))
        if np.abs(self.euler_amplitude[1]) >= np.pi / 2:
            raise ValueError("euler_amplitude[1] (pitch) must stay below pi/2 in "
                             f"magnitude, got {self.euler_amplitude[1]}")


@dataclass(frozen=True)
class SimConfig(_Block):
    """Simulation setup: sample rate, span, gravity, and trajectory. The
    seed is not part of the block: a simulation YAML adds it, and an
    experiment plan seeds its trials with its master seed."""

    freq: float = 200.0
    duration: float = 60.0
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    seed: int = 0
    trajectory: TrajectoryParams = field(default_factory=TrajectoryParams)

    _NAME = "sim"
    _KEYS = {
        "freq": ("freq", _number),
        "duration": ("duration", _number),
        "gravity": ("gravity", _finite_floats),
        "trajectory": ("trajectory", lambda key, d: _read(TrajectoryParams, d, key)),
    }

    def __post_init__(self):
        for name, v in (("freq", self.freq), ("duration", self.duration)):
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        object.__setattr__(self, "gravity", _vec3(self.gravity))

    @property
    def sample_count(self) -> int:
        return int(round(self.freq * self.duration))

    def times(self) -> np.ndarray:
        return np.arange(self.sample_count) / self.freq


@dataclass(frozen=True)
class TrajectorySample:
    """Ground-truth states at instants ``t``, the time axis first in
    every field.

    ``rotation`` is world-from-body; position/velocity/acceleration are
    world-frame; ``omega`` and ``omega_dot`` are body-frame angular rate
    and angular acceleration. Indexing picks instants: an integer gives
    the state at one instant, with the time axis dropped, and a slice or
    index array the states at those instants; iteration gives the
    states instant by instant.
    """

    t: np.ndarray
    rotation: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray

    def __getitem__(self, i) -> "TrajectorySample":
        return TrajectorySample(*(getattr(self, f.name)[i] for f in fields(self)))


def _sinusoids(amp, freq, phase, ts):
    """Per-axis A sin(2 pi f t + phi) and its first two derivatives.

    Returns three (n, 3) arrays.
    """
    w = 2.0 * np.pi * np.asarray(freq)
    arg = np.outer(ts, w) + np.asarray(phase)
    val = amp * np.sin(arg)
    d1 = amp * w * np.cos(arg)
    d2 = -amp * w**2 * np.sin(arg)
    return val, d1, d2


def _rotations_zyx(angles: np.ndarray) -> np.ndarray:
    """World-from-body matrices for (roll, pitch, yaw) columns, (n, 3, 3)."""
    sr, cr = np.sin(angles[:, 0]), np.cos(angles[:, 0])
    sp, cp = np.sin(angles[:, 1]), np.cos(angles[:, 1])
    sy, cy = np.sin(angles[:, 2]), np.cos(angles[:, 2])
    R = np.empty((angles.shape[0], 3, 3))
    R[:, 0, 0] = cy * cp
    R[:, 0, 1] = cy * sp * sr - sy * cr
    R[:, 0, 2] = cy * sp * cr + sy * sr
    R[:, 1, 0] = sy * cp
    R[:, 1, 1] = sy * sp * sr + cy * cr
    R[:, 1, 2] = sy * sp * cr - cy * sr
    R[:, 2, 0] = -sp
    R[:, 2, 1] = cp * sr
    R[:, 2, 2] = cp * cr
    return R


def _body_rates(angles, d1, d2):
    """Body angular rate and acceleration from ZYX Euler angle histories.

    For R = Rz(yaw) Ry(pitch) Rx(roll):
        wx = roll' - yaw' sin(pitch)
        wy = pitch' cos(roll) + yaw' cos(pitch) sin(roll)
        wz = -pitch' sin(roll) + yaw' cos(pitch) cos(roll)
    and omega_dot is the direct time derivative of those expressions.
    """
    r, p = angles[:, 0], angles[:, 1]
    rd, pd, yd = d1[:, 0], d1[:, 1], d1[:, 2]
    rdd, pdd, ydd = d2[:, 0], d2[:, 1], d2[:, 2]
    sr, cr = np.sin(r), np.cos(r)
    sp, cp = np.sin(p), np.cos(p)

    w = np.empty((angles.shape[0], 3))
    w[:, 0] = rd - yd * sp
    w[:, 1] = pd * cr + yd * cp * sr
    w[:, 2] = -pd * sr + yd * cp * cr

    wd = np.empty_like(w)
    wd[:, 0] = rdd - ydd * sp - yd * pd * cp
    wd[:, 1] = (pdd * cr - pd * rd * sr + ydd * cp * sr
                + yd * (-pd * sp * sr + rd * cp * cr))
    wd[:, 2] = (-pdd * sr - pd * rd * cr + ydd * cp * cr
                + yd * (-pd * sp * cr - rd * cp * sr))
    return w, wd


def trajectory_samples(cfg: SimConfig, ts) -> TrajectorySample:
    """Ground-truth states at a 1-d array of times in [0, duration]."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all((ts >= 0.0) & (ts <= cfg.duration)):
        raise ValueError(f"times must be a 1-d array in [0, {cfg.duration}]")
    tp = cfg.trajectory
    pos, vel, acc = _sinusoids(tp.pos_amplitude, tp.pos_frequency, tp.pos_phase, ts)
    ang, ang_d1, ang_d2 = _sinusoids(
        tp.euler_amplitude, tp.euler_frequency, tp.euler_phase, ts)
    return TrajectorySample(ts, _rotations_zyx(ang), pos, vel, acc,
                            *_body_rates(ang, ang_d1, ang_d2))


def transfer_measurement(omega, omega_dot, accel, ext: Extrinsic) -> tuple:
    """Rigid-body transfer of gyro/specific-force readings between frames.

    Inputs are source-frame (A) quantities; ``ext`` carries the target
    frame's pose (rotation B-from-A, lever arm: B origin in A coords):

        w_B = R_BA w_A
        a_B = R_BA (a_A + [w_A]x^2 p + [wdot_A]x p)

    Accepts (3,) vectors or (n, 3) batches.
    """
    R = ext.rotation()
    omega = np.asarray(omega, dtype=float)
    lever = lever_matrix(omega, omega_dot) @ ext.p
    return omega @ R.T, (np.asarray(accel, dtype=float) + lever) @ R.T


def ideal_imu_series_stack(cfg: SimConfig, mounts) -> np.ndarray:
    """Noise-free (gyro, accel) rows of IMUs rigidly mounted on the body,
    (m, 2, n, 3) for m mounts, from one evaluation of the trajectory.
    Each mount follows the Extrinsic convention with the body as source:
    q rotates body coords into the sensor frame, p is the sensor origin
    in body coordinates.
    """
    s = trajectory_samples(cfg, cfg.times())
    # specific force at the body origin, in body coords
    f = np.einsum("nij,nj->ni", s.rotation.transpose(0, 2, 1),
                  s.acceleration - cfg.gravity)
    return np.array([transfer_measurement(s.omega, s.omega_dot, f, m) for m in mounts])


def apply_measurement_noise(gyro, accel, noise: NoiseSpec, freq: float, rng):
    """Add white noise plus a bias random walk to ideal measurements:
    the one-sensor case of apply_measurement_noise_stack."""
    ideal = np.array([gyro, accel], dtype=float)
    return tuple(apply_measurement_noise_stack(ideal, noise, freq, rng))


def _level_variances(var_w, q, out) -> np.ndarray:
    """P_k for k < len(out), into out: the predicted variance of the
    level L_k in the scalar Kalman filter of x_k = L_k + N(0, var_w),
    L_0 known and L_{k+1} = L_k + N(0, q). The Riccati recursion
    P_{k+1} = ((var_w + q) P_k + q var_w) / (P_k + var_w) from P_0 = 0
    is a Mobius map with fixed points p+ > 0 > p-, p+ p- = -q var_w, so
    (P_k - p+) / (P_k - p-) = rho^k (P_0 - p+) / (P_0 - p-) with
    rho = (var_w + p-) / (var_w + p+), which gives
    P_k = p+ (1 - rho^k) / (1 + (p+ / -p-) rho^k) for every k at once.
    """
    if var_w == 0.0 or q == 0.0:  # the level is seen exactly, or never moves
        out[:] = q
        out[:1] = 0.0
        return out
    out[:] = np.arange(len(out))
    r = np.sqrt(q) * np.sqrt(q + 4.0 * var_w)  # p+ - p-
    p_plus = 0.5 * (q + r)
    p_minus = 2.0 * q * var_w / (q + r)  # -p-, without cancellation
    one_minus_rho = r / (var_w + p_plus)
    out *= (np.log1p(-one_minus_rho) if one_minus_rho < 0.5 else
            np.log(2.0 * var_w * p_minus / ((q + r) * (var_w + p_plus))))
    denominator = np.exp(out)  # k log(rho) -> rho^k
    denominator *= p_plus / p_minus
    denominator += 1.0
    np.expm1(out, out=out)
    out *= -p_plus
    out /= denominator
    return out


def innovation_weights(noise: NoiseSpec, freq: float, n: int) -> np.ndarray:
    """The weights (2, 2, n, 1) by which apply_measurement_noise_stack
    turns n standard normals per axis into noise: [0] holds
    a_k = K_k sqrt(S_k) and [1] holds b_k = (1 - K_k) sqrt(S_k)
    = var_w / sqrt(S_k), each for the gyro and the accel row, where S_k
    = P_k + var_w and K_k = P_k / S_k are the innovation variance and
    gain of the row's white noise, var_w = sigma^2 freq, and bias walk,
    q = sigma_b^2 / freq. Computed in numpy, so a sigma that overflows
    gives non-finite weights instead of an exception."""
    var_w = np.square([noise.sigma_g, noise.sigma_a]) * freq
    q = np.square([noise.sigma_bg, noise.sigma_ba]) / freq
    weights = np.empty((2, 2, n, 1))
    for a, b, v, s in zip(weights[0, ..., 0], weights[1, ..., 0], var_w, q):
        P = _level_variances(v, s, out=a)
        np.sqrt(np.add(P, v, out=b), out=b)  # sqrt(S_k)
        nonzero = b != 0.0  # P_k = 0 too where S_k is; NaN stays NaN
        np.divide(P, b, out=a, where=nonzero)
        np.divide(v, b, out=b, where=nonzero)
    return weights


def apply_measurement_noise_stack(ideal, noise: NoiseSpec, freq: float, rng,
                                  out=None, level=None, weights=None) -> np.ndarray:
    """Noisy copies of ideal (gyro, accel) rows, ideal (2, n, ..., 3)
    with the sample on axis 1 and any sensor axes between it and the
    vector axis, written to ``out`` (a C-contiguous array of that shape,
    new when None).

    Each axis of a row gets white noise of variance
    var_w = sigma^2 freq plus a bias that starts at the spec's initial
    bias b0 and steps by N(0, q), q = sigma_b^2 / freq, after every
    sample, so its samples about ideal + b0 have covariance
    var_w delta_ik + q min(i, k). The Generator rng fills out with one
    standard-normal block e, one normal per sample and axis, in
    out's order. The innovations form of the scalar Kalman filter of
    that model (Harvey, "Forecasting, Structural Time Series Models and
    the Kalman Filter", 1989) builds sample k as
    ideal_k + b0 + sum_{j<k} K_j nu_j + nu_k, nu_k = sqrt(S_k) e_k: the
    Cholesky factor of that covariance, so the samples have exactly
    its distribution. The sum runs in place on out as
    (b0 + sum_{j<=k} K_j nu_j) + ((1 - K_k) nu_k + ideal_k), the level
    in ``level`` (a scratch of out's shape, new when None), with the
    ``weights`` of innovation_weights(noise, freq, n), which a caller
    that adds the same noise many times builds once. They broadcast
    over the sensor and vector axes without a copy.
    """
    z = np.empty(np.shape(ideal)) if out is None else out
    n = z.shape[1]
    if weights is None:
        weights = innovation_weights(noise, freq, n)
    a, b = weights.reshape((2, 2, n) + (1,) * (z.ndim - 2))
    rng.standard_normal(out=z)
    level = np.multiply(z, a, out=level)
    bias = np.array([noise.initial_bias_g, noise.initial_bias_a])
    level[:, :1] += bias.reshape((2, 1) + (1,) * (z.ndim - 3) + (3,))
    np.cumsum(level, axis=1, out=level)
    z *= b
    z += ideal
    z += level
    return z


def perturb_extrinsics(ext: Extrinsic, sigma_rot: float, sigma_trans: float,
                       rng: np.random.Generator) -> Extrinsic:
    """Draw a perturbed extrinsic from rng: rotation right-multiplied by
    the exponential of a N(0, sigma_rot^2 I) tangent, translation
    shifted by N(0, sigma_trans^2 I)."""
    if sigma_rot < 0 or sigma_trans < 0:
        raise ValueError("perturbation sigmas must be >= 0")
    delta_rot = rng.standard_normal(3) * sigma_rot
    delta_p = rng.standard_normal(3) * sigma_trans
    return Extrinsic(q=quat_multiply(ext.q, quat_from_rotvec(delta_rot)),
                     p=ext.p + delta_p)


def grid_mounts(pitch: float = 0.05) -> list[Extrinsic]:
    """Planar IMU array on the body: 3x3 grid, identity orientations,
    centered on the body origin, row-major order."""
    return [Extrinsic(p=np.array([c * pitch, r * pitch, 0.0]))
            for r in (-1, 0, 1) for c in (-1, 0, 1)]
