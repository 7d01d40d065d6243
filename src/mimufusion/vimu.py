"""Virtual-IMU construction: fuse n rigidly mounted IMUs into a single
equivalent sensor at the array's accelerometer-weighted centroid.

The paper's virtual IMU is the whitened stacked least-squares fit of the
sensors' samples. Every NoiseSpec is isotropic, so the whitened Gram
sum_i R_i^T R_i / sigma_i^2 is (sum_i sigma_i^-2) I for any rotations
R_i, and the fit is the weighted mean sum_i w_i R_i^T y_i, w_i the
normalized 1/sigma_i^2 weights of the sensors' gyros or accelerometers
(_fused_rows, the one product that fuse_series and the evaluate harness
share). The sensors' lever accelerations R_i (w x (w x p_i) + wdot x p_i)
fuse to zero at the weighted centroid sum_i w_i p_i, where VimuConfig
puts the virtual origin (accel_centroid, centroid_frame). Every virtual
noise and bias random-walk density is sum_i (w_i sigma_i)^2 I
(virtual_covariances), which the fuse subcommand stores as the Q_* of
its sidecar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LengthMismatch, SingularFusion
from .geometry import is_rotation
from .types import (Extrinsic, ImuSeries, NoiseSpec, _Block, _finite_floats, _frozen, _read,
                    check_synchronized)


@dataclass(frozen=True)
class VimuConfig(_Block):
    """Geometry and noise of an n-sensor array around a virtual frame.

    rotations[i] maps virtual-frame coordinates into sensor i's frame;
    positions[i] is sensor i's origin in virtual-frame coordinates (m).
    The virtual origin is the accelerometer-weighted centroid: positions
    whose accel_centroid is further from zero than round-off, 1e-12 of
    the largest |positions[i]| in m and at least 1e-12 m, are rejected,
    and noises that mix exact and noisy gyros or accelerometers (see
    _weights) raise SingularFusion, so that every config fuses.
    """

    rotations: tuple
    positions: tuple
    noises: tuple

    _NAME = "config"
    _KEYS = {
        "rotations": ("rotations", _finite_floats),
        "positions_m": ("positions", _finite_floats),
        "noises": ("noises", lambda key, entries: tuple(
            _read(NoiseSpec, d, f"{key}[{i}]") for i, d in enumerate(entries))),
    }

    def __post_init__(self):
        rotations = tuple(_frozen(r) for r in self.rotations)
        positions = tuple(_frozen(p) for p in self.positions)
        noises = tuple(self.noises)
        if not (len(rotations) == len(positions) == len(noises)) or not rotations:
            raise ValueError("need matching, non-empty geometry and noise lists")
        if not (all(r.shape == (3, 3) for r in rotations)
                and np.all(is_rotation(np.stack(rotations), tol=1e-8))):
            raise ValueError("rotations must be valid rotation matrices")
        for p in positions:
            if p.shape != (3,) or not np.isfinite(p).all():
                raise ValueError("positions must be finite 3-vectors")
        _weights([ns.sigma_g for ns in noises])  # the gyros must have weights too
        offset = np.linalg.norm(accel_centroid(positions, noises))
        if offset > 1e-12 * max(1.0, *(np.linalg.norm(p) for p in positions)):
            raise ValueError(f"positions_m must have their accelerometer-weighted "
                             f"centroid at the origin, got one {offset:.3e} m off")
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "noises", noises)


def centroid_frame(ext: Extrinsic, noise_a: NoiseSpec,
                   noise_b: NoiseSpec) -> VimuConfig:
    """Two-sensor virtual frame at the accelerometer-weighted centroid of
    the pair, axes aligned with sensor A: on the lever arm, at the
    fraction of the way from A to B that B's accel weight gives (the
    midpoint for equal noise)."""
    c = accel_centroid([np.zeros(3), ext.p], (noise_a, noise_b))
    return VimuConfig(
        rotations=(np.eye(3), ext.rotation()),
        positions=(-c, ext.p - c),
        noises=(noise_a, noise_b),
    )


def _weights(sigmas) -> np.ndarray:
    """Normalized 1/sigma^2 weights of one category's sensors, taken as
    (sigma_min / sigma_i)^2 so that every finite positive sigma gives
    finite weights, and exactly 1/n for equal sigmas; equal weights when
    every sigma is zero (exact data). Mixing zero and positive sigmas
    gives no weights and raises SingularFusion."""
    v = np.asarray(sigmas, dtype=float)
    if np.all(v > 0.0):
        r = (v.min() / v) ** 2
    elif np.all(v == 0.0):
        r = np.ones_like(v)
    else:
        raise SingularFusion("cannot fuse exact (sigma=0) and noisy sensors in one category")
    return r / r.sum()


def accel_centroid(positions, noises) -> np.ndarray:
    """sum_i w_i p_i of sensor origins positions (..., n, 3), any leading
    axes being trials, with w_i the normalized 1/sigma_a^2 weights of
    noises: the point where the fused accelerometer sees no lever arm.
    Exact data (every sigma_a zero) weighs the sensors equally."""
    w = _weights([ns.sigma_a for ns in noises])
    # scaled so that equal noise weighs each sensor by exactly 1: the
    # centroid is then the plain mean of the origins, to the last bit
    w = w / w.max()
    return np.sum(w[:, None] * np.asarray(positions, dtype=float), axis=-2) / w.sum()


def _covariance(key: str, value) -> np.ndarray:
    """A sidecar Q_* as a 3x3 array; one that is not a finite 3x3 matrix,
    or not symmetric positive semi-definite to round-off, raises
    FormatError naming key."""
    m = _finite_floats(key, value)
    if m.shape != (3, 3):
        raise FormatError(f"{key} must be a 3x3 matrix, got shape {m.shape}")
    tol = 1e-12 * np.abs(m).max()
    if np.abs(m - m.T).max() > tol or np.linalg.eigvalsh(m).min() < -tol:
        raise FormatError(f"{key} must be symmetric positive semi-definite, "
                          f"got {m.tolist()}")
    return m


@dataclass(frozen=True)
class VimuNoise(_Block):
    """Virtual-sensor white-noise and bias random-walk covariance
    densities (continuous time, 3x3 each)."""

    gyro: np.ndarray
    gyro_bias: np.ndarray
    accel: np.ndarray
    accel_bias: np.ndarray

    _NAME = "covariances"
    _KEYS = {"Q_gV": ("gyro", _covariance), "Q_bgV": ("gyro_bias", _covariance),
             "Q_aV": ("accel", _covariance), "Q_baV": ("accel_bias", _covariance)}


def virtual_covariances(noises) -> VimuNoise:
    """Closed-form virtual noise model of an array of sensors with the
    NoiseSpecs ``noises``.

    Sensor i's samples enter the fused sample rotated and scaled by its
    weight w_i (see _fused_rows), so each white-noise and bias walk
    density is sum_i (w_i sigma_i)^2 I, whatever the rotations; the bias
    walks share the weights of their category's white noise. A density
    that overflows raises SingularFusion.
    """
    def density(weighted_by: str, sigma: str) -> np.ndarray:
        w = _weights([getattr(ns, weighted_by) for ns in noises])
        with np.errstate(over="ignore"):
            d = np.sum((w * [getattr(ns, sigma) for ns in noises]) ** 2)
        if not np.isfinite(d):
            raise SingularFusion(f"the virtual {sigma} density overflows")
        return d * np.eye(3)

    return VimuNoise(gyro=density("sigma_g", "sigma_g"),
                     gyro_bias=density("sigma_g", "sigma_bg"),
                     accel=density("sigma_a", "sigma_a"),
                     accel_bias=density("sigma_a", "sigma_ba"))


def fuse_series(cfg: VimuConfig, series: list) -> ImuSeries:
    """Fuse synchronized per-sensor series, one per sensor of cfg, into
    one virtual IMU series.

    All inputs must share rate, start time, and length. The result
    covers the interior samples (see _fused_rows): it drops the first
    and the last, and its start_ns is one period later.
    """
    n = len(cfg.rotations)
    if len(series) != n:
        raise LengthMismatch(f"expected {n} series, got {len(series)}")
    check_synchronized(series)
    base = series[0]
    fused = _fused_rows(np.stack([s.gyro for s in series], axis=1),
                        np.stack([s.accel for s in series], axis=1),
                        _fusion_matrices(np.stack(cfg.rotations), cfg.noises, n),
                        len(base) - 2)
    return ImuSeries(base.freq, base.start_ns + int(np.rint(base.period_ns)), *fused)


def _fused_rows(gyro, accel, matrices, k: int) -> tuple:
    """The first k fused gyro and accel rows, (..., k, 3) each, of
    per-sensor samples (..., n, m, 3), sample t of column i at
    [..., t, i, :], times ``matrices``, the gyro and accel matrices
    (..., 3m, 3) of _fusion_matrices; leading (trial) axes broadcast.
    Each instant's m columns are one row of 3m, which a matrix maps to
    its fused sample, sum_i w_i R_i^T y_i.

    Fused row t is raw row t + 1: fusion needs no neighbour, but the
    offset keeps virtual.csv's layout, by which its readers count
    windows and align truth. harness._windows' ``- 2`` and the ``1 +``
    of run_experiment's keyframe times follow from it; ROADMAP items 10
    and 18 change all three together."""
    m = gyro.shape[-2]
    return tuple(x[..., 1:k + 1, :, :].reshape(x.shape[:-3] + (k, 3 * m)) @ w
                 for x, w in zip((gyro, accel), matrices))


def _fusion_matrices(rotations, noises, m: int, columns=None) -> tuple:
    """The gyro and accel matrices (..., 3m, 3) that _fused_rows applies:
    w_i R_i in the rows of sensor i's column, R_i from rotations
    (..., n, 3, 3) as in VimuConfig and w_i the normalized 1/sigma^2
    weights of noises' gyros or accelerometers. ``columns`` lists the
    column of each sensor (default: column i holds sensor i, and there
    are no others), so that a fusion can read its sensors out of a wider
    array without copying them; rows of other columns are zero."""
    rotations = np.asarray(rotations, dtype=float)
    columns = range(m) if columns is None else columns

    def stacked(sigmas):  # (..., 3m, 3): w_i R_i, zero rows for other columns
        full = np.zeros(rotations.shape[:-3] + (m, 3, 3))
        full[..., columns, :, :] = _weights(sigmas)[:, None, None] * rotations
        return full.reshape(rotations.shape[:-3] + (3 * m, 3))

    return (stacked([ns.sigma_g for ns in noises]),
            stacked([ns.sigma_a for ns in noises]))
