"""Virtual-IMU construction: fuse n rigidly mounted IMUs into a single
equivalent sensor at the array's accelerometer-weighted centroid.

build_fusion reduces an array (VimuConfig) to the two FusionMatrices
that fusion applies: whitened stacked least-squares solves, kept as
left inverses that act on the raw stacked gyro (gyro_solve) and
accelerometer (accel_solve) samples. Every NoiseSpec is isotropic, so
sensor i's block of the fused accel is w_i I, w_i its normalized
1/sigma_a^2 weight, and the sensors' lever accelerations
R_i (w x (w x p_i) + wdot x p_i) fuse to zero at the weighted centroid
sum_i w_i p_i, where VimuConfig puts the virtual origin (accel_centroid,
centroid_frame). fuse_series(fm, series) fuses one series per sensor.
The same solves give the virtual noise and bias random-walk covariances
in closed form (virtual_covariances), which the fuse subcommand stores
as the Q_* of its sidecar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LengthMismatch, SingularFusion
from .geometry import is_rotation
from .types import (Extrinsic, ImuSeries, NoiseSpec, _Block, _finite_floats, _read,
                    check_synchronized)


@dataclass(frozen=True)
class VimuConfig(_Block):
    """Geometry and noise of an n-sensor array around a virtual frame.

    rotations[i] maps virtual-frame coordinates into sensor i's frame;
    positions[i] is sensor i's origin in virtual-frame coordinates (m).
    The virtual origin is the accelerometer-weighted centroid: positions
    whose accel_centroid is further from zero than round-off, 1e-12 of
    the largest |positions[i]| in m and at least 1e-12 m, are rejected,
    and noises that admit no whitening (see _effective_sigmas) raise
    SingularFusion, so that every config builds.
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
        rotations = tuple(np.asarray(r, dtype=float) for r in self.rotations)
        positions = tuple(np.asarray(p, dtype=float) for p in self.positions)
        noises = tuple(self.noises)
        if not (len(rotations) == len(positions) == len(noises)) or not rotations:
            raise ValueError("need matching, non-empty geometry and noise lists")
        if not (all(r.shape == (3, 3) for r in rotations)
                and np.all(is_rotation(np.stack(rotations), tol=1e-8))):
            raise ValueError("rotations must be valid rotation matrices")
        for p in positions:
            if p.shape != (3,) or not np.isfinite(p).all():
                raise ValueError("positions must be finite 3-vectors")
        _effective_sigmas([ns.sigma_g for ns in noises])  # the gyros must whiten too
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


def _effective_sigmas(values) -> np.ndarray:
    """Whitening scales: the true sigmas, or all-ones when every sigma in
    the category is zero (exact data). Mixing zero and positive sigma has
    no finite whitening and is rejected."""
    v = np.asarray(values, dtype=float)
    if np.all(v > 0.0):
        return v
    if np.all(v == 0.0):
        return np.ones_like(v)
    raise SingularFusion(
        "cannot fuse exact (sigma=0) and noisy sensors in one stack")


def accel_centroid(positions, noises) -> np.ndarray:
    """sum_i w_i p_i of sensor origins positions (..., n, 3), any leading
    axes being trials, with w_i the normalized 1/sigma_a^2 weights of
    noises: the point where the fused accelerometer sees no lever arm.
    Exact data (every sigma_a zero) weighs the sensors equally."""
    inv_var = _effective_sigmas([ns.sigma_a for ns in noises]) ** -2.0
    # scaled so that equal noise weighs each sensor by exactly 1: the
    # centroid is then the plain mean of the origins, to the last bit
    w = inv_var / inv_var.max()
    return np.sum(w[:, None] * np.asarray(positions, dtype=float), axis=-2) / w.sum()


@dataclass(frozen=True)
class FusionMatrices:
    """The two arrays that fusion applies.

    gyro_solve (3, 3n) is the left inverse of the design that stacks
    rotations[i] / sigma_g_i, with each sensor's 3-column block divided
    by its sigma once more, so that it maps the raw stacked gyro samples
    to the weighted least-squares virtual rate; accel_solve likewise
    with the accelerometer sigmas (see _effective_sigmas for exact
    data). Both fields may carry leading trial axes, one fusion per
    trial (build_fusion_stack).
    """

    gyro_solve: np.ndarray
    accel_solve: np.ndarray


def _design_and_solve(rotations, sigmas):
    """Left inverse (..., 3, 3n) of the design that stacks rotations
    (..., n, 3, 3) whitened by sigmas, made to act on raw samples, and a
    SingularFusion or None per trial; an ill-conditioned Gram is solved
    as I, so that its trial's left inverse is finite."""
    design = (rotations / sigmas[:, None, None]).reshape(rotations.shape[:-3] + (-1, 3))
    design_T = np.swapaxes(design, -1, -2)
    gram = design_T @ design
    cond = np.linalg.cond(gram)
    ok = np.isfinite(cond) & (cond <= 1e12)
    solve = np.linalg.solve(np.where(ok[..., None, None], gram, np.eye(3)), design_T)
    errors = [None if good else SingularFusion(
        f"fusion gram matrix ill-conditioned (cond {c:.3e})")
        for c, good in zip(np.ravel(cond), np.ravel(ok))]
    return solve / np.repeat(sigmas, 3), errors


def build_fusion_stack(rotations, noises) -> tuple:
    """Fusion matrices of arrays that share their sensors' noise models:
    rotations (..., n, 3, 3) as in VimuConfig, any leading axes being
    trials; the virtual origin is each array's accel_centroid. Returns
    (FusionMatrices, errors): every field carries the trial axes, and
    errors holds a SingularFusion or None per trial, row-major (a failed
    trial's matrices are finite placeholders). Noises that admit no
    whitening (see _effective_sigmas) raise SingularFusion."""
    rotations = np.asarray(rotations, dtype=float)
    gyro_solve, gyro_errors = _design_and_solve(
        rotations, _effective_sigmas([ns.sigma_g for ns in noises]))
    accel_solve, accel_errors = _design_and_solve(
        rotations, _effective_sigmas([ns.sigma_a for ns in noises]))
    return (FusionMatrices(gyro_solve=gyro_solve, accel_solve=accel_solve),
            [g or a for g, a in zip(gyro_errors, accel_errors)])


def build_fusion(cfg: VimuConfig) -> FusionMatrices:
    """Assemble the fusion matrices of one array, the one-config case of
    build_fusion_stack; raises SingularFusion when the geometry/noise
    combination admits no stable solve."""
    fm, (error,) = build_fusion_stack(cfg.rotations, cfg.noises)
    if error is not None:
        raise error
    return fm


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


def _propagated(solve, sigmas) -> np.ndarray:
    """Covariance of solve applied to a stack whose sensor i carries
    independent noise of std sigmas[i] on each axis."""
    return (solve * np.repeat(np.asarray(sigmas) ** 2, 3)) @ solve.T


def virtual_covariances(fm: FusionMatrices, noises) -> VimuNoise:
    """Closed-form virtual noise model of the array that build_fusion
    reduced to ``fm``, with the sensors' NoiseSpecs ``noises``.

    Each sensor's white-noise and bias walk densities propagate through
    the solve that fuses its samples; with all sigmas positive the
    white-noise covariances are the whitened design Gram inverses.
    """
    return VimuNoise(
        gyro=_propagated(fm.gyro_solve, [n.sigma_g for n in noises]),
        gyro_bias=_propagated(fm.gyro_solve, [n.sigma_bg for n in noises]),
        accel=_propagated(fm.accel_solve, [n.sigma_a for n in noises]),
        accel_bias=_propagated(fm.accel_solve, [n.sigma_ba for n in noises]),
    )


def fuse_series(fm: FusionMatrices, series: list) -> ImuSeries:
    """Fuse synchronized per-sensor series, one per sensor of fm, into
    one virtual IMU series.

    All inputs must share rate, start time, and length. The result
    covers the interior samples: it drops the first and the last, and
    its start_ns is one period later. Fusion itself needs no neighbour
    (see fuse_stack); the trim keeps virtual.csv's layout, by which its
    readers count windows and align truth (fused row t is raw row t + 1).
    """
    n = fm.gyro_solve.shape[-1] // 3
    if len(series) != n:
        raise LengthMismatch(f"expected {n} series, got {len(series)}")
    check_synchronized(series)
    base = series[0]
    fused_w, fused_a = fuse_stack(fm, np.stack([s.gyro[1:-1] for s in series], axis=1),
                                  np.stack([s.accel[1:-1] for s in series], axis=1))
    return ImuSeries(
        freq=base.freq,
        start_ns=base.start_ns + int(np.rint(base.period_ns)),
        gyro=fused_w,
        accel=fused_a,
    )


def fuse_stack(fm: FusionMatrices, gyro, accel, columns=None) -> tuple:
    """Fuse per-sensor samples laid out (..., k, m, 3), sample t of the
    sensor in column c at [..., t, c, :], into the virtual gyro and
    accel of every sample, (..., k, 3) each. ``columns`` lists the
    column of each of fm's sensors (default: column i holds sensor i,
    and there are no others), so that a fusion can read its sensors out
    of a wider array without copying them. Leading axes are trials; fm's
    fields carry either the same leading axes, one fusion per trial, or
    none, one fusion for all."""
    m = np.shape(gyro)[-2]
    columns = range(m) if columns is None else columns

    def solve_t(solve):  # (..., 3m, 3), zero rows for other columns
        full = np.zeros(solve.shape[:-1] + (m, 3))
        full[..., columns, :] = solve.reshape(solve.shape[:-1] + (-1, 3))
        return np.swapaxes(full.reshape(solve.shape[:-1] + (3 * m,)), -1, -2)

    shape = np.shape(gyro)[:-2] + (3 * m,)
    return (np.reshape(gyro, shape) @ solve_t(fm.gyro_solve),
            np.reshape(accel, shape) @ solve_t(fm.accel_solve))
