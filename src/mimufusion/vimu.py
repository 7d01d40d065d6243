"""Virtual-IMU construction: fuse n rigidly mounted IMUs into a single
equivalent sensor at a chosen virtual frame.

build_fusion reduces an array (VimuConfig) to the four FusionMatrices
that fusion applies. Gyros combine through a whitened stacked
least-squares solve, kept as a left inverse that acts on the raw
stacked samples (gyro_solve); the accelerometers likewise
(accel_solve), with their rigid-body lever-arm terms subtracted: a
quadratic form lever_Q in the fused angular rate plus lever_D applied
to its central-difference angular acceleration. fuse_series(fm, series)
fuses one series per sensor. The same solves give the virtual noise
and bias random-walk covariances in closed form (virtual_covariances),
which the fuse subcommand stores as the Q_* of its sidecar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LengthMismatch, SingularFusion
from .geometry import is_rotation, skew
from .types import (Extrinsic, ImuSeries, NoiseSpec, _Block, _finite_floats, _read,
                    check_synchronized)


@dataclass(frozen=True)
class VimuConfig(_Block):
    """Geometry and noise of an n-sensor array around a virtual frame.

    rotations[i] maps virtual-frame coordinates into sensor i's frame;
    positions[i] is sensor i's origin in virtual-frame coordinates (m).
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
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "noises", noises)


def midpoint_frame(ext: Extrinsic, noise_a: NoiseSpec,
                   noise_b: NoiseSpec) -> VimuConfig:
    """Two-sensor virtual frame at the midpoint of the lever arm, axes
    aligned with sensor A.

    The symmetric placement cancels the lever-arm sensitivity of the
    fused accelerometer to angular-rate errors to first order.
    """
    R_ba = ext.rotation()
    return VimuConfig(
        rotations=(np.eye(3), R_ba),
        positions=(-0.5 * ext.p, 0.5 * ext.p),
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


@dataclass(frozen=True)
class FusionMatrices:
    """The four arrays that fusion applies.

    gyro_solve (3, 3n) is the left inverse of the design that stacks
    rotations[i] / sigma_g_i, with each sensor's 3-column block divided
    by its sigma once more, so that it maps the raw stacked gyro samples
    to the weighted least-squares virtual rate; accel_solve likewise
    with the accelerometer sigmas (see _effective_sigmas for exact
    data). lever_Q (3, 3, 3) and lever_D (3, 3) define the fused lever
    terms (see lever_term). Every field may carry leading trial axes,
    one fusion per trial (build_fusion_stack).
    """

    gyro_solve: np.ndarray
    accel_solve: np.ndarray
    lever_Q: np.ndarray
    lever_D: np.ndarray


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


def build_fusion_stack(rotations, positions, noises) -> tuple:
    """Fusion matrices of arrays that share their sensors' noise models:
    rotations (..., n, 3, 3) and positions (..., n, 3) as in VimuConfig,
    any leading axes being trials. Returns (FusionMatrices, errors):
    every field carries the trial axes, and errors holds a SingularFusion
    or None per trial, row-major (a failed trial's matrices are finite
    placeholders). Noises that admit no whitening (see _effective_sigmas)
    raise SingularFusion."""
    rotations = np.asarray(rotations, dtype=float)
    positions = np.asarray(positions, dtype=float)
    gyro_sigmas = _effective_sigmas([ns.sigma_g for ns in noises])
    accel_sigmas = _effective_sigmas([ns.sigma_a for ns in noises])
    gyro_solve, gyro_errors = _design_and_solve(rotations, gyro_sigmas)
    accel_solve, accel_errors = _design_and_solve(rotations, accel_sigmas)
    # C_i = accel_solve[:, 3i:3i+3] R_i
    C = np.swapaxes(accel_solve.reshape(accel_solve.shape[:-1] + (-1, 3)), -3, -2) @ rotations
    T = np.einsum("...iaj,...ik->...ajk", C, positions)
    c = np.einsum("...iaj,...ij->...a", C, positions)
    return FusionMatrices(
        gyro_solve=gyro_solve,
        accel_solve=accel_solve,
        lever_Q=T - c[..., None, None] * np.eye(3),
        lever_D=np.einsum("...iaj,...ijk->...ak", C, skew(positions)),
    ), [g or a for g, a in zip(gyro_errors, accel_errors)]


def build_fusion(cfg: VimuConfig) -> FusionMatrices:
    """Assemble the fusion matrices of one array, the one-config case of
    build_fusion_stack; raises SingularFusion when the geometry/noise
    combination admits no stable solve."""
    fm, (error,) = build_fusion_stack(cfg.rotations, cfg.positions, cfg.noises)
    if error is not None:
        raise error
    return fm


# The (j, k) index pairs of w (x) w, row-major, built once. The gather
# lays the nine products out component by component, which the product
# with Q reads about 3x faster than the rows of a (..., 3, 3) broadcast
# product.
_WW_J, _WW_K = np.divmod(np.arange(9), 3)


def lever_term(fm: FusionMatrices, omega, omega_dot=None) -> np.ndarray:
    """accel_solve applied to the stack of the sensors' lever
    accelerations R_i (w x (w x p_i) + wdot x p_i), for rate rows omega
    (..., k, 3): Q:(w w^T) - D wdot, where with C_i = accel_solve[:,
    3i:3i+3] R_i, Q = sum_i C_i (x) p_i - (sum_i C_i p_i) (x) I and
    D = sum_i C_i [p_i]x. The quadratic form is evaluated as one product
    of the (..., k, 9) rows of w (x) w with Q's (9, 3) block.
    omega_dot=None drops the D term."""
    omega = np.asarray(omega, dtype=float)
    Q = fm.lever_Q.reshape(fm.lever_Q.shape[:-3] + (3, 9))
    ww = omega[..., _WW_J] * omega[..., _WW_K]
    out = ww @ np.swapaxes(Q, -1, -2)
    if omega_dot is not None:
        out -= omega_dot @ np.swapaxes(fm.lever_D, -1, -2)
    return out


def lever_jacobian(fm: FusionMatrices, omega) -> np.ndarray:
    """Jacobian of lever_term in the rate, (Q + Q^T_jk) w, at rate rows
    omega (..., k, 3); shape (..., k, 3, 3)."""
    omega = np.asarray(omega, dtype=float)
    Q = fm.lever_Q
    Q_sym = (Q + np.swapaxes(Q, -1, -2)).reshape(Q.shape[:-3] + (9, 3))
    return (omega @ np.swapaxes(Q_sym, -1, -2)).reshape(omega.shape[:-1] + (3, 3))


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

    All inputs must share rate, start time, and length. The fused gyro is
    computed first; its central difference provides the angular
    acceleration for the accelerometer lever-arm subtraction, which costs
    the first and last samples: the result covers the interior samples,
    so its start_ns is shifted by one period. This is the one-trial case
    of fuse_stack.
    """
    n = fm.gyro_solve.shape[-1] // 3
    if len(series) != n:
        raise LengthMismatch(f"expected {n} series, got {len(series)}")
    check_synchronized(series)
    base = series[0]
    fused_w, fused_a = fuse_stack(fm, np.stack([s.gyro for s in series], axis=1),
                                  np.stack([s.accel for s in series], axis=1),
                                  base.freq)
    return ImuSeries(
        freq=base.freq,
        start_ns=base.start_ns + int(np.rint(base.period_ns)),
        gyro=fused_w,
        accel=fused_a,
    )


def fuse_stack(fm: FusionMatrices, gyro, accel, freq: float,
               columns=None) -> tuple:
    """Fuse per-sensor samples laid out (..., n, m, 3), sample t of the
    sensor in column c at [..., t, c, :], into the virtual gyro and
    accel of the interior samples, (..., n - 2, 3) each. ``columns``
    lists the column of each of fm's sensors (default: column i holds
    sensor i, and there are no others), so that a fusion can read its
    sensors out of a wider array without copying them. Leading axes are
    trials; fm's fields carry either the same leading axes, one fusion
    per trial, or none, one fusion for all."""
    m = np.shape(gyro)[-2]
    columns = range(m) if columns is None else columns

    def solve_t(solve):  # (..., 3m, 3), zero rows for other columns
        full = np.zeros(solve.shape[:-1] + (m, 3))
        full[..., columns, :] = solve.reshape(solve.shape[:-1] + (-1, 3))
        return np.swapaxes(full.reshape(solve.shape[:-1] + (3 * m,)), -1, -2)

    shape = np.shape(gyro)[:-2] + (3 * m,)
    fused_w = np.reshape(gyro, shape) @ solve_t(fm.gyro_solve)
    wdot = 0.5 * freq * (fused_w[..., 2:, :] - fused_w[..., :-2, :])
    fused_w = fused_w[..., 1:-1, :]
    fused_a = np.reshape(accel, shape)[..., 1:-1, :] @ solve_t(fm.accel_solve)
    fused_a -= lever_term(fm, fused_w, wdot)
    return fused_w, fused_a
