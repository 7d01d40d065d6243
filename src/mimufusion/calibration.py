"""Two-stage gyro-pair extrinsic calibration.

Stage one estimates the relative orientation from paired angular-rate
measurements by weighted least squares on the rotation manifold. The
weights are scalars per sample, so this is Wahba's problem and the
weighted orthogonal-Procrustes (SVD) fit is its exact minimizer
(Markley, "Attitude determination using vector observations and the
singular value decomposition", J. Astronaut. Sci. 1988). Stage two holds
the orientation fixed and solves a weighted linear least-squares problem
for the lever arm using rigid-body accelerometer residuals, with angular
accelerations estimated from the two gyros by a central difference.
Both stage kernels (fit_rotation, fit_translation) take any leading
trial axes and report a failure per trial instead of raising; calibrate
runs them on one pair and raises the first failure.

Each kernel weights its samples by the inverse of an isotropic variance
schedule of the pair's noise specs and rate, which grows linearly with
the sample index, modeling bias random walk accumulated since the window
start (t is 1-based in the schedules; Python sample k maps to t = k + 1).
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMotion,
    LengthMismatch,
    SingularNormalEquations,
)
from .geometry import lever_matrix, quat_from_rotation, rotation_from_quat
from .types import Extrinsic, ImuSeries, NoiseSpec, check_synchronized

log = logging.getLogger(__name__)

# Smallest eigenvalue of the mean gyro second-moment matrix required to
# attempt estimation, in (rad/s)^2. Rejects rotation-free data.
GYRO_EXCITATION_MIN = 1e-4
# Same idea for the stacked lever-arm design blocks of the translation
# stage; units are mixed ((rad/s)^4 and (rad/s^2)^2), the guard only has
# to reject near-singular geometry.
TRANSLATION_EXCITATION_MIN = 1e-6


@dataclass
class CalibrationInput:
    """A synchronized pair of IMU series plus their noise models."""

    series_a: ImuSeries
    series_b: ImuSeries
    noise_a: NoiseSpec
    noise_b: NoiseSpec

    def __post_init__(self):
        check_synchronized([self.series_a, self.series_b])


@dataclass
class CalibrationResult:
    extrinsic: Extrinsic
    final_rot_cost: float
    final_trans_cost: float
    elapsed_rot_ms: float
    elapsed_trans_ms: float

    def to_dict(self) -> dict:
        return {
            "q_BA": self.extrinsic.q.tolist(),
            "p_AB_m": self.extrinsic.p.tolist(),
            "rotation": {"cost": self.final_rot_cost,
                         "elapsed_ms": self.elapsed_rot_ms},
            "translation": {"cost": self.final_trans_cost,
                            "elapsed_ms": self.elapsed_trans_ms},
        }


def sigma_omega(t, noise_a: NoiseSpec, noise_b: NoiseSpec, dt: float):
    """Isotropic gyro-residual variance at 1-based sample index t:
    white-noise floor plus bias random walk grown since the window start.
    """
    t = np.asarray(t, dtype=float)
    white = (noise_a.sigma_g**2 + noise_b.sigma_g**2) / dt
    walk = (noise_a.sigma_bg**2 + noise_b.sigma_bg**2) * dt
    return white + walk * t


def sigma_accel(t, noise_a: NoiseSpec, noise_b: NoiseSpec, dt: float):
    """Isotropic accel-residual variance at 1-based sample index t.

    The first term is the virtual-gyro contribution (fused white noise
    plus propagated gyro bias walk), squared as published; with MEMS
    densities it is ~1e-11 of the accelerometer terms, so the weights
    are insensitive to its units.
    """
    t = np.asarray(t, dtype=float)
    ga2 = noise_a.sigma_g**2
    gb2 = noise_b.sigma_g**2
    gsum = ga2 + gb2
    if gsum > 0.0:
        virt = ga2 * gb2 / (gsum * dt) + (
            gb2**2 * noise_a.sigma_bg**2 + ga2**2 * noise_b.sigma_bg**2
        ) / gsum**2 * dt * t
    else:
        virt = np.zeros_like(t)
    white = (noise_a.sigma_a**2 + noise_b.sigma_a**2) / dt
    walk = (noise_a.sigma_ba**2 + noise_b.sigma_ba**2) * dt
    return virt**2 + white + walk * t


def _weights(variance, first: int, last: int, noise_a: NoiseSpec,
             noise_b: NoiseSpec, freq: float) -> np.ndarray:
    """1 / variance(t) (sigma_omega or sigma_accel) at t = first..last.
    Zero variance means exact data; any uniform weight recovers the same
    optimum, so it gets weight 1."""
    var = variance(np.arange(first, last + 1, dtype=float), noise_a, noise_b,
                   1.0 / freq)
    return np.where(var > 0.0, 1.0 / np.where(var > 0.0, var, 1.0), 1.0)


def fit_rotation(gyro_a, gyro_b, noise_a: NoiseSpec, noise_b: NoiseSpec,
                 freq: float) -> tuple:
    """Stage-one kernel: the weighted Procrustes rotation R minimizing
    sum_t w_t |wB_t - R wA_t|^2, for gyro rows (..., n, 3) sampled at
    freq, with w_t = 1 / sigma_omega(t) from the two noise specs.
    Returns (q (..., 4), cost (...), errors): q is R as a canonical unit
    quaternion, the cost is taken at R, and errors holds a
    DegenerateMotion or None per trial, row-major over the leading axes.
    """
    wa = np.asarray(gyro_a, dtype=float)
    wb = np.asarray(gyro_b, dtype=float)
    weights = _weights(sigma_omega, 1, wa.shape[-2], noise_a, noise_b, freq)
    moment = np.swapaxes(wa, -1, -2) @ wa / wa.shape[-2]
    smallest = np.linalg.eigvalsh(moment)[..., 0]
    # sum_t w_t wB_t wA_t^T as one matrix product
    U, _, VT = np.linalg.svd(np.swapaxes(wb, -1, -2) * weights @ wa)
    U[..., 2] *= np.sign(np.linalg.det(U) * np.linalg.det(VT))[..., None]
    R = U @ VT
    r = wb - wa @ np.swapaxes(R, -1, -2)
    errors = [None if e >= GYRO_EXCITATION_MIN else DegenerateMotion(
        "gyro second moment too weak for orientation estimation "
        f"(smallest eigenvalue {e:.3e} < {GYRO_EXCITATION_MIN:.0e})")
        for e in np.ravel(smallest)]
    return (quat_from_rotation(R), np.einsum("t,...ti,...ti->...", weights, r, r),
            errors)


def estimate_angular_accel(q, series_a: ImuSeries,
                           series_b: ImuSeries) -> np.ndarray:
    """Angular acceleration of frame A at every interior sample,
    averaging central differences of both gyros (B's rotated into A by
    q^-1):

        wdot_A(t) = freq/4 * (q^-1 wB(t+1) q - q^-1 wB(t-1) q
                              + wA(t+1) - wA(t-1))

    Row j of the (n - 2, 3) result is sample t = j + 1; the first and
    last samples have no two-sided neighborhood.
    """
    if len(series_b) != len(series_a):
        raise LengthMismatch("series lengths differ")
    return _angular_accel(rotation_from_quat(q), series_a.gyro, series_b.gyro,
                          series_a.freq)


def _angular_accel(R, gyro_a, gyro_b, freq: float) -> np.ndarray:
    total = gyro_b @ R + gyro_a
    return (freq / 4.0) * (total[..., 2:, :] - total[..., :-2, :])


def fit_translation(q, gyro_a, accel_a, gyro_b, accel_b, noise_a: NoiseSpec,
                    noise_b: NoiseSpec, freq: float) -> tuple:
    """Stage-two kernel: the lever arm p minimizing
    sum_t w_t |b_t - R M_t p|^2 over the interior samples, with R the
    rotation of the unit quaternions q (..., 4), b_t = aB_t - R aA_t,
    M_t = [w]x^2 + [wdot]x and w_t = 1 / sigma_accel(t) from the two
    noise specs, for sample rows (..., n, 3) sampled at freq. The
    residual is affine in p, so the weighted normal equations are solved
    directly. Returns (p (..., 3), cost (...), errors): errors holds a
    DegenerateMotion, SingularNormalEquations or None per trial,
    row-major over the leading axes.
    """
    R = rotation_from_quat(q)
    n = np.shape(gyro_a)[-2]
    weights = _weights(sigma_accel, 2, n - 1, noise_a, noise_b, freq)
    wa = gyro_a[..., 1:-1, :]
    wdot = _angular_accel(R, gyro_a, gyro_b, freq)
    M = lever_matrix(wa, wdot)  # (..., n - 2, 3, 3)
    # The Grams as matrix products over the stacked (..., 3(n - 2), 3)
    # design, row 3t + k holding row k of M_t.
    stacked = M.reshape(M.shape[:-3] + (-1, 3))
    stacked_T = np.swapaxes(stacked, -1, -2)
    smallest = np.linalg.eigvalsh(stacked_T @ stacked / M.shape[-3])[..., 0]

    b = accel_b[..., 1:-1, :] - accel_a[..., 1:-1, :] @ np.swapaxes(R, -1, -2)
    bR = b @ R  # R^T b, row-wise
    weighted_T = stacked_T * np.repeat(weights, 3)
    H = weighted_T @ stacked
    g = (weighted_T @ bR.reshape(bR.shape[:-2] + (-1, 1)))[..., 0]
    cond = np.linalg.cond(H)
    solvable = np.isfinite(cond) & (cond <= 1e12)
    p = np.linalg.solve(np.where(solvable[..., None, None], H, np.eye(3)),
                        g[..., None])[..., 0]
    r = bR - (stacked @ p[..., None])[..., 0].reshape(bR.shape)  # R^T (b - R M p)
    errors = [
        DegenerateMotion("rotational excitation too weak for lever-arm "
                         f"estimation (smallest design eigenvalue {e:.3e})")
        if e < TRANSLATION_EXCITATION_MIN else None if ok else
        SingularNormalEquations(f"normal equations ill-conditioned (cond {c:.3e})")
        for e, c, ok in zip(np.ravel(smallest), np.ravel(cond), np.ravel(solvable))]
    return p, np.einsum("t,...ti,...ti->...", weights, r, r), errors


def calibrate(inp: CalibrationInput) -> CalibrationResult:
    """Calibrate one pair: fit_rotation, then fit_translation at the
    rotation of the reported unit quaternion. The orientation never
    depends on p, so one pass of each stage is the whole solve.

    Raises the first stage error met: DegenerateMotion when the
    trajectory does not excite enough rotation, SingularNormalEquations
    when the lever-arm design is ill-conditioned.
    """
    a, b = inp.series_a, inp.series_b
    t0 = time.perf_counter()
    q, rot_cost, (error,) = fit_rotation(a.gyro, b.gyro, inp.noise_a, inp.noise_b,
                                         a.freq)
    if error is not None:
        raise error
    t1 = time.perf_counter()
    p, trans_cost, (error,) = fit_translation(q, a.gyro, a.accel, b.gyro, b.accel,
                                              inp.noise_a, inp.noise_b, a.freq)
    if error is not None:
        raise error
    t2 = time.perf_counter()
    log.debug("calibration costs: rotation %.6e, translation %.6e",
              rot_cost, trans_cost)
    return CalibrationResult(
        extrinsic=Extrinsic(q=q, p=p),
        final_rot_cost=float(rot_cost),
        final_trans_cost=float(trans_cost),
        elapsed_rot_ms=(t1 - t0) * 1e3,
        elapsed_trans_ms=(t2 - t1) * 1e3,
    )
