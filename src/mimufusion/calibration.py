"""Two-stage gyro-pair extrinsic calibration by plain least squares.

Stage one estimates the relative orientation from paired angular-rate
measurements: this is Wahba's problem, and the orthogonal-Procrustes
(SVD) fit is its exact minimizer (Markley, "Attitude determination using
vector observations and the singular value decomposition", J. Astronaut.
Sci. 1988). Stage two holds the orientation fixed and solves the normal
equations of a linear least-squares problem for the lever arm, using
rigid-body accelerometer residuals with angular accelerations estimated
from the two gyros by a central difference. Both stage kernels
(fit_rotation, fit_translation) take any leading trial axes, weigh every
sample alike, pass the rotation as a matrix, return their residual sum
of squares and report a failure per trial instead of raising; calibrate
runs them on one pair, raises the first failure and converts the
rotation to the Extrinsic's quaternion once.

The estimate does not depend on the noise specs. calibrate is their
only reader: it divides each stage's sum of squares by the pair's
white-noise variance per axis, (sigma_A^2 + sigma_B^2) freq, so that the
reported cost is a chi-square figure, about 3n for a white-noise fit.
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
from .geometry import lever_matrix, quat_from_rotation
from .types import Extrinsic, ImuSeries, NoiseSpec, check_synchronized

log = logging.getLogger(__name__)

# Smallest eigenvalue of the mean gyro second-moment matrix required to
# attempt estimation, in (rad/s)^2. Rejects rotation-free data.
GYRO_EXCITATION_MIN = 1e-4
# Same idea for the stacked lever-arm design blocks of the translation
# stage; units are mixed ((rad/s)^4 and (rad/s^2)^2), the guard only has
# to reject near-singular geometry.
TRANSLATION_EXCITATION_MIN = 1e-6


@dataclass(frozen=True)
class CalibrationInput:
    """A synchronized pair of IMU series plus their noise models, frozen
    so that the pair stays synchronized; dataclasses.replace checks it
    again."""

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
        """The calib.json data; a cost that overflowed is None (null)."""
        rot_cost, trans_cost = (c if np.isfinite(c) else None
                                for c in (self.final_rot_cost, self.final_trans_cost))
        return {
            "q_BA": self.extrinsic.q.tolist(),
            "p_AB_m": self.extrinsic.p.tolist(),
            "rotation": {"cost": rot_cost, "elapsed_ms": self.elapsed_rot_ms},
            "translation": {"cost": trans_cost,
                            "elapsed_ms": self.elapsed_trans_ms},
        }


def fit_rotation(gyro_a, gyro_b) -> tuple:
    """Stage-one kernel: the Procrustes rotation R minimizing
    sum_t |wB_t - R wA_t|^2, for gyro rows (..., n, 3). Returns
    (R (..., 3, 3), cost (...), errors): the cost is the residual sum of
    squares at R, and errors holds a SingularNormalEquations (rates that
    overflow the moment matrices), DegenerateMotion or None per trial,
    row-major over the leading axes.
    """
    wa = np.asarray(gyro_a, dtype=float)
    wb = np.asarray(gyro_b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        moment = np.swapaxes(wa, -1, -2) @ wa / wa.shape[-2]
        cross = np.swapaxes(wb, -1, -2) @ wa
        finite = (np.isfinite(moment).all(axis=(-2, -1))
                  & np.isfinite(cross).all(axis=(-2, -1)))
        smallest = np.linalg.eigvalsh(_or_identity(finite, moment))[..., 0]
        U, _, VT = np.linalg.svd(_or_identity(finite, cross))
        U[..., 2] *= np.sign(np.linalg.det(U) * np.linalg.det(VT))[..., None]
        R = U @ VT
        r = wb - wa @ np.swapaxes(R, -1, -2)
        cost = np.einsum("...ti,...ti->...", r, r)
    errors = [_not_finite("rotation") if not ok else None if e >= GYRO_EXCITATION_MIN else
              DegenerateMotion("gyro second moment too weak for orientation estimation "
                               f"(smallest eigenvalue {e:.3e} < {GYRO_EXCITATION_MIN:.0e})")
              for ok, e in zip(np.ravel(finite), np.ravel(smallest))]
    return R, cost, errors


def _or_identity(finite, grams) -> np.ndarray:
    """grams (..., 3, 3) with the identity in each trial that is not
    finite, so that a LAPACK call over the stack serves the others."""
    return np.where(finite[..., None, None], grams, np.eye(3))


def _not_finite(stage: str) -> SingularNormalEquations:
    return SingularNormalEquations(
        f"{stage} Gram is not finite: the rates overflow its products")


def estimate_angular_accel(R, series_a: ImuSeries,
                           series_b: ImuSeries) -> np.ndarray:
    """Angular acceleration of frame A at every interior sample,
    averaging central differences of both gyros (B's rotated into A by
    R^T, R the rotation matrix R_BA):

        wdot_A(t) = freq/4 * (R^T wB(t+1) - R^T wB(t-1) + wA(t+1) - wA(t-1))

    Row j of the (n - 2, 3) result is sample t = j + 1; the first and
    last samples have no two-sided neighborhood.
    """
    if len(series_b) != len(series_a):
        raise LengthMismatch("series lengths differ")
    return _angular_accel(np.asarray(R, dtype=float), series_a.gyro, series_b.gyro,
                          series_a.freq)


def _angular_accel(R, gyro_a, gyro_b, freq: float) -> np.ndarray:
    total = gyro_b @ R + gyro_a
    return (freq / 4.0) * (total[..., 2:, :] - total[..., :-2, :])


def fit_translation(R, gyro_a, accel_a, gyro_b, accel_b, freq: float) -> tuple:
    """Stage-two kernel: the lever arm p minimizing
    sum_t |b_t - R M_t p|^2 over the interior samples, with R the
    rotation matrices (..., 3, 3), b_t = aB_t - R aA_t and
    M_t = [w]x^2 + [wdot]x, for sample rows (..., n, 3) sampled at freq.
    The residual is affine in p, so the normal equations are solved
    directly. Returns (p (..., 3), cost (...), errors): the cost is the
    residual sum of squares at p, and errors holds a
    SingularNormalEquations (a Gram that overflows, or one that is
    ill-conditioned), DegenerateMotion or None per trial, row-major over
    the leading axes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        wa = gyro_a[..., 1:-1, :]
        wdot = _angular_accel(R, gyro_a, gyro_b, freq)
        M = lever_matrix(wa, wdot)  # (..., n - 2, 3, 3)
        # The Gram as a matrix product over the stacked (..., 3(n - 2), 3)
        # design, row 3t + k holding row k of M_t. Its eigenvalues give both
        # checks: the smallest per sample is the excitation, and the largest
        # over the smallest the condition number (a smallest <= 0 is singular).
        stacked = M.reshape(M.shape[:-3] + (-1, 3))
        stacked_T = np.swapaxes(stacked, -1, -2)
        H = stacked_T @ stacked
        finite = np.isfinite(H).all(axis=(-2, -1))
        eig = np.linalg.eigvalsh(_or_identity(finite, H))
        smallest = eig[..., 0] / M.shape[-3]
        cond = np.divide(eig[..., -1], eig[..., 0], out=np.full(smallest.shape, np.inf),
                         where=eig[..., 0] > 0.0)
        solvable = finite & (cond <= 1e12)

        b = accel_b[..., 1:-1, :] - accel_a[..., 1:-1, :] @ np.swapaxes(R, -1, -2)
        bR = b @ R  # R^T b, row-wise
        g = stacked_T @ bR.reshape(bR.shape[:-2] + (-1, 1))
        p = np.linalg.solve(_or_identity(solvable, H), g)[..., 0]
        r = bR - (stacked @ p[..., None])[..., 0].reshape(bR.shape)  # R^T (b - R M p)
        cost = np.einsum("...ti,...ti->...", r, r)
    errors = [
        _not_finite("translation") if not f else
        DegenerateMotion("rotational excitation too weak for lever-arm "
                         f"estimation (smallest design eigenvalue {e:.3e})")
        if e < TRANSLATION_EXCITATION_MIN else None if ok else
        SingularNormalEquations(f"normal equations ill-conditioned (cond {c:.3e})")
        for f, e, c, ok in zip(np.ravel(finite), np.ravel(smallest), np.ravel(cond),
                               np.ravel(solvable))]
    return p, cost, errors


def _normalized(cost, sigma_a: float, sigma_b: float, freq: float) -> float:
    """cost over the white-noise variance per axis of a difference of two
    samples, (sigma_a^2 + sigma_b^2) freq, taken as 1 when it is 0 (exact
    data). No finite sigma >= 0 raises or warns: the result may be inf."""
    with np.errstate(over="ignore", under="ignore"):
        var = (np.float64(sigma_a) ** 2 + np.float64(sigma_b) ** 2) * freq
        return float(cost / (var if var > 0.0 else 1.0))


def calibrate(inp: CalibrationInput) -> CalibrationResult:
    """Calibrate one pair: fit_rotation, then fit_translation at its
    rotation matrix, which the result's Extrinsic stores as a unit
    quaternion. The orientation never depends on p, so one pass of each
    stage is the whole solve. Each stage's cost is its sum of squares
    over the pair's white-noise variance per axis (gyro, then accel), a
    chi-square figure.

    Raises the first stage error met: DegenerateMotion when the
    trajectory does not excite enough rotation, SingularNormalEquations
    when a Gram overflows or the lever-arm design is ill-conditioned.
    """
    a, b, na, nb = inp.series_a, inp.series_b, inp.noise_a, inp.noise_b
    t0 = time.perf_counter()
    R, rot_cost, (error,) = fit_rotation(a.gyro, b.gyro)
    if error is not None:
        raise error
    t1 = time.perf_counter()
    p, trans_cost, (error,) = fit_translation(R, a.gyro, a.accel, b.gyro, b.accel,
                                              a.freq)
    if error is not None:
        raise error
    t2 = time.perf_counter()
    rot_cost = _normalized(rot_cost, na.sigma_g, nb.sigma_g, a.freq)
    trans_cost = _normalized(trans_cost, na.sigma_a, nb.sigma_a, a.freq)
    log.debug("calibration costs: rotation %.6e, translation %.6e",
              rot_cost, trans_cost)
    return CalibrationResult(
        extrinsic=Extrinsic(q=quat_from_rotation(R), p=p),
        final_rot_cost=rot_cost,
        final_trans_cost=trans_cost,
        elapsed_rot_ms=(t1 - t0) * 1e3,
        elapsed_trans_ms=(t2 - t1) * 1e3,
    )
