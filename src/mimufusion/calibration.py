"""Two-stage gyro-pair extrinsic calibration.

Stage one estimates the relative orientation from paired angular-rate
measurements by weighted nonlinear least squares on the rotation
manifold (closed-form orthogonal-Procrustes initialization, damped
Gauss-Newton iterations). Stage two holds the orientation fixed and
solves a weighted linear least-squares problem for the lever arm using
rigid-body accelerometer residuals, with angular accelerations estimated
from the two gyros by a central difference.

Per-sample weights follow the inverse of isotropic variance schedules
that grow linearly with the sample index, modeling bias random walk
accumulated since the window start (index t is 1-based in the schedule
argument; Python sample k maps to t = k + 1).
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMotion,
    LengthMismatch,
    NotConverged,
    RateMismatch,
    SingularNormalEquations,
)
from .geometry import (
    lever_matrix,
    quat_from_rotation,
    quat_from_rotvec,
    quat_multiply,
    quat_rotate,
    rotation_from_quat,
)
from .types import Extrinsic, ImuSeries, NoiseSpec

log = logging.getLogger(__name__)

# Smallest eigenvalue of the mean gyro second-moment matrix required to
# attempt estimation, in (rad/s)^2. Rejects rotation-free data.
GYRO_EXCITATION_MIN = 1e-4
# Same idea for the stacked lever-arm design blocks of the translation
# stage; units are mixed ((rad/s)^4 and (rad/s^2)^2), the guard only has
# to reject near-singular geometry.
TRANSLATION_EXCITATION_MIN = 1e-6

MAX_ITERATIONS = 100
LAMBDA_INIT = 1e-4
COST_REL_TOL = 1e-12
STEP_NORM_TOL = 1e-10


@dataclass
class CalibrationInput:
    """A synchronized pair of IMU series plus their noise models."""

    series_a: ImuSeries
    series_b: ImuSeries
    noise_a: NoiseSpec
    noise_b: NoiseSpec

    def __post_init__(self):
        if abs(self.series_a.freq - self.series_b.freq) > 1e-9 * self.series_a.freq:
            raise RateMismatch(
                f"sample rates differ: {self.series_a.freq} vs {self.series_b.freq}")
        if len(self.series_a) != len(self.series_b):
            raise LengthMismatch(
                f"sample counts differ: {len(self.series_a)} vs {len(self.series_b)}")
        if len(self.series_a) < 3:
            raise LengthMismatch("need at least 3 samples to calibrate")


@dataclass
class StageDiagnostics:
    iterations: int
    final_cost: float


@dataclass
class CalibrationResult:
    extrinsic: Extrinsic
    rot_iterations: int
    trans_iterations: int
    final_rot_cost: float
    final_trans_cost: float
    elapsed_rot_ms: float
    elapsed_trans_ms: float

    def to_dict(self) -> dict:
        return {
            "q_BA": self.extrinsic.q.tolist(),
            "p_AB_m": self.extrinsic.p.tolist(),
            "rotation": {
                "iterations": self.rot_iterations,
                "cost": self.final_rot_cost,
                "elapsed_ms": self.elapsed_rot_ms,
            },
            "translation": {
                "iterations": self.trans_iterations,
                "cost": self.final_trans_cost,
                "elapsed_ms": self.elapsed_trans_ms,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationResult":
        return cls(
            extrinsic=Extrinsic(q=np.asarray(d["q_BA"], dtype=float),
                                p=np.asarray(d["p_AB_m"], dtype=float)),
            rot_iterations=int(d["rotation"]["iterations"]),
            trans_iterations=int(d["translation"]["iterations"]),
            final_rot_cost=float(d["rotation"]["cost"]),
            final_trans_cost=float(d["translation"]["cost"]),
            elapsed_rot_ms=float(d["rotation"]["elapsed_ms"]),
            elapsed_trans_ms=float(d["translation"]["elapsed_ms"]),
        )


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


def _weights_from_variance(var) -> np.ndarray:
    # Zero variance means exact data; any uniform weight recovers the
    # same optimum, so use 1.
    var = np.atleast_1d(np.asarray(var, dtype=float))
    return np.where(var > 0.0, 1.0 / np.where(var > 0.0, var, 1.0), 1.0)


@dataclass
class WeightSchedule:
    """Per-sample scalar weights (inverse variances) for both stages."""

    w_omega: np.ndarray
    w_accel: np.ndarray

    def __post_init__(self):
        if np.any(self.w_omega <= 0) or np.any(self.w_accel <= 0):
            raise ValueError("weights must be positive")

    @classmethod
    def build(cls, n: int, noise_a: NoiseSpec, noise_b: NoiseSpec,
              dt: float) -> "WeightSchedule":
        t = np.arange(1, n + 1, dtype=float)
        return cls(
            w_omega=_weights_from_variance(sigma_omega(t, noise_a, noise_b, dt)),
            w_accel=_weights_from_variance(sigma_accel(t, noise_a, noise_b, dt)),
        )


def residual_omega(q, omega_a, omega_b) -> np.ndarray:
    """Gyro pairing residual: w_B - q * w_A * q^-1. Broadcasts over rows."""
    return np.asarray(omega_b, dtype=float) - quat_rotate(q, omega_a)


def _check_gyro_excitation(gyro: np.ndarray):
    moment = (gyro.T @ gyro) / gyro.shape[0]
    smallest = float(np.linalg.eigvalsh(moment)[0])
    if smallest < GYRO_EXCITATION_MIN:
        raise DegenerateMotion(
            "gyro second moment too weak for orientation estimation "
            f"(smallest eigenvalue {smallest:.3e} < {GYRO_EXCITATION_MIN:.0e})")


def _procrustes(wa: np.ndarray, wb: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Closed-form weighted orthogonal Procrustes fit of R: wb ~ R wa."""
    B = np.einsum("t,ti,tj->ij", weights, wb, wa)
    U, _, VT = np.linalg.svd(B)
    d = np.sign(np.linalg.det(U) * np.linalg.det(VT))
    return U @ np.diag([1.0, 1.0, d]) @ VT


def estimate_rotation(inp: CalibrationInput, max_iterations: int = MAX_ITERATIONS):
    """Stage one: relative orientation from the gyro pair.

    Returns (q, StageDiagnostics) where q rotates A-frame vectors into
    the B frame. Initialization is the weighted SVD Procrustes solution;
    iterations are damped Gauss-Newton with a 3-parameter tangent update
    (right multiplication) and a Levenberg lambda schedule.

    Raises DegenerateMotion when the trajectory does not excite enough
    rotation, NotConverged when the iteration limit is hit.
    """
    wa = inp.series_a.gyro
    wb = inp.series_b.gyro
    _check_gyro_excitation(wa)
    dt = 1.0 / inp.series_a.freq
    weights = WeightSchedule.build(len(inp.series_a), inp.noise_a,
                                   inp.noise_b, dt).w_omega

    q = quat_from_rotation(_procrustes(wa, wb, weights))

    # Gauss-Newton pieces. With residual r_t = wb_t - R wa_t and the
    # update R <- R Exp(delta), the Jacobian is J_t = R [wa_t]x, so
    # J^T J = [wa]x^T [wa]x independently of R: H is constant.
    norms2 = np.einsum("ti,ti->t", wa, wa)
    H = (np.einsum("t,t->", weights, norms2) * np.eye(3)
         - np.einsum("t,ti,tj->ij", weights, wa, wa))

    def cost_of(q):
        r = residual_omega(q, wa, wb)
        return float(np.einsum("t,ti,ti->", weights, r, r))

    cost = cost_of(q)
    lam = LAMBDA_INIT
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        R = rotation_from_quat(q)
        r = residual_omega(q, wa, wb)
        # g = sum w J^T r with J^T r = -wa x (R^T r)
        g = -np.einsum("t,ti->i", weights, np.cross(wa, r @ R))
        try:
            delta = np.linalg.solve(H + lam * np.eye(3), -g)
        except np.linalg.LinAlgError as exc:
            raise SingularNormalEquations(str(exc)) from exc
        q_new = quat_multiply(q, quat_from_rotvec(delta))
        new_cost = cost_of(q_new)
        if new_cost <= cost:
            step = float(np.linalg.norm(delta))
            rel = abs(cost - new_cost) / max(cost, 1e-300)
            q, cost = q_new, new_cost
            lam = max(lam / 10.0, 1e-15)
            if rel < COST_REL_TOL or step < STEP_NORM_TOL:
                converged = True
                break
        else:
            lam *= 10.0
    if not converged:
        raise NotConverged(
            f"rotation stage did not converge in {max_iterations} iterations")
    log.debug("rotation stage: %d iterations, cost %.6e", iterations, cost)
    return q, StageDiagnostics(iterations=iterations, final_cost=cost)


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
    R = rotation_from_quat(q)
    total = series_b.gyro @ R + series_a.gyro
    return (series_a.freq / 4.0) * (total[2:] - total[:-2])


def estimate_translation(inp: CalibrationInput, q):
    """Stage two: lever arm with the orientation held fixed.

    The residual is affine in p, so the weighted normal equations are
    solved directly. Returns (p, StageDiagnostics).
    """
    n = len(inp.series_a)
    dt = 1.0 / inp.series_a.freq
    R = rotation_from_quat(q)
    wa = inp.series_a.gyro[1:-1]
    aa = inp.series_a.accel[1:-1]
    ab = inp.series_b.accel[1:-1]
    wdot = estimate_angular_accel(q, inp.series_a, inp.series_b)

    # design blocks M_t = [w]x^2 + [wdot]x, residual b_t - R M_t p
    M = lever_matrix(wa, wdot)
    mean_MtM = np.einsum("tki,tkj->ij", M, M) / M.shape[0]
    smallest = float(np.linalg.eigvalsh(mean_MtM)[0])
    if smallest < TRANSLATION_EXCITATION_MIN:
        raise DegenerateMotion(
            "rotational excitation too weak for lever-arm estimation "
            f"(smallest design eigenvalue {smallest:.3e})")

    t_idx = np.arange(2, n, dtype=float)  # 1-based index of interior samples
    weights = _weights_from_variance(
        sigma_accel(t_idx, inp.noise_a, inp.noise_b, dt))

    b = ab - aa @ R.T
    bR = b @ R  # R^T b, row-wise
    H = np.einsum("t,tki,tkj->ij", weights, M, M)
    g = np.einsum("t,tki,tk->i", weights, M, bR)
    try:
        cond = np.linalg.cond(H)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularNormalEquations(
                f"normal equations ill-conditioned (cond {cond:.3e})")
        p = np.linalg.solve(H, g)
    except np.linalg.LinAlgError as exc:
        raise SingularNormalEquations(str(exc)) from exc

    r = b - np.einsum("tij,j->ti", M, p) @ R.T
    cost = float(np.einsum("t,ti,ti->", weights, r, r))
    log.debug("translation stage: cost %.6e", cost)
    return p, StageDiagnostics(iterations=1, final_cost=cost)


def calibrate(inp: CalibrationInput) -> CalibrationResult:
    """Run both stages and assemble the result. The orientation never
    depends on p, so one pass of each stage is the whole solve."""
    t0 = time.perf_counter()
    q, rot_diag = estimate_rotation(inp)
    t1 = time.perf_counter()
    p, trans_diag = estimate_translation(inp, q)
    t2 = time.perf_counter()
    return CalibrationResult(
        extrinsic=Extrinsic(q=q, p=p),
        rot_iterations=rot_diag.iterations,
        trans_iterations=trans_diag.iterations,
        final_rot_cost=rot_diag.final_cost,
        final_trans_cost=trans_diag.final_cost,
        elapsed_rot_ms=(t1 - t0) * 1e3,
        elapsed_trans_ms=(t2 - t1) * 1e3,
    )
