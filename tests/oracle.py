"""Scalar preintegration step: the tests' independent oracle.

``propagate_step`` folds one bias-corrected sample into a running
``PreintDelta`` with per-sample 3x3 and 9x9 algebra. The library's
kernel (``preintegrate_windows``) advances many windows at once instead;
the tests compare the two, so this module must not call the kernel or
its batched step builders.
"""
from dataclasses import dataclass

import numpy as np

from mimufusion.geometry import exp_so3, right_jacobian, skew
from mimufusion.preintegration import PreintDelta, _noise_input_covariance
from mimufusion.vimu import (
    FusionMatrices,
    VimuConfig,
    VimuNoise,
    _effective_sigmas,
)


@dataclass
class StepMatrices:
    """One-step error-state transition (9x9) and noise input (9x6)."""

    a: np.ndarray
    b: np.ndarray


def psi_matrix(cfg: VimuConfig, w_hat) -> np.ndarray:
    """Jacobian of the whitened lever-arm stack with respect to the
    angular rate, at rate w_hat: blocks R_i (-[w]x [p_i]x - [[w]x p_i]x)
    / sigma_a_i, stacked to (3n, 3)."""
    w_hat = np.asarray(w_hat, dtype=float)
    sigmas = _effective_sigmas([ns.sigma_a for ns in cfg.noises])
    sw = skew(w_hat)
    blocks = []
    for r, p, s in zip(cfg.rotations, cfg.positions, sigmas):
        blocks.append(r @ (-sw @ skew(p) - skew(sw @ p)) / s)
    return np.vstack(blocks)


def step_matrices(accum_rotation, step_rotation, w_hat, a_hat,
                  cfg: VimuConfig, fm: FusionMatrices, dt: float) -> StepMatrices:
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
    t_psi = fm.accel_solve @ psi_matrix(cfg, w_hat)
    B[6:9, 0:3] = -0.5 * accum_rotation @ t_psi * dt**2
    B[3:6, 3:6] = accum_rotation * dt
    B[6:9, 3:6] = 0.5 * accum_rotation * dt**2
    return StepMatrices(a=A, b=B)


def propagate_step(prev: PreintDelta, w_hat, a_hat, cfg: VimuConfig,
                   fm: FusionMatrices, noise: VimuNoise, freq: float) -> PreintDelta:
    """Fold one bias-corrected sample into the running delta."""
    dt = 1.0 / freq
    w_hat = np.asarray(w_hat, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    step_rot = exp_so3(w_hat * dt)
    sm = step_matrices(prev.rotation, step_rot, w_hat, a_hat, cfg, fm, dt)
    s_eta = _noise_input_covariance(noise, freq)
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
