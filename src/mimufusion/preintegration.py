"""On-manifold preintegration of virtual-IMU measurements with
first-order covariance propagation.

Between two keyframes the bias-corrected samples are folded into
relative motion increments

    dR = prod Exp((w - b_g) dt),   dv = sum dR_k a_k dt,
    dp = sum (dv_k dt + 1/2 dR_k a_k dt^2)

independent of the start state. The 9x9 covariance over the error state
(phi, v, p) propagates per step as A S A^T + B S_eta B^T, where B routes
the virtual gyro noise into orientation through the right Jacobian and
the virtual accel noise into velocity and position. The fused accel
sits at the array's accelerometer-weighted centroid (see vimu), so it
does not depend on the angular rate: gyro noise does not reach velocity
or position through it.

Error-state conventions (matching A/B): dR_meas = dR Exp(e_phi),
e_v = dv_meas - dv, e_p = dp_meas - dp.

The kernel (preintegrate_stack) advances many windows at once and walks
their samples in blocks, so that what it holds besides its inputs and
outputs is sized by the block, not by the window: no rotation is kept
per integrated sample.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import exp_so3, right_jacobian, skew
from .types import ImuSeries
from .vimu import VimuNoise

# Sample positions that preintegrate_stack integrates per pass: its
# temporaries hold this many samples of every window, whatever the
# window length.
_BLOCK = 20


@dataclass
class VimuState:
    """World-frame navigation state of the virtual sensor."""

    rotation: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @classmethod
    def identity(cls) -> "VimuState":
        return cls(rotation=np.eye(3), position=np.zeros(3), velocity=np.zeros(3))


@dataclass
class PreintDelta:
    """Accumulated relative-motion increments and their covariance.

    covariance is 9x9 over (phi, v, p) error blocks in that order, or
    None when the delta was integrated without a noise model.
    """

    rotation: np.ndarray
    velocity: np.ndarray
    position: np.ndarray
    covariance: np.ndarray | None
    duration: float
    count: int


def bias_correct(series: ImuSeries, state: VimuState) -> tuple:
    """Remove the virtual biases from fused samples. The fused accel
    does not depend on the rate (see vimu), so a gyro bias leaves it as
    it is.

    Returns (w_hat, a_hat) arrays of shape (k, 3): the series' own
    arrays when the state carries no bias.
    """
    if not (np.any(state.bias_gyro) or np.any(state.bias_accel)):
        return series.gyro, series.accel
    return series.gyro - state.bias_gyro, series.accel - state.bias_accel


def preintegrate_windows(series: ImuSeries, state: VimuState, step: int,
                         noise: VimuNoise | None = None) -> list:
    """Integrate consecutive keyframe windows of ``step`` samples into one
    PreintDelta each, the list form of preintegrate_stack; trailing
    samples that fill no whole window are dropped. One delta over a
    whole series is ``preintegrate_windows(series, state,
    len(series))[0]``.

    Every window starts from the same ``state``. A delta depends on its
    start state only through the biases (see bias_correct), so this is
    exact whenever the biases stay fixed across windows: predict_state
    copies them from window to window, and a run from
    VimuState.identity() has none.

    The covariance is propagated exactly when the virtual noise model
    ``noise`` is given; without it the deltas carry ``covariance=None``.
    """
    if step < 1:
        raise ValueError("keyframe window must hold at least one sample")
    n_windows = len(series) // step
    if n_windows == 0:
        return []
    w_hat, a_hat = (x[:n_windows * step].reshape(n_windows, step, 3)
                    for x in bias_correct(series, state))
    dR, dv, dp, cov = preintegrate_stack(w_hat, a_hat, series.freq, noise)
    return [PreintDelta(rotation=dR[j], velocity=dv[j], position=dp[j],
                        covariance=None if cov is None else cov[j],
                        duration=step * (1.0 / series.freq),
                        count=step) for j in range(n_windows)]


def preintegrate_stack(gyro, accel, freq: float,
                       noise: VimuNoise | None = None) -> tuple:
    """Integrate bias-corrected rate and specific-force rows laid out
    (..., windows, step, 3), any leading axes being trials, into every
    window's (dR (..., windows, 3, 3), dv, dp (..., windows, 3), cov).
    With the virtual noise model ``noise``, cov (..., windows, 9, 9) is
    propagated; without it, cov is None.

    One loop over the sample positions advances every window's rotation
    (and covariance, by the per-sample A and B of the module docstring)
    together. A and B are allocated once, with their constant blocks, and
    the loop refills the rest in place. The positions pass in blocks of
    _BLOCK: per block, Exp and the rate-only blocks of B are evaluated
    for all its samples at once, and its rotated samples are reduced
    into the velocity and position sums by weights, without a loop. So
    the working memory grows with the block, not with the window.
    """
    w_hat = np.asarray(gyro, dtype=float)
    a_hat = np.asarray(accel, dtype=float)
    dt = 1.0 / freq
    lead, k = w_hat.shape[:-2], w_hat.shape[-2]
    dR = np.tile(np.eye(3), lead + (1, 1))
    # dv = sum_t a_t dt; dp = sum_t (v_t dt + a_t dt^2 / 2), v_t the velocity
    # before sample t, is sum_t (k - 1/2 - t) a_t dt^2, where a_t is sample t
    # rotated by the accumulation before it: one product per block gives both
    weights = np.array([np.full(k, dt), (k - 0.5 - np.arange(k)) * dt**2])
    dv_dp = np.zeros(lead + (2, 3))
    cov = None
    if noise is not None:
        # discrete per-sample covariance of the stacked (gyro, accel) noise
        s_eta = np.zeros((6, 6))
        s_eta[:3, :3] = noise.gyro * freq
        s_eta[3:, 3:] = noise.accel * freq
        cov = np.zeros(lead + (9, 9))
        A = np.zeros(lead + (9, 9))
        A[..., 3:6, 3:6] = A[..., 6:9, 6:9] = np.eye(3)
        A[..., 6:9, 3:6] = dt * np.eye(3)
        B = np.zeros(lead + (9, 6))
    for b in range(0, k, _BLOCK):
        w, a = w_hat[..., b:b + _BLOCK, :], a_hat[..., b:b + _BLOCK, :]
        # rot[..., i, :, :] holds Exp(w_i dt) until pass i overwrites it
        # with the rotation accumulated before sample i
        rot = exp_so3(w * dt)
        if cov is not None:
            jr_dt = right_jacobian(w * dt) * dt
        for i in range(w.shape[-2]):
            if cov is not None:
                R_sa = dR @ skew(a[..., i, :])
                A[..., 0:3, 0:3] = np.swapaxes(rot[..., i, :, :], -1, -2)
                A[..., 3:6, 0:3] = -R_sa * dt
                A[..., 6:9, 0:3] = -0.5 * R_sa * dt**2
                B[..., 0:3, 0:3] = jr_dt[..., i, :, :]
                B[..., 3:6, 3:6] = dR * dt
                B[..., 6:9, 3:6] = 0.5 * dR * dt**2
                cov = (A @ cov @ np.swapaxes(A, -1, -2)
                       + B @ s_eta @ np.swapaxes(B, -1, -2))
                cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
            before, dR = dR, dR @ rot[..., i, :, :]
            rot[..., i, :, :] = before
        accel_world = rot[..., 0] * a[..., :1]  # R a, column by column
        accel_world += rot[..., 1] * a[..., 1:2]
        accel_world += rot[..., 2] * a[..., 2:]
        dv_dp += weights[:, b:b + _BLOCK] @ accel_world
    return dR, dv_dp[..., 0, :], dv_dp[..., 1, :], cov


def predict_state(start: VimuState, delta: PreintDelta, gravity) -> VimuState:
    """Apply a PreintDelta to a start state under constant gravity. The
    arrays of both may carry the same leading trial axes, one state and
    delta per trial."""
    g = np.asarray(gravity, dtype=float)
    T = delta.duration
    R = start.rotation
    return VimuState(
        rotation=R @ delta.rotation,
        velocity=start.velocity + g * T + (R @ delta.velocity[..., None])[..., 0],
        position=(start.position + start.velocity * T + 0.5 * g * T**2
                  + (R @ delta.position[..., None])[..., 0]),
        bias_gyro=start.bias_gyro.copy(),
        bias_accel=start.bias_accel.copy(),
    )
