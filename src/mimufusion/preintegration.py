"""On-manifold preintegration of virtual-IMU measurements with
first-order covariance propagation.

Between two keyframes the bias-corrected samples are folded into
relative motion increments, independent of the start state,

    dR = prod Exp((w - b_g) dt),   dv = sum dR_k a_k dt,
    dp = sum (dv_k dt + 1/2 dR_k a_k dt^2)

with errors dR_meas = dR Exp(e_phi), e_v = dv_meas - dv and e_p =
dp_meas - dp. The fused accel sits at the array's accelerometer-weighted
centroid (see vimu), so gyro noise reaches v and p only through e_phi.

The 9x9 covariance over (phi, v, p) sums the samples' noise carried to
the window's end k by Phi(k, j) = L(k) F_j: F_j stacks E_j, [dv_j]x E_j
and [dp_j - j dt dv_j]x E_j (E_j = dR_j Jr_{j-1}); L(k) holds only dR_k,
dv_k, dp_k and k. The gyro noise gives L(k) (sum_j F_j Q_g F_j^T dt)
L(k)^T, the accel noise sums of dR_i Q_a dR_i^T dt weighted by 1,
(i + 1/2) dt and ((i + 1/2) dt)^2. The rotation block keeps the
recurrence P <- Exp^T P Exp + Jr Q_g Jr^T dt, and each accel term its
own product: entries that an isotropic Q leaves near zero then round at
their own size, not at eps times a sum rotated by dR_k.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
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
    propagated (see the module docstring); without it, cov is None.

    Every window advances at once, a sample position per loop pass, in
    blocks of _BLOCK whose Exp, Jr, rotated samples and noise terms are
    evaluated and summed without a loop: no rotation is kept per sample.

    The covariance needs the right Jacobian, which cubes each sample's
    angle |w| / freq: with ``noise``, a sample whose cube overflows
    raises FormatError naming it by its index over the windows and
    step axes.
    """
    w_hat = np.asarray(gyro, dtype=float)
    a_hat = np.asarray(accel, dtype=float)
    dt = 1.0 / freq
    lead, k = w_hat.shape[:-2], w_hat.shape[-2]
    if noise is not None:
        with np.errstate(over="ignore"):
            angle = np.linalg.norm(w_hat * dt, axis=-1)
            overflow = np.flatnonzero(np.isinf(angle**3))
        if overflow.size:
            i = overflow[0]
            raise FormatError(
                f"sample {i % (angle.shape[-2] * k)} turns {angle.flat[i]:.3g} rad in "
                "one period, an angle whose cube overflows")
    dR = np.tile(np.eye(3), lead + (1, 1))
    # dv = sum_t a_t dt; dp = sum_t (v_t dt + a_t dt^2 / 2), v_t the velocity
    # before sample t, is sum_t (k - 1/2 - t) a_t dt^2, where a_t is sample t
    # rotated by the accumulation before it: one product per block gives both
    weights = np.array([np.full(k, dt), (k - 0.5 - np.arange(k)) * dt**2])
    dv_dp = np.zeros(lead + (2, 3))
    if noise is not None:  # the rotation block, the sum L(k) maps, (dv_j, dp_j - j dt dv_j)
        rot_block, sums = np.zeros(lead + (3, 3)), np.zeros(lead + (9, 9))
        prefix = np.zeros(lead + (2, 3, 1))
    for b in range(0, k, _BLOCK):
        w, a = w_hat[..., b:b + _BLOCK, :], a_hat[..., b:b + _BLOCK, :]
        n = w.shape[-2]
        rot = exp_so3(w * dt)
        if noise is not None:  # transposes are copied: matmul is slow on views
            jr = right_jacobian(w * dt) * dt
            jr_t = np.ascontiguousarray(np.swapaxes(jr, -1, -2))
            jrq = (jr.reshape(-1, 3) @ (noise.gyro * freq)).reshape(jr.shape) @ jr_t
            exp_t = np.ascontiguousarray(np.moveaxis(np.swapaxes(rot, -1, -2), -3, 0))
        # rot[..., i, :, :] holds Exp(w_i dt) until pass i overwrites it
        # with the rotation accumulated before sample i
        for i in range(n):
            if noise is not None:
                rot_block = exp_t[i] @ rot_block @ rot[..., i, :, :] + jrq[..., i, :, :]
            before, dR = dR, dR @ rot[..., i, :, :]
            rot[..., i, :, :] = before
        accel_world = rot[..., 0] * a[..., :1]  # R a, column by column
        accel_world += rot[..., 1] * a[..., 1:2]
        accel_world += rot[..., 2] * a[..., 2:]
        dv_dp += weights[:, b:b + _BLOCK] @ accel_world
        if noise is None:
            continue
        del jr, jrq, exp_t
        # the prefix after each sample, components first, by triangular weights
        c = (b + 0.5 + np.arange(n)) * dt
        tri = np.tril(np.full((n, n), dt))
        steps = (np.concatenate([tri, -c * tri]) @ accel_world).reshape(lead + (2, n, 3))
        prefix = prefix[..., -1:] + np.swapaxes(steps, -1, -2)
        # each sample's (dR_i dt) Q_a freq (dR_i dt)^T, weighted by 1, -c, -c, c^2
        rot_dt = rot * dt
        acc = (rot_dt.reshape(-1, 3) @ (noise.accel * freq)).reshape(rot.shape)
        acc = np.array([np.ones(n), -c, -c, c * c]) @ (
            acc @ np.ascontiguousarray(np.swapaxes(rot_dt, -1, -2))).reshape(lead + (n, 9))
        sums[..., 3:, 3:] += np.swapaxes(acc.reshape(lead + (2, 2, 3, 3)), -3, -2).reshape(
            lead + (6, 6))
        del rot_dt, acc
        # f[..., g, r, :, i] is row r of block g of F_{i+1} dt, which carries
        # sample i's gyro noise: E_{i+1} = dR_i Exp_i Jr_i = dR_i Jr_i^T
        f = np.empty(lead + (3, 3, 3, n))
        f[..., 0, :, :, :] = np.moveaxis(rot @ jr_t, -3, -1)
        del jr_t, rot
        for r in range(3):  # row r of [u]x E from rows r + 1 and r + 2 of E
            r1, r2 = (r + 1) % 3, (r + 2) % 3
            f[..., 1:, r, :, :] = (prefix[..., r1, None, :] * f[..., :1, r2, :, :]
                                   - prefix[..., r2, None, :] * f[..., :1, r1, :, :])
        flat = f.reshape(lead + (9, 3 * n))
        sums += (noise.gyro * freq @ f).reshape(flat.shape) @ np.swapaxes(flat, -1, -2)
        del f, flat
    dv, dp = dv_dp[..., 0, :], dv_dp[..., 1, :]
    if noise is None:
        return dR, dv, dp, None
    # L(k), the window end's factor of every Phi(k, j) = L(k) F_j
    eye, zero = np.broadcast_to(np.eye(3), dR.shape), np.zeros_like(dR)
    L = np.block([[np.swapaxes(dR, -1, -2), zero, zero], [-skew(dv), eye, zero],
                  [-skew(dp), k * dt * eye, eye]])
    cov = L @ sums @ np.swapaxes(L, -1, -2)
    cov[..., :3, :3] = rot_block
    return dR, dv, dp, 0.5 * (cov + np.swapaxes(cov, -1, -2))


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
