"""The tests' independent oracles.

``propagate_step`` folds one bias-corrected sample into a running
``PreintDelta`` with per-sample 3x3 and 9x9 algebra. The library's
kernel (``preintegrate_windows``) advances many windows at once instead;
the tests compare the two, so this code must not call the kernel or its
batched step builders.

``write_imu_csv`` and ``parse_csv`` are the per-value IMU CSV writer
and per-line reader that the library's bulk codec replaced: one
f-string per value, one ``int()``/``float()`` per field.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from mimufusion.csvio import IMU_CSV_HEADER, atomic_write_text
from mimufusion.errors import FormatError
from mimufusion.geometry import exp_so3, right_jacobian, skew
from mimufusion.preintegration import PreintDelta, _noise_input_covariance
from mimufusion.types import ImuSeries
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


def write_imu_csv(path, series: ImuSeries):
    """Write a raw or fused series, one row per sample at its implicit
    timestamp."""
    lines = [IMU_CSV_HEADER]
    for t, w, a in zip(series.times_ns(), series.gyro, series.accel):
        vals = ",".join(f"{x:.17g}" for x in (*w, *a))
        lines.append(f"{int(t)},{vals}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def parse_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != IMU_CSV_HEADER:
            raise FormatError(
                f"{path}: bad header {header!r}, expected {IMU_CSV_HEADER!r}")
        times = []
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise FormatError(f"{path}:{lineno}: expected 7 columns")
            try:
                times.append(int(parts[0]))
                values.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if len(times) < 2:
        raise FormatError(f"{path}: need at least 2 samples to derive a rate")
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = _line_of_row(path, int(np.argmin(finite)))
        raise FormatError(f"{path}:{lineno}: non-finite sample value")
    return np.asarray(times, dtype=np.int64), values


def _line_of_row(path, row: int) -> int:
    """File line number of data row ``row`` (0-based, blank lines
    skipped). Only the error path calls this, so the parse loop need
    not track line numbers."""
    with open(path) as fh:
        data_lines = (n for n, line in enumerate(fh, start=1)
                      if n > 1 and line.strip())
        return next(itertools.islice(data_lines, row, None))
