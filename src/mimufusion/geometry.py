"""Rotation algebra: skew operators, SO(3) exp/log, the right Jacobian,
and Hamilton quaternion conversions.

Conventions used throughout the package:

* Quaternions are Hamilton, scalar first ``(w, x, y, z)``, canonicalized
  to ``w >= 0``. ``q`` written ``q_BA`` rotates A-frame coordinates into
  the B frame: ``v_B = q * v_A * q^-1``.
* A rotation matrix written ``R_BA`` does the same: ``v_B = R_BA @ v_A``.
"""
from __future__ import annotations

import numpy as np

# Below this angle (rad) series expansions replace the closed forms.
SMALL_ANGLE = 1e-8


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u). A (3,) vector
    gives (3, 3); an (n, 3) stack gives (n, 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def lever_matrix(omega, omega_dot) -> np.ndarray:
    """Rigid-body lever operator [w]x^2 + [wdot]x: applied to a lever
    arm p it gives the extra acceleration of a point p away from the
    reference point, w x (w x p) + wdot x p. (3,) rates give (3, 3);
    (n, 3) rows give (n, 3, 3)."""
    sw = skew(omega)
    out = sw @ sw
    out += skew(omega_dot)
    return out


def vee(m) -> np.ndarray:
    """Inverse of skew for an exactly antisymmetric matrix or a stack of
    them."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def _angles(phi):
    """Rotation angles of a (3,) or (n, 3) phi, shaped to scale 3x3
    blocks, plus the rows below SMALL_ANGLE. Those rows get angle 1 so
    a closed form evaluated on every row never divides zero by zero."""
    angles = np.linalg.norm(phi, axis=-1)[..., None, None]
    small = angles < SMALL_ANGLE
    return np.where(small, 1.0, angles), small


def exp_so3(phi) -> np.ndarray:
    """Rodrigues exponential of a rotation vector (3,) or a stack (n, 3).

    Falls back to the second-order Taylor expansion below SMALL_ANGLE so
    the map stays exact to machine precision near zero.
    """
    phi = np.asarray(phi, dtype=float)
    th, small = _angles(phi)
    a = np.where(small, 1.0, np.sin(th) / th)
    b = np.where(small, 0.5, (1.0 - np.cos(th)) / th**2)
    s = skew(phi)
    s2 = s @ s  # I + a s + b s^2, summed in that order, in place
    s2 *= b
    s *= a
    s += np.eye(3)
    s += s2
    return s


def log_so3(R) -> np.ndarray:
    """Rotation vector of a rotation matrix (3, 3), or of each matrix of
    a stack (n, 3, 3), with norm <= pi.

    Near pi the dominant-axis extraction is used because the
    antisymmetric part of R degenerates there; each row takes its own
    branch.
    """
    R = np.asarray(R, dtype=float)
    w = 0.5 * vee(R - np.swapaxes(R, -1, -2))  # sin(angle) * axis
    sin_angle = np.linalg.norm(w, axis=-1)
    cos_angle = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0,
                        -1.0, 1.0)
    # atan2 keeps the angle well conditioned where arccos alone degrades
    # (cos near +-1); the measured sine also cancels out of angle/sin * w.
    angle = np.arctan2(sin_angle, cos_angle)
    small = angle < SMALL_ANGLE
    scale = np.where(small, 1.0, angle / np.where(small, 1.0, sin_angle))
    # R ~ 2 a a^T - I near pi: pick the axis from the strongest column of
    # the symmetrized R + I (symmetrizing drops the sin(angle) [a]x term);
    # sin(angle) >= 0, so the antisymmetric part fixes the sign when it
    # has not fully collapsed.
    m = 0.5 * (R + np.swapaxes(R, -1, -2)) + np.eye(3)
    k = np.argmax(np.diagonal(m, axis1=-2, axis2=-1), axis=-1)
    axis = np.take_along_axis(m, k[..., None, None], axis=-1)[..., 0]
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    axis *= np.where(np.sum(w * axis, axis=-1) < 0.0, -1.0, 1.0)[..., None]
    return np.where((np.pi - angle < 1e-6)[..., None], angle[..., None] * axis,
                    scale[..., None] * w)


def right_jacobian(phi) -> np.ndarray:
    """Right Jacobian of SO(3): exp(phi + d) ~ exp(phi) exp(Jr(phi) d).
    Takes a (3,) vector or an (n, 3) stack, like exp_so3."""
    phi = np.asarray(phi, dtype=float)
    th, small = _angles(phi)
    a = np.where(small, 0.5, (1.0 - np.cos(th)) / th**2)
    b = np.where(small, 1.0 / 6.0, (th - np.sin(th)) / th**3)
    s = skew(phi)
    return np.eye(3) - a * s + b * (s @ s)


def _canonical(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_from_rotation(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0.

    Shepperd's method: branch on the largest of trace and diagonal
    entries for numerical stability.
    """
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([
            0.25 * s,
            (R[2, 1] - R[1, 2]) / s,
            (R[0, 2] - R[2, 0]) / s,
            (R[1, 0] - R[0, 1]) / s,
        ])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([
            (R[2, 1] - R[1, 2]) / s,
            0.25 * s,
            (R[0, 1] + R[1, 0]) / s,
            (R[0, 2] + R[2, 0]) / s,
        ])
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([
            (R[0, 2] - R[2, 0]) / s,
            (R[0, 1] + R[1, 0]) / s,
            0.25 * s,
            (R[1, 2] + R[2, 1]) / s,
        ])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([
            (R[1, 0] - R[0, 1]) / s,
            (R[0, 2] + R[2, 0]) / s,
            (R[1, 2] + R[2, 1]) / s,
            0.25 * s,
        ])
    return _canonical(q)


def rotation_from_quat(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b (composition: rotate by b, then by a)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector(s) v by quaternion q; v may be (3,) or (n, 3)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u = q[1:]
    w = q[0]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def quat_from_rotvec(phi) -> np.ndarray:
    """Unit quaternion for a rotation vector (canonical sign)."""
    phi = np.asarray(phi, dtype=float)
    angle = float(np.linalg.norm(phi))
    if angle < SMALL_ANGLE:
        # sin(a/2)/a ~ 1/2 - a^2/48
        factor = 0.5 - angle**2 / 48.0
        q = np.concatenate(([np.cos(angle / 2.0)], factor * phi))
    else:
        q = np.concatenate((
            [np.cos(angle / 2.0)],
            (np.sin(angle / 2.0) / angle) * phi,
        ))
    return _canonical(q)


def geodesic_angle(Ra, Rb):
    """Angle (rad) of the relative rotation between two matrices, or
    between the paired matrices of two (n, 3, 3) stacks."""
    Ra = np.asarray(Ra, dtype=float)
    rel = np.swapaxes(Ra, -1, -2) @ np.asarray(Rb, dtype=float)
    return np.linalg.norm(log_so3(rel), axis=-1)


def is_rotation(R, tol: float = 1e-9) -> bool:
    """True when R is orthogonal with determinant +1 within tol."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    return (
        np.allclose(R.T @ R, np.eye(3), atol=tol)
        and abs(float(np.linalg.det(R)) - 1.0) < tol
    )
