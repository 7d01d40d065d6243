"""Rotation algebra: skew operators, the SO(3) exponential, geodesic
angles, the right Jacobian, and Hamilton quaternion conversions.

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
    (n, 3) rows give (n, 3, 3). Entry by entry, [w]x^2 = w w^T - |w|^2 I."""
    w, wd = (np.asarray(v, dtype=float) for v in (omega, omega_dot))
    sq = w * w
    out = np.empty(np.broadcast_shapes(w.shape, wd.shape) + (3,))
    for i, j, k, cross in ((0, 1, 2, wd[..., 2]), (0, 2, 1, -wd[..., 1]),
                           (1, 2, 0, wd[..., 0])):
        out[..., k, k] = -(sq[..., i] + sq[..., j])
        sym = w[..., i] * w[..., j]
        out[..., i, j] = sym - cross
        out[..., j, i] = sym + cross
    return out


def vee(m) -> np.ndarray:
    """Inverse of skew for an exactly antisymmetric matrix or a stack of
    them."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def _angles(phi):
    """Rotation angles of rotation vectors (..., 3), shape (...), plus
    the rows below SMALL_ANGLE. Those rows get angle 1 so a closed form
    evaluated on every row never divides zero by zero."""
    angles = np.sqrt(phi[..., 0]**2 + phi[..., 1]**2 + phi[..., 2]**2)
    small = angles < SMALL_ANGLE
    return np.where(small, 1.0, angles), small


def _identity_plus(phi, a, b) -> np.ndarray:
    """I + a [phi]x + b [phi]x^2 for rotation vectors phi (..., 3) and
    coefficients a, b (...), entry by entry with [phi]x^2 = phi phi^T -
    |phi|^2 I: one (..., 3, 3) array and no 3x3 products."""
    x, y, z = phi[..., 0], phi[..., 1], phi[..., 2]
    bx, by, bz = b * x, b * y, b * z
    ax, ay, az = a * x, a * y, a * z
    out = np.empty(phi.shape + (3,))
    out[..., 0, 0] = 1.0 - (by * y + bz * z)
    out[..., 1, 1] = 1.0 - (bx * x + bz * z)
    out[..., 2, 2] = 1.0 - (bx * x + by * y)
    for i, j, cross in ((0, 1, az), (0, 2, -ay), (1, 2, ax)):
        sym = (bx, by, bz)[i] * phi[..., j]
        out[..., i, j] = sym - cross
        out[..., j, i] = sym + cross
    return out


def exp_so3(phi) -> np.ndarray:
    """Rodrigues exponential of a rotation vector (3,) or of each row of
    a stack (..., 3).

    Falls back to the second-order Taylor expansion below SMALL_ANGLE so
    the map stays exact to machine precision near zero.
    """
    phi = np.asarray(phi, dtype=float)
    th, small = _angles(phi)
    return _identity_plus(phi, np.where(small, 1.0, np.sin(th) / th),
                          np.where(small, 0.5, (1.0 - np.cos(th)) / th**2))


def right_jacobian(phi) -> np.ndarray:
    """Right Jacobian of SO(3): exp(phi + d) ~ exp(phi) exp(Jr(phi) d).
    Takes a (3,) vector or an (n, 3) stack, like exp_so3."""
    phi = np.asarray(phi, dtype=float)
    th, small = _angles(phi)
    return _identity_plus(phi, np.where(small, -0.5, (np.cos(th) - 1.0) / th**2),
                          np.where(small, 1.0 / 6.0, (th - np.sin(th)) / th**3))


def _canonical(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(q[..., :1] < 0.0, -q, q)


def quat_from_rotation(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0; a stack
    (..., 3, 3) gives (..., 4).

    Shepperd's method: per matrix, branch on the largest of trace and
    diagonal entries for numerical stability. Branch k solves for
    component k (0 = w) from its square and reads the others off row k
    of the symmetric matrix of antisymmetric and symmetric parts of R.
    """
    R = np.asarray(R, dtype=float)
    d0, d1, d2 = (R[..., i, i] for i in range(3))
    tr = np.trace(R, axis1=-2, axis2=-1)
    branch = np.where(tr > 0.0, 0, np.where((d0 > d1) & (d0 > d2), 1,
                                            np.where(d1 > d2, 2, 3)))
    s = np.sqrt(np.choose(branch, [tr + 1.0, 1.0 + d0 - d1 - d2,
                                   1.0 + d1 - d0 - d2, 1.0 + d2 - d0 - d1])) * 2.0
    parts = np.empty(R.shape[:-2] + (4, 4))
    parts[..., 1:, 1:] = R + np.swapaxes(R, -1, -2)
    parts[..., 0, 1:] = parts[..., 1:, 0] = vee(R - np.swapaxes(R, -1, -2))
    q = np.take_along_axis(parts, branch[..., None, None], axis=-2)[..., 0, :]
    q /= s[..., None]
    np.put_along_axis(q, branch[..., None], 0.25 * s[..., None], axis=-1)
    return _canonical(q)


def rotation_from_quat(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z); a stack (..., 4)
    gives (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q / np.linalg.norm(q, axis=-1, keepdims=True), -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


def geodesic_angle(Ra, Rb):
    """Angle (rad) of the relative rotation rel between two matrices, or
    between the paired matrices of two (n, 3, 3) stacks: the norm of its
    rotation vector, atan2(|vee(rel - rel^T)| / 2, (tr rel - 1) / 2),
    without extracting the axis. atan2 keeps the angle well conditioned
    where arccos alone degrades (cos near +-1)."""
    Ra = np.asarray(Ra, dtype=float)
    rel = np.swapaxes(Ra, -1, -2) @ np.asarray(Rb, dtype=float)
    sin_angle = np.linalg.norm(0.5 * vee(rel - np.swapaxes(rel, -1, -2)), axis=-1)
    cos_angle = np.clip((np.trace(rel, axis1=-2, axis2=-1) - 1.0) / 2.0,
                        -1.0, 1.0)
    return np.arctan2(sin_angle, cos_angle)


def is_rotation(R, tol: float = 1e-9):
    """True when R is orthogonal with determinant +1 within tol; a stack
    (..., 3, 3) gives a bool per matrix. Orthogonality is checked entry
    by entry as np.allclose(R^T R, I, atol=tol) does, with its default
    rtol of 1e-5."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        return False
    eye = np.eye(3)
    ok = (np.abs(np.swapaxes(R, -1, -2) @ R - eye) <= tol + 1e-5 * eye).all(axis=(-2, -1))
    ok &= np.abs(np.linalg.det(R) - 1.0) < tol
    return bool(ok) if ok.ndim == 0 else ok
