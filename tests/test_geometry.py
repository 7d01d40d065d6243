import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracle
from oracle import log_so3, quat_conjugate, quat_from_rotvec, quat_multiply, quat_rotate
from scipy.spatial.transform import Rotation

from mimufusion.geometry import (
    SMALL_ANGLE,
    exp_so3,
    geodesic_angle,
    is_rotation,
    lever_matrix,
    quat_from_rotation,
    right_jacobian,
    rotation_from_quat,
    skew,
    vee,
)


def exp_series(phi, terms=30):
    """Matrix exponential by truncated power series, independent of the
    closed form under test."""
    S = skew(phi)
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ S / k
        out = out + term
    return out


def test_skew_zero():
    np.testing.assert_array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_skew_cross_product():
    # [e3]x e1 = e3 x e1 = e2
    out = skew([0.0, 0.0, 1.0]) @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_skew_annihilates_own_axis():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(skew(v) @ v, np.zeros(3), atol=1e-15)


def test_skew_antisymmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        S = skew(rng.normal(size=3))
        np.testing.assert_allclose(S.T, -S, atol=0.0)


def test_vee_inverts_skew():
    rng = np.random.default_rng(5)
    v = rng.normal(size=3)
    np.testing.assert_allclose(vee(skew(v)), v)


def test_skew_many_matches_scalar():
    """A stacked (n, 3) call equals the per-row (3,) calls."""
    rng = np.random.default_rng(6)
    vs = rng.normal(size=(17, 3))
    many = skew(vs)
    assert many.shape == (17, 3, 3)
    for i, v in enumerate(vs):
        np.testing.assert_array_equal(many[i], skew(v))


def test_exp_zero_is_identity():
    np.testing.assert_array_equal(exp_so3([0.0, 0.0, 0.0]), np.eye(3))


def test_exp_quarter_turn_about_z():
    R = exp_so3([0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(R @ np.array([1.0, 0.0, 0.0]),
                               [0.0, 1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_exp_matches_power_series(seed):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=3) * rng.uniform(0.01, 2.5)
    np.testing.assert_allclose(exp_so3(phi), exp_series(phi), atol=1e-12)


def test_exp_tiny_angle_stable():
    phi = np.array([1e-12, -2e-12, 0.5e-12])
    np.testing.assert_allclose(exp_so3(phi), exp_series(phi), atol=1e-15)


def test_exp_many_matches_scalar():
    """A stacked (n, 3) call equals the per-row (3,) calls."""
    rng = np.random.default_rng(7)
    phis = rng.normal(size=(25, 3))
    many = exp_so3(phis)
    assert many.shape == (25, 3, 3)
    for i, phi in enumerate(phis):
        np.testing.assert_allclose(many[i], exp_so3(phi), atol=1e-14)


def test_log_identity_is_zero():
    np.testing.assert_array_equal(log_so3(np.eye(3)), np.zeros(3))


def test_log_round_trip_example():
    phi = np.array([0.1, -0.2, 0.3])
    np.testing.assert_allclose(log_so3(exp_so3(phi)), phi, atol=1e-10)


def test_log_half_turn_about_z():
    R = exp_so3([0.0, 0.0, np.pi])
    phi = log_so3(R)
    assert np.linalg.norm(phi) == pytest.approx(np.pi, abs=1e-9)
    # scipy agrees on the recovered axis (sign of a pi rotation is
    # ambiguous, both map to the same matrix)
    ref = Rotation.from_matrix(R).as_rotvec()
    assert min(np.linalg.norm(phi - ref), np.linalg.norm(phi + ref)) < 1e-9


@pytest.mark.parametrize("angle", [1e-7, 0.5, 1.5, 2.8, 3.0,
                                   np.pi - 1e-4, np.pi - 1e-6])
def test_log_round_trip_angle_sweep(angle):
    rng = np.random.default_rng(int(angle * 1e6) % 2**31)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    phi = angle * axis
    np.testing.assert_allclose(log_so3(exp_so3(phi)), phi, atol=1e-9)


def test_log_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
        np.testing.assert_allclose(log_so3(R),
                                   Rotation.from_matrix(R).as_rotvec(),
                                   atol=1e-9)


def test_right_jacobian_zero_is_identity():
    np.testing.assert_array_equal(right_jacobian([0.0, 0.0, 0.0]), np.eye(3))


def test_right_jacobian_small_angle():
    phi = np.array([1e-5, -2e-5, 1.5e-5])
    np.testing.assert_allclose(right_jacobian(phi),
                               np.eye(3) - 0.5 * skew(phi), atol=1e-9)


def test_right_jacobian_retraction():
    """Defining property: Exp(phi + d) = Exp(phi) Exp(Jr(phi) d) + O(|d|^2)."""
    rng = np.random.default_rng(12)
    for _ in range(100):
        phi = rng.normal(size=3) * rng.uniform(0.05, 2.0)
        delta = rng.normal(size=3)
        delta *= 1e-6 / np.linalg.norm(delta)
        lhs = exp_so3(phi + delta)
        rhs = exp_so3(phi) @ exp_so3(right_jacobian(phi) @ delta)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_right_jacobian_many_matches_scalar():
    """A stacked (n, 3) call equals the per-row (3,) calls."""
    rng = np.random.default_rng(13)
    phis = rng.normal(size=(19, 3))
    many = right_jacobian(phis)
    assert many.shape == (19, 3, 3)
    for i, phi in enumerate(phis):
        np.testing.assert_allclose(many[i], right_jacobian(phi), atol=1e-14)


def test_quat_identity():
    np.testing.assert_allclose(quat_from_rotation(np.eye(3)),
                               [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_quat_round_trip_random():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        R = exp_so3(rng.normal(size=3) * rng.uniform(0.0, 3.1))
        np.testing.assert_allclose(rotation_from_quat(quat_from_rotation(R)),
                                   R, atol=1e-9)


def test_quat_sign_ambiguity():
    rng = np.random.default_rng(15)
    q = quat_from_rotation(exp_so3(rng.normal(size=3)))
    np.testing.assert_allclose(rotation_from_quat(q), rotation_from_quat(-q),
                               atol=1e-15)


def test_quat_canonical_nonnegative_w():
    rng = np.random.default_rng(16)
    for _ in range(200):
        R = exp_so3(rng.normal(size=3) * rng.uniform(0.0, 3.14))
        assert quat_from_rotation(R)[0] >= 0.0


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_quat_near_half_turn_branches(axis):
    # Exercises the trace-negative extraction branches, one per axis.
    phi = np.zeros(3)
    phi[axis] = np.pi - 1e-7
    R = exp_so3(phi)
    q = quat_from_rotation(R)
    np.testing.assert_allclose(rotation_from_quat(q), R, atol=1e-9)
    assert abs(q[1 + axis]) > 0.999


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(17)
    for _ in range(50):
        Ra = exp_so3(rng.normal(size=3))
        Rb = exp_so3(rng.normal(size=3))
        q = quat_multiply(quat_from_rotation(Ra), quat_from_rotation(Rb))
        np.testing.assert_allclose(rotation_from_quat(q), Ra @ Rb, atol=1e-12)


def test_quat_rotate_matches_matrix():
    rng = np.random.default_rng(18)
    R = exp_so3(rng.normal(size=3))
    q = quat_from_rotation(R)
    v = rng.normal(size=3)
    np.testing.assert_allclose(quat_rotate(q, v), R @ v, atol=1e-12)
    # batched rows too
    vs = rng.normal(size=(8, 3))
    np.testing.assert_allclose(quat_rotate(q, vs), vs @ R.T, atol=1e-12)


def test_quat_conjugate_inverts():
    rng = np.random.default_rng(19)
    q = quat_from_rotation(exp_so3(rng.normal(size=3)))
    qq = quat_multiply(q, quat_conjugate(q))
    np.testing.assert_allclose(qq, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_quat_from_rotvec_matches_exp():
    rng = np.random.default_rng(20)
    phi = rng.normal(size=3)
    np.testing.assert_allclose(rotation_from_quat(quat_from_rotvec(phi)),
                               exp_so3(phi), atol=1e-12)


def test_geodesic_angle():
    Ra = np.eye(3)
    Rb = exp_so3([0.0, 0.3, 0.0])
    assert geodesic_angle(Ra, Rb) == pytest.approx(0.3, abs=1e-12)
    assert geodesic_angle(Rb, Rb) == pytest.approx(0.0, abs=1e-9)


def test_is_rotation():
    assert is_rotation(np.eye(3))
    assert is_rotation(exp_so3([0.2, -0.1, 0.4]))
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    assert not is_rotation(np.eye(3) * 1.001)


def _rotation_check_cases():
    """Identity, a rotation, a reflection, a scaled identity, a diagonal
    whose R^T R is off by 5e-6 (inside np.allclose's default rtol, with
    det 1) and an off-diagonal entry of 5e-8 (outside atol)."""
    off_diagonal = np.eye(3)
    off_diagonal[0, 1] = 5e-8
    s = 1.0 + 2.5e-6
    return [np.eye(3), exp_so3([0.2, -0.1, 0.4]), np.diag([1.0, 1.0, -1.0]),
            1.001 * np.eye(3), np.diag([s, 1.0 / s, 1.0]), off_diagonal]


@pytest.mark.parametrize("tol", [1e-8, 1e-9])
def test_is_rotation_stack_matches_per_matrix_check(tol):
    """One stacked pass accepts and rejects what the per-matrix
    np.allclose check does, and a single matrix still gives a bool."""
    cases = _rotation_check_cases()
    want = [oracle.is_rotation(R, tol=tol) for R in cases]
    assert want == [True, True, False, False, True, False]
    assert is_rotation(np.array(cases), tol=tol).tolist() == want
    assert is_rotation(np.array(cases).reshape(2, 3, 3, 3), tol=tol).ravel().tolist() == want
    assert [is_rotation(R, tol=tol) for R in cases] == want
    assert all(type(is_rotation(R, tol=tol)) is bool for R in cases)
    assert is_rotation(np.eye(2)) is False


def test_lever_matrix_matches_cross_products_and_skew_products():
    """On 12,000 rate rows the entry-by-entry operator applied to lever
    arms gives np.cross's w x (w x p) + wdot x p, and equals the product
    form [w]x [w]x + [wdot]x to round-off."""
    rng = np.random.default_rng(12)
    w = rng.normal(scale=2.0, size=(12000, 3))
    wd = rng.normal(scale=5.0, size=(12000, 3))
    M = lever_matrix(w, wd)
    for p in ([0.05, -0.12, 0.3], [-0.05, 0.0, 0.0], [0.0, 0.0, 1.0]):
        want = np.cross(w, np.cross(w, p)) + np.cross(wd, p)
        np.testing.assert_allclose(M @ p, want, rtol=0, atol=1e-14 * np.abs(want).max())
    want = oracle.skew_lever_matrix(w, wd)
    np.testing.assert_allclose(M, want, rtol=0, atol=1e-15 * np.abs(want).max())


# --- properties of the merged (3,) / (n, 3) forms ----------------------

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)
AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: np.array(v) / np.linalg.norm(v))
# Rows of ordinary size mixed with rows below SMALL_ANGLE, so one stack
# takes both branches.
ROWS = st.one_of(
    st.tuples(*[st.floats(-4.0, 4.0)] * 3),
    st.tuples(*[st.floats(-1e-9, 1e-9)] * 3),
).map(np.array)
STACKS = st.lists(ROWS, min_size=1, max_size=8).map(np.array)


@PROPERTY_SETTINGS
@given(axis=AXES, angle=st.one_of(st.floats(0.0, SMALL_ANGLE),
                                  st.floats(SMALL_ANGLE, 1e-6,
                                            exclude_max=True)))
def test_property_log_exp_round_trip_near_zero(axis, angle):
    phi = angle * axis
    back = log_so3(exp_so3(phi))
    assert np.linalg.norm(back - phi) <= 1e-9 * angle + 1e-300


@PROPERTY_SETTINGS
@given(axis=AXES, gap=st.floats(0.0, 1e-3))
def test_property_log_exp_round_trip_near_pi(axis, gap):
    phi = (np.pi - gap) * axis
    R = exp_so3(phi)
    back = log_so3(R)
    assert np.linalg.norm(back) <= np.pi + 1e-12
    np.testing.assert_allclose(exp_so3(back), R, atol=1e-9)
    # At pi itself +phi and -phi are the same rotation; short of it the
    # sign must come back too.
    if gap > 1e-9:
        np.testing.assert_allclose(back, phi, atol=1e-9)


@PROPERTY_SETTINGS
@given(phis=STACKS)
def test_property_stacked_calls_match_rows(phis):
    stacked_skew = skew(phis)
    stacked_exp = exp_so3(phis)
    stacked_jr = right_jacobian(phis)
    assert stacked_skew.shape == stacked_exp.shape == (len(phis), 3, 3)
    for i, phi in enumerate(phis):
        np.testing.assert_array_equal(stacked_skew[i], skew(phi))
        np.testing.assert_allclose(stacked_exp[i], exp_so3(phi), atol=1e-14)
        np.testing.assert_allclose(stacked_jr[i], right_jacobian(phi),
                                   atol=1e-14)


@PROPERTY_SETTINGS
@given(omegas=STACKS, data=st.data())
def test_property_lever_matrix_is_rigid_body_lever(omegas, data):
    """lever_matrix(w, wdot) @ p is w x (w x p) + wdot x p, row by row
    and for a single (3,) rate."""
    omega_dots = data.draw(st.lists(ROWS, min_size=len(omegas),
                                    max_size=len(omegas)).map(np.array))
    p = np.array([0.05, -0.12, 0.3])
    want = np.cross(omegas, np.cross(omegas, p)) + np.cross(omega_dots, p)
    stacked = lever_matrix(omegas, omega_dots)
    assert stacked.shape == (len(omegas), 3, 3)
    np.testing.assert_allclose(stacked @ p, want, rtol=1e-12, atol=1e-12)
    for i in range(len(omegas)):
        np.testing.assert_array_equal(lever_matrix(omegas[i], omega_dots[i]),
                                      stacked[i])


# Angles below SMALL_ANGLE, within 1e-6 of pi (the dominant-axis
# branch), and in between, so one stack can take every branch of log_so3.
LOG_ROTATIONS = st.tuples(AXES, st.one_of(
    st.floats(0.0, SMALL_ANGLE, exclude_max=True),
    st.floats(np.pi - 1e-6, np.pi, exclude_min=True),
    st.floats(SMALL_ANGLE, np.pi - 1e-6),
)).map(lambda t: exp_so3(t[1] * t[0]))


@PROPERTY_SETTINGS
@given(Ra=st.lists(LOG_ROTATIONS, min_size=1, max_size=8).map(np.array),
       data=st.data())
def test_property_stacked_log_and_geodesic_match_rows(Ra, data):
    Rb = data.draw(st.lists(LOG_ROTATIONS, min_size=len(Ra),
                            max_size=len(Ra)).map(np.array))
    stacked_log = log_so3(Ra)
    stacked_angle = geodesic_angle(Ra, Rb)
    assert stacked_log.shape == (len(Ra), 3)
    assert stacked_angle.shape == (len(Ra),)
    for i in range(len(Ra)):
        np.testing.assert_array_equal(stacked_log[i], log_so3(Ra[i]))
        assert stacked_angle[i] == geodesic_angle(Ra[i], Rb[i])


@PROPERTY_SETTINGS
@given(Ra=st.lists(LOG_ROTATIONS, min_size=1, max_size=8).map(np.array),
       data=st.data())
def test_property_geodesic_angle_is_norm_of_log(Ra, data):
    """The angle read off directly is the norm of log_so3 of the
    relative rotation, below SMALL_ANGLE, within 1e-6 of pi and in
    between."""
    rel = data.draw(st.lists(LOG_ROTATIONS, min_size=len(Ra),
                             max_size=len(Ra)).map(np.array))
    Rb = Ra @ rel
    angle = geodesic_angle(Ra, Rb)
    want = np.linalg.norm(log_so3(np.swapaxes(Ra, -1, -2) @ Rb), axis=-1)
    np.testing.assert_allclose(angle, want, rtol=1e-14, atol=1e-300)


# Rotations whose largest of trace and diagonal entries picks each of
# Shepperd's four branches: small angles (trace), and near half turns
# about axes close to x, y and z (the diagonal entry of that axis).
QUAT_ROTATIONS = st.one_of(
    LOG_ROTATIONS,
    st.tuples(st.sampled_from(tuple(np.eye(3))), AXES, st.floats(0.0, 0.3)).map(
        lambda t: exp_so3((np.pi - 0.2 * t[2]) * (t[0] + 0.2 * t[1])
                          / np.linalg.norm(t[0] + 0.2 * t[1]))),
)


@PROPERTY_SETTINGS
@given(Rs=st.lists(QUAT_ROTATIONS, min_size=1, max_size=8).map(np.array))
def test_property_stacked_quaternions_match_rows(Rs):
    q = quat_from_rotation(Rs)
    back = rotation_from_quat(q)
    assert q.shape == (len(Rs), 4) and back.shape == (len(Rs), 3, 3)
    for i in range(len(Rs)):
        np.testing.assert_array_equal(q[i], quat_from_rotation(Rs[i]))
        np.testing.assert_array_equal(back[i], rotation_from_quat(q[i]))
        assert q[i, 0] >= 0.0
        np.testing.assert_allclose(back[i], Rs[i], atol=1e-14)

