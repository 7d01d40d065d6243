from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import oracle
from oracle import (
    grid_extrinsics,
    ideal_body_measurements,
    ideal_imu_series,
    log_so3,
    quat_conjugate,
    quat_from_rotvec,
    quat_multiply,
    quat_rotate,
    sample_trajectory,
    simulate_imu,
    still_trajectory,
)

from mimufusion.csvio import load_yaml
from mimufusion.geometry import quat_from_rotation, rotation_from_quat
from mimufusion.simulation import (
    SimConfig,
    TrajectoryParams,
    TrajectorySample,
    _level_variances,
    apply_measurement_noise,
    apply_measurement_noise_stack,
    grid_mounts,
    ideal_imu_series_stack,
    innovation_weights,
    perturb_extrinsics,
    transfer_measurement,
    trajectory_samples,
)
from mimufusion.types import Extrinsic, NoiseSpec


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STILL = SimConfig(freq=200.0, duration=2.0, trajectory=still_trajectory())


def test_still_trajectory_is_static():
    s = sample_trajectory(STILL, 0.7)
    np.testing.assert_array_equal(s.rotation, np.eye(3))
    np.testing.assert_array_equal(s.velocity, np.zeros(3))
    np.testing.assert_array_equal(s.acceleration, np.zeros(3))
    np.testing.assert_array_equal(s.omega, np.zeros(3))
    np.testing.assert_array_equal(s.omega_dot, np.zeros(3))


def test_velocity_matches_position_derivative():
    cfg = SimConfig(freq=200.0, duration=10.0)
    h = 1e-5
    for t in [0.3, 1.7, 4.9, 8.23]:
        lo = sample_trajectory(cfg, t - h)
        hi = sample_trajectory(cfg, t + h)
        mid = sample_trajectory(cfg, t)
        fd = (hi.position - lo.position) / (2 * h)
        np.testing.assert_allclose(mid.velocity, fd, atol=1e-6)


def test_acceleration_matches_velocity_derivative():
    cfg = SimConfig(freq=200.0, duration=10.0)
    h = 1e-5
    for t in [0.5, 2.2, 6.1]:
        lo = sample_trajectory(cfg, t - h)
        hi = sample_trajectory(cfg, t + h)
        mid = sample_trajectory(cfg, t)
        fd = (hi.velocity - lo.velocity) / (2 * h)
        np.testing.assert_allclose(mid.acceleration, fd, atol=1e-6)


def test_omega_matches_rotation_derivative():
    """Body rate is the tangent of R(t)^T R(t+h), to O(h^2)."""
    cfg = SimConfig(freq=200.0, duration=10.0)
    h = 1e-6
    for t in [0.4, 3.3, 7.8]:
        lo = sample_trajectory(cfg, t - h)
        hi = sample_trajectory(cfg, t + h)
        mid = sample_trajectory(cfg, t)
        fd = log_so3(lo.rotation.T @ hi.rotation) / (2 * h)
        np.testing.assert_allclose(mid.omega, fd, atol=1e-5)


def test_omega_dot_matches_omega_derivative():
    cfg = SimConfig(freq=200.0, duration=10.0)
    h = 1e-5
    for t in [0.6, 2.9, 5.4]:
        lo = sample_trajectory(cfg, t - h)
        hi = sample_trajectory(cfg, t + h)
        mid = sample_trajectory(cfg, t)
        fd = (hi.omega - lo.omega) / (2 * h)
        np.testing.assert_allclose(mid.omega_dot, fd, atol=1e-6)


def test_static_body_reads_reaction_to_gravity():
    s = sample_trajectory(STILL, 1.0)
    w, f = ideal_body_measurements(s, STILL.gravity)
    np.testing.assert_array_equal(w, np.zeros(3))
    np.testing.assert_allclose(f, [0.0, 0.0, 9.81], atol=1e-12)


def test_free_fall_reads_zero():
    cfg = SimConfig(freq=200.0, duration=2.0, gravity=(0.0, 0.0, 0.0),
                    trajectory=still_trajectory())
    s = sample_trajectory(cfg, 0.5)
    _, f = ideal_body_measurements(s, cfg.gravity)
    np.testing.assert_allclose(f, np.zeros(3), atol=1e-15)


def test_circular_motion_centripetal():
    """Unit circle at 1 rad/s: specific force is 1 m/s^2 inward."""
    traj = TrajectoryParams(
        pos_amplitude=(1.0, 1.0, 0.0),
        pos_frequency=(1.0 / (2 * np.pi), 1.0 / (2 * np.pi), 0.0),
        pos_phase=(np.pi / 2, 0.0, 0.0),  # x = cos t, y = sin t
        euler_amplitude=(0.0, 0.0, 0.0),
        euler_frequency=(0.0, 0.0, 0.0),
        euler_phase=(0.0, 0.0, 0.0),
    )
    cfg = SimConfig(freq=100.0, duration=10.0, gravity=(0.0, 0.0, 0.0),
                    trajectory=traj)
    for t in [0.0, 1.3, 4.0]:
        s = sample_trajectory(cfg, t)
        _, f = ideal_body_measurements(s, cfg.gravity)
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(f, -s.position, atol=1e-12)


def test_transfer_identity_passthrough():
    rng = np.random.default_rng(21)
    w = rng.normal(size=3)
    wd = rng.normal(size=3)
    a = rng.normal(size=3)
    wb, ab = transfer_measurement(w[None], wd[None], a[None], [np.eye(3)], [np.zeros(3)])
    np.testing.assert_allclose(wb, [[w]], atol=1e-15)
    np.testing.assert_allclose(ab, [[a]], atol=1e-15)


def test_transfer_centripetal_lever():
    # spin about z, sensor 1 m out on x: reads -1 m/s^2 on x
    wb, ab = transfer_measurement([[0.0, 0.0, 1.0]], np.zeros((1, 3)), np.zeros((1, 3)),
                                  [np.eye(3)], [[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(wb, [[[0.0, 0.0, 1.0]]], atol=1e-15)
    np.testing.assert_allclose(ab, [[[-1.0, 0.0, 0.0]]], atol=1e-15)


def test_transfer_tangential_term():
    # pure angular acceleration: a_B = wdot x p
    _, ab = transfer_measurement(np.zeros((1, 3)), [[0.0, 0.0, 2.0]], np.zeros((1, 3)),
                                 [np.eye(3)], [[0.0, 0.5, 0.0]])
    np.testing.assert_allclose(ab, [[[-1.0, 0.0, 0.0]]], atol=1e-15)


def test_mounted_series_consistent_with_transfer():
    """Series of a second mount must equal the first mount's series pushed
    through the relative extrinsic."""
    cfg = SimConfig(freq=100.0, duration=2.0)
    rng = np.random.default_rng(22)
    qa = quat_from_random(rng)
    qb = quat_from_random(rng)
    pa = rng.normal(size=3) * 0.1
    pb = rng.normal(size=3) * 0.1
    mount_a = Extrinsic(q=qa, p=pa)
    mount_b = Extrinsic(q=qb, p=pb)

    wa, aa = ideal_imu_series(cfg, mount_a)
    wb, ab = ideal_imu_series(cfg, mount_b)

    rel = Extrinsic(q=quat_multiply(qb, quat_conjugate(qa)),
                    p=quat_rotate(qa, pb - pa))
    samples = trajectory_samples(cfg, cfg.times())
    wdot_a = np.array([quat_rotate(qa, s.omega_dot) for s in samples])
    wb_pred, ab_pred = transfer_measurement(wa, wdot_a, aa, rel.rotation()[None],
                                            rel.p[None])
    np.testing.assert_allclose(wb_pred[0], wb, atol=1e-10)
    np.testing.assert_allclose(ab_pred[0], ab, atol=1e-10)


def quat_from_random(rng):
    return quat_from_rotvec(rng.normal(size=3))


def test_sample_count():
    cfg = SimConfig(freq=200.0, duration=60.0)
    assert cfg.sample_count == 12000
    assert len(cfg.times()) == 12000


@pytest.mark.parametrize("field", ["freq", "duration"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_sim_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        SimConfig(**{field: value})


def test_trajectory_samples_pick_instants_like_one_time_evaluations():
    """Instant i of one evaluation, by index or by iteration, holds bit
    for bit what an evaluation at ts[i] alone gives, without the time
    axis; a slice holds what an evaluation at those times gives."""
    cfg = SimConfig(freq=200.0, duration=10.0)
    ts = np.concatenate([np.linspace(0.0, 10.0, 37), [0.1234, 9.999]])
    samples = trajectory_samples(cfg, ts)
    assert len(list(samples)) == len(ts)
    for i, s in enumerate(samples):
        alone = trajectory_samples(cfg, ts[i:i + 1])
        for f in fields(TrajectorySample):
            want = getattr(alone, f.name)[0]
            assert np.array_equal(getattr(samples[i], f.name), want), f.name
            assert np.array_equal(getattr(s, f.name), want), f.name
    part = trajectory_samples(cfg, ts[3:8])
    for f in fields(TrajectorySample):
        assert np.array_equal(getattr(samples[3:8], f.name), getattr(part, f.name))


def test_ideal_stack_matches_per_mount_series():
    """The mount stack evaluates the trajectory once and gives every
    mount the same bits as evaluating it for that mount alone."""
    cfg = SimConfig(freq=200.0, duration=3.0)
    rng = np.random.default_rng(5)
    extra = Extrinsic(q=quat_from_random(rng), p=rng.normal(size=3))
    rotations, positions = (np.concatenate([x, y[None]]) for x, y in
                            zip(grid_mounts(), (extra.rotation(), extra.p)))
    stack = ideal_imu_series_stack(cfg, rotations, positions)
    assert stack.shape == (10, 2, cfg.sample_count, 3)
    for i, mount in enumerate(grid_extrinsics() + [extra]):
        assert np.array_equal(stack[i], np.array(ideal_imu_series(cfg, mount)))


def test_static_noiseless_series():
    series = simulate_imu(STILL, Extrinsic(), NoiseSpec.zero(), seed=0)
    np.testing.assert_allclose(series.gyro, np.zeros_like(series.gyro),
                               atol=1e-15)
    np.testing.assert_allclose(series.accel,
                               np.tile([0.0, 0.0, 9.81], (len(series), 1)),
                               atol=1e-12)


def test_white_noise_scaling():
    n = 100_000
    freq = 200.0
    rng = np.random.default_rng(23)
    noise = NoiseSpec(sigma_g=1.7e-4, sigma_a=2.0e-3, sigma_bg=0.0,
                      sigma_ba=0.0)
    g, a = apply_measurement_noise(np.zeros((n, 3)), np.zeros((n, 3)),
                                   noise, freq, rng)
    assert np.std(g) == pytest.approx(1.7e-4 * np.sqrt(freq), rel=0.05)
    assert np.std(a) == pytest.approx(2.0e-3 * np.sqrt(freq), rel=0.05)


def test_bias_walk_variance_growth():
    """Var of the walk after k steps is k sigma_b^2 / freq."""
    freq = 100.0
    n = 64
    sigma_bg = 1e-3
    noise = NoiseSpec(sigma_g=0.0, sigma_a=0.0, sigma_bg=sigma_bg, sigma_ba=0.0)
    rng = np.random.default_rng(24)
    last = np.empty(1000)
    for i in range(1000):
        g, _ = apply_measurement_noise(np.zeros((n, 3)), np.zeros((n, 3)),
                                       noise, freq, rng)
        last[i] = g[-1, 0]
    expected = (n - 1) * sigma_bg**2 / freq
    assert np.var(last) == pytest.approx(expected, rel=0.10)
    # the first sample carries no walk yet
    assert g[0, 0] == 0.0


def test_initial_bias_offsets_first_sample():
    noise = NoiseSpec(sigma_g=0.0, sigma_a=0.0, sigma_bg=0.0, sigma_ba=0.0,
                      initial_bias_g=(0.01, -0.02, 0.03),
                      initial_bias_a=(0.1, 0.0, -0.1))
    rng = np.random.default_rng(0)
    g, a = apply_measurement_noise(np.zeros((5, 3)), np.zeros((5, 3)),
                                   noise, 200.0, rng)
    np.testing.assert_allclose(g, np.tile([0.01, -0.02, 0.03], (5, 1)))
    np.testing.assert_allclose(a, np.tile([0.1, 0.0, -0.1], (5, 1)))


NOISE_CASES = {
    "zero": NoiseSpec.zero(),
    "default": NoiseSpec(),
    "biased": NoiseSpec(sigma_g=3e-3, sigma_a=2e-2, sigma_bg=1e-3, sigma_ba=4e-3,
                        initial_bias_g=(0.01, -0.02, -0.0),
                        initial_bias_a=(0.1, 0.0, -0.3)),
}


def assert_noise_close(got, want):
    """The library's noise pass against the per-sample oracle: the
    closed-form schedule and the regrouped sums differ from the
    oracle's loop by round-off only."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
@pytest.mark.parametrize("n", [2, 3, 600])
def test_noise_pass_matches_four_draw_oracle(n, case):
    """One (2, n, 9, 3) draw per trial and one pass over its sensors, in
    place in a trial's slot of the harness's (trial, gyro/accel, sample,
    sensor, axis) layout with weights built once, give for each sensor
    the per-sample innovations oracle's samples of its slice of the
    draw; the one-sensor form, which builds its own weights, gives a
    sensor's samples from its slice bit for bit.
    (The four-draw oracle has the same distribution, not the same
    values: see test_noise_covariance_matches_the_model.)"""
    noise = NOISE_CASES[case]
    ideal = np.random.default_rng(n).normal(size=(2, n, 9, 3))
    e = np.random.default_rng(n).standard_normal((2, n, 9, 3))
    want = np.stack([oracle.innovations_noise(*ideal[:, :, i], noise, 200.0,
                                              oracle.Replay(e[:, :, i]))
                     for i in range(9)], axis=2)
    level = np.full((2, n, 9, 3), np.nan)  # reused scratch: nothing may leak
    raw = np.full((3, 2, n, 9, 3), np.nan)
    got = apply_measurement_noise_stack(ideal, noise, 200.0, np.random.default_rng(n),
                                        out=raw[1], level=level,
                                        weights=innovation_weights(noise, 200.0, n))
    assert np.shares_memory(got, raw[1])
    assert np.isnan(raw[[0, 2]]).all()
    assert_noise_close(got, want)
    for i in (0, 4, 8):
        g, a = apply_measurement_noise(*ideal[:, :, i], noise, 200.0,
                                       oracle.Replay(e[:, :, i]))
        assert np.array_equal(g, got[0, :, i]) and np.array_equal(a, got[1, :, i])


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_one_sensor_noise_is_the_stacked_form_bit_for_bit(case):
    """On one (2, n, 3) block from the same seed, the one-sensor entry
    point and the stacked form, with its own weights or with weights
    built once, give the same bits."""
    noise = NOISE_CASES[case]
    ideal = np.random.default_rng(3).normal(size=(2, 600, 3))
    g, a = apply_measurement_noise(*ideal, noise, 200.0, np.random.default_rng(9))
    for weights in (None, innovation_weights(noise, 200.0, 600)):
        got = apply_measurement_noise_stack(ideal, noise, 200.0,
                                            np.random.default_rng(9), weights=weights)
        assert np.array_equal(g, got[0]) and np.array_equal(a, got[1])


def test_one_sensor_noise_consumes_the_stream_like_the_oracle():
    """Calls sharing one Generator (as criterion 6 makes them) read the
    same stream as the oracle's one (2, n, 3) draw per call."""
    ideal = np.random.default_rng(5).normal(size=(2, 50, 3))
    rngs = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(3):
        want = oracle.innovations_noise(*ideal, NoiseSpec(), 200.0, rngs[0])
        got = apply_measurement_noise(*ideal, NoiseSpec(), 200.0, rngs[1])
        assert_noise_close(got, want)


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_simulate_imu_unchanged_by_noise_pass(case):
    cfg = SimConfig(freq=200.0, duration=1.0, seed=17)
    mount = Extrinsic(p=np.array([0.05, -0.02, 0.01]))
    series = simulate_imu(cfg, mount, NOISE_CASES[case])
    g, a = oracle.innovations_noise(*ideal_imu_series(cfg, mount),
                                    NOISE_CASES[case], cfg.freq,
                                    np.random.default_rng(17))
    assert_noise_close(series.gyro, g)
    assert_noise_close(series.accel, a)


def test_zero_noise_returns_ideal_plus_initial_bias():
    noise = NOISE_CASES["biased"]
    zero = NoiseSpec(sigma_g=0.0, sigma_a=0.0, sigma_bg=0.0, sigma_ba=0.0,
                     initial_bias_g=noise.initial_bias_g,
                     initial_bias_a=noise.initial_bias_a)
    ideal = np.random.default_rng(8).normal(size=(2, 7, 4, 3))
    got = apply_measurement_noise_stack(ideal, zero, 200.0, np.random.default_rng(0))
    bias = np.array([zero.initial_bias_g, zero.initial_bias_a])[:, None, None]
    assert np.array_equal(got, ideal + bias)


# Densities of the shipped configs: the desk plan's noise block and the
# noise YAML of the README pipeline.
def _config_noise(name):
    d = load_yaml(CONFIGS / name)
    return NoiseSpec.from_dict(d.get("noise", d))


SCHEDULE_NOISES = {"plan_desk": lambda: _config_noise("plan_desk.yaml"),
                   "noise_mems": lambda: _config_noise("noise_mems.yaml"),
                   "biased": lambda: NOISE_CASES["biased"]}


@pytest.mark.parametrize("row", ["gyro", "accel"])
@pytest.mark.parametrize("name", sorted(SCHEDULE_NOISES))
@pytest.mark.parametrize("n", [600, 120_000])
def test_closed_form_schedule_matches_riccati_loop(n, name, row):
    """The closed-form level variances give the loop's innovation
    variances and gains within 1e-12 relative over every sample."""
    noise = SCHEDULE_NOISES[name]()
    sigma, sigma_b = ((noise.sigma_g, noise.sigma_bg) if row == "gyro"
                      else (noise.sigma_a, noise.sigma_ba))
    freq = 200.0
    var_w, q = sigma**2 * freq, sigma_b**2 / freq
    s_loop, k_loop = oracle.riccati_schedule(var_w, q, n)
    P = _level_variances(var_w, q, np.empty(n))
    np.testing.assert_allclose(P + var_w, s_loop, rtol=1e-12, atol=0)
    np.testing.assert_allclose(P / (P + var_w), k_loop, rtol=1e-12, atol=0)


def test_noise_covariance_matches_the_model():
    """Over 20,000 draws of a 6-sample series with a walk as large as the
    white noise, the sample covariance of the library's noise matches
    var_w delta_ik + q min(i, k) and the four-draw oracle's sample
    covariance, each within five Monte-Carlo standard errors."""
    n, draws, freq = 6, 20_000, 1.0
    noise = NoiseSpec(sigma_g=0.5, sigma_a=0.5, sigma_bg=0.6, sigma_ba=0.6)
    var_w, q = 0.25, 0.36
    k = np.arange(n)
    model = var_w * np.eye(n) + q * np.minimum.outer(k, k)
    rng = np.random.default_rng(31)
    got = apply_measurement_noise_stack(np.zeros((2, n, draws, 3)), noise, freq, rng)
    series = got.transpose(2, 0, 3, 1).reshape(-1, n)  # 6 series per draw
    want = np.concatenate([
        np.concatenate(oracle.apply_measurement_noise(
            np.zeros((n, 3)), np.zeros((n, 3)), noise, freq, rng), axis=1).T
        for _ in range(draws)])
    # standard error of a covariance entry of zero-mean Gaussians
    se = np.sqrt((np.outer(np.diag(model), np.diag(model)) + model**2)
                 / len(series))
    cov_got, cov_want = (x.T @ x / len(x) for x in (series, want))
    for cov in (cov_got, cov_want):
        assert np.all(np.abs(cov - model) < 5 * se), (cov - model) / se
    se_diff = se * np.sqrt(1 + len(series) / len(want))
    assert np.all(np.abs(cov_got - cov_want) < 5 * se_diff)


def test_simulate_seed_reproducible():
    cfg = SimConfig(freq=200.0, duration=1.0, seed=42)
    mount = Extrinsic(p=np.array([0.05, 0.0, 0.0]))
    s1 = simulate_imu(cfg, mount, NoiseSpec())
    s2 = simulate_imu(cfg, mount, NoiseSpec())
    np.testing.assert_array_equal(s1.gyro, s2.gyro)
    np.testing.assert_array_equal(s1.accel, s2.accel)
    s3 = simulate_imu(cfg, mount, NoiseSpec(), seed=43)
    assert not np.array_equal(s1.gyro, s3.gyro)


def test_perturb_zero_sigma_is_identity_map():
    q = np.array([[0.9689124217106447, 0.0, 0.0, 0.2474039592545229]])
    positions = np.array([[0.1, -0.2, 0.3]])
    R, p = perturb_extrinsics(rotation_from_quat(q), positions, 0.0, 0.0,
                              np.random.default_rng(5))
    np.testing.assert_allclose(quat_from_rotation(R), q, atol=1e-15)
    np.testing.assert_array_equal(p, positions)


def test_perturb_statistics():
    sigma_rot = 0.01
    sigma_trans = 0.001
    rng = np.random.default_rng(26)
    positions = np.broadcast_to([0.05, 0.0, 0.0], (10_000, 3))
    R, p = perturb_extrinsics(np.broadcast_to(np.eye(3), (10_000, 3, 3)), positions,
                              sigma_rot, sigma_trans, rng)
    rots = log_so3(R)
    trans = p - positions
    np.testing.assert_allclose(rots.std(axis=0), sigma_rot, rtol=0.05)
    np.testing.assert_allclose(trans.std(axis=0), sigma_trans, rtol=0.05)
    np.testing.assert_allclose(rots.mean(axis=0), 0.0, atol=5e-4)


def test_perturb_rejects_negative_sigma():
    with pytest.raises(ValueError):
        perturb_extrinsics(np.eye(3)[None], np.zeros((1, 3)), -0.01, 0.0,
                           np.random.default_rng(0))


@pytest.mark.parametrize("sigmas", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0),
                                    (0.0, -np.inf)])
def test_perturb_rejects_non_finite_sigma(sigmas):
    with pytest.raises(ValueError, match="finite"):
        perturb_extrinsics(np.eye(3)[None], np.zeros((1, 3)), *sigmas,
                           np.random.default_rng(0))


def test_perturb_matches_per_mount_quaternion_composition():
    """The stacked draw over the grid is the oracle's mount-by-mount
    composition q * q{delta}, two standard_normal(3) draws per mount:
    rotations to 1e-15, origins bit for bit, and the generator is left
    in the same state."""
    stacked, per_mount = np.random.default_rng(27), np.random.default_rng(27)
    R, p = perturb_extrinsics(*grid_mounts(), 0.01, 0.001, stacked)
    want = [oracle.perturb_extrinsic(m, 0.01, 0.001, per_mount) for m in grid_extrinsics()]
    np.testing.assert_allclose(R, rotation_from_quat([w.q for w in want]),
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(p, [w.p for w in want])
    assert stacked.standard_normal() == per_mount.standard_normal()


def test_grid_mounts_layout():
    rotations, positions = grid_mounts()
    assert positions.shape == (9, 3)
    np.testing.assert_allclose(positions.mean(axis=0), np.zeros(3), atol=1e-15)
    # row-major: first row spans x at fixed lowest y
    np.testing.assert_allclose(positions[0], [-0.05, -0.05, 0.0])
    np.testing.assert_allclose(positions[1], [0.0, -0.05, 0.0])
    np.testing.assert_allclose(positions[2], [0.05, -0.05, 0.0])
    np.testing.assert_allclose(positions[4], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(positions[8], [0.05, 0.05, 0.0])
    np.testing.assert_array_equal(rotations, np.broadcast_to(np.eye(3), (9, 3, 3)))
    # neighbours in a row are one pitch apart
    assert np.linalg.norm(positions[1] - positions[0]) == pytest.approx(0.05)


def test_trajectory_range_check():
    cfg = SimConfig(freq=200.0, duration=2.0)
    with pytest.raises(ValueError):
        sample_trajectory(cfg, -0.1)
    with pytest.raises(ValueError):
        sample_trajectory(cfg, 2.5)
    with pytest.raises(ValueError):
        sample_trajectory(cfg, float("nan"))
    with pytest.raises(ValueError):
        trajectory_samples(cfg, [0.5, float("nan")])
    for ts in (0.5, [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="1-d array"):
            trajectory_samples(cfg, ts)
