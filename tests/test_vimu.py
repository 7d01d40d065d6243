import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    array_frame,
    centred_config,
    general_solves,
    grid_extrinsics,
    identity_delta,
    ideal_body_measurements,
    lever_arm_stack,
    propagate_step,
    quat_from_rotvec,
    sample_trajectory,
    simulate_imu,
    single_frame,
    virtual_bias,
)

from mimufusion.errors import FormatError, LengthMismatch, RateMismatch, SingularFusion
from mimufusion.geometry import exp_so3, quat_from_rotation
from mimufusion.preintegration import preintegrate_stack
from mimufusion.simulation import (
    SimConfig,
    apply_measurement_noise,
    ideal_imu_series_stack,
    transfer_measurement,
)
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec
from mimufusion.vimu import (
    VimuConfig,
    VimuNoise,
    _fused_rows,
    _fusion_matrices,
    _weights,
    accel_centroid,
    centroid_frame,
    fuse_series,
    virtual_covariances,
)


MEMS = NoiseSpec()
FREQ = 200.0


def fuse_one(cfg, omegas, accels=None):
    """Fuse one instant of per-sensor readings (n, 3) through
    fuse_series: three equal samples, of which it keeps the middle one.
    Returns the fused (gyro, accel) of that sample."""
    omegas = np.asarray(omegas, dtype=float)
    accels = np.zeros_like(omegas) if accels is None else np.asarray(accels, dtype=float)
    series = [ImuSeries(freq=FREQ, start_ns=0, gyro=np.tile(w, (3, 1)),
                        accel=np.tile(a, (3, 1))) for w, a in zip(omegas, accels)]
    fused = fuse_series(cfg, series)
    assert len(fused) == 1
    return fused.gyro[0], fused.accel[0]


def colocated_pair(sigma_g_a=1.7e-4, sigma_g_b=1.7e-4,
                   sigma_a_a=2e-3, sigma_a_b=2e-3):
    return VimuConfig(
        rotations=(np.eye(3), np.eye(3)),
        positions=(np.zeros(3), np.zeros(3)),
        noises=(NoiseSpec(sigma_g=sigma_g_a, sigma_a=sigma_a_a),
                NoiseSpec(sigma_g=sigma_g_b, sigma_a=sigma_a_b)),
    )


def test_midpoint_identity_extrinsic():
    cfg = centroid_frame(Extrinsic(), MEMS, MEMS)
    np.testing.assert_array_equal(cfg.positions[0], np.zeros(3))
    np.testing.assert_array_equal(cfg.positions[1], np.zeros(3))
    np.testing.assert_array_equal(cfg.rotations[0], np.eye(3))
    np.testing.assert_array_equal(cfg.rotations[1], np.eye(3))


def test_midpoint_splits_lever():
    """An equal noise pair's centroid frame is the midpoint."""
    ext = Extrinsic(p=np.array([0.12, 0.0, 0.0]))
    cfg = centroid_frame(ext, MEMS, MEMS)
    np.testing.assert_allclose(cfg.positions[0], [-0.06, 0.0, 0.0])
    np.testing.assert_allclose(cfg.positions[1], [0.06, 0.0, 0.0])


def test_centroid_frame_weights_the_pair_by_inverse_accel_variance():
    """With B's sigma_a four times A's, A weighs 16/17 and B 1/17: the
    frame sits 1/17 of the way from A to B, with A's axes and B's full
    relative rotation."""
    ext = Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.05]), p=np.array([0.1, 0.02, -0.01]))
    cfg = centroid_frame(ext, MEMS, NoiseSpec(sigma_a=4 * MEMS.sigma_a))
    np.testing.assert_allclose(cfg.positions[0], -ext.p / 17, rtol=1e-14)
    np.testing.assert_allclose(cfg.positions[1], 16 * ext.p / 17, rtol=1e-14)
    np.testing.assert_array_equal(cfg.rotations[0], np.eye(3))
    np.testing.assert_allclose(cfg.rotations[1], ext.rotation(), atol=1e-15)
    np.testing.assert_allclose(accel_centroid(cfg.positions, cfg.noises), np.zeros(3),
                               atol=1e-17)


def test_accel_centroid_weights_exact_sensors_equally():
    positions = np.array([[0.1, 0.0, 0.0], [0.0, 0.3, 0.0]])
    np.testing.assert_array_equal(
        accel_centroid(positions, (NoiseSpec.zero(), NoiseSpec.zero())), [0.05, 0.15, 0.0])


@pytest.mark.parametrize("shift", [1e-6, 0.01])
def test_config_rejects_positions_off_the_accel_centroid(shift):
    """Positions whose weighted centroid is not the origin are rejected,
    and a sidecar block holding them fails with a FormatError naming
    positions_m; round-off of the centroid itself passes."""
    cfg = centroid_frame(Extrinsic(p=np.array([0.1, 0.0, 0.0])), MEMS,
                         NoiseSpec(sigma_a=4 * MEMS.sigma_a))
    moved = (cfg.positions[0] + [0.0, shift, 0.0], cfg.positions[1])
    with pytest.raises(ValueError, match="positions_m must have their"):
        VimuConfig(rotations=cfg.rotations, positions=moved, noises=cfg.noises)
    d = cfg.to_dict()
    d["positions_m"][0][1] += shift
    with pytest.raises(FormatError, match="positions_m"):
        VimuConfig.from_dict(d)
    VimuConfig(rotations=cfg.rotations, noises=cfg.noises,
               positions=(cfg.positions[0] * (1 + 1e-15), cfg.positions[1]))


def test_midpoint_random_extrinsics_consistent():
    rng = np.random.default_rng(40)
    for _ in range(100):
        ext = Extrinsic(q=quat_from_rotvec(rng.normal(size=3)),
                        p=rng.normal(size=3) * 0.3)
        cfg = centroid_frame(ext, MEMS, MEMS)
        # sensor B's frame relative to the virtual frame is the full
        # relative rotation; with equal noise the two sensors sit at +-p/2
        np.testing.assert_allclose(cfg.rotations[1], ext.rotation(),
                                   atol=1e-12)
        np.testing.assert_allclose(cfg.positions[1] - cfg.positions[0],
                                   ext.p, atol=1e-15)
        np.testing.assert_allclose(cfg.positions[0] + cfg.positions[1],
                                   np.zeros(3), atol=1e-15)


def test_single_frame_passthrough():
    cfg = single_frame(MEMS)
    w = np.array([[0.1, -0.2, 0.3]])
    np.testing.assert_allclose(fuse_one(cfg, w)[0], w[0], atol=1e-14)


def test_config_rejects_bad_rotation():
    with pytest.raises(ValueError):
        VimuConfig(rotations=(np.eye(3) * 2.0,), positions=(np.zeros(3),),
                   noises=(MEMS,))


def test_config_dict_round_trip():
    ext = Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.0]),
                    p=np.array([0.1, 0.0, 0.0]))
    cfg = centroid_frame(ext, MEMS, NoiseSpec(sigma_g=3e-4))
    back = VimuConfig.from_dict(cfg.to_dict())
    assert len(back.rotations) == 2
    np.testing.assert_allclose(back.rotations[1], cfg.rotations[1])
    np.testing.assert_allclose(back.positions[0], cfg.positions[0])
    assert back.noises[1].sigma_g == 3e-4


def test_fuse_gyro_consensus():
    cfg = colocated_pair()
    w = np.array([0.3, -0.1, 0.7])
    np.testing.assert_allclose(fuse_one(cfg, [w, w])[0], w, atol=1e-14)


def test_fuse_gyro_equal_noise_averages():
    cfg = colocated_pair()
    out, _ = fuse_one(cfg, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-14)


def test_fuse_gyro_weights_follow_noise():
    # B is a million times noisier: the fused rate is essentially A's
    cfg = colocated_pair(sigma_g_b=1.7e-4 * 1e6)
    out, _ = fuse_one(cfg, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-9)


def test_fusion_matrices_left_inverse():
    """_fused_rows recovers x from the stacked samples R_i x of any
    rotated array with unequal noise, fused row t from raw row t + 1."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        rotations = exp_so3(rng.normal(size=(n, 3)))
        noises = [NoiseSpec(sigma_g=float(rng.uniform(1e-4, 1e-3)),
                            sigma_a=float(rng.uniform(1e-3, 1e-2))) for _ in range(n)]
        x = rng.normal(size=(6, 3))
        stack = np.einsum("nij,kj->kni", rotations, x)
        fused_w, fused_a = _fused_rows(stack, stack, _fusion_matrices(rotations, noises, n), 5)
        np.testing.assert_allclose(fused_w, x[1:], rtol=0, atol=1e-14)
        np.testing.assert_allclose(fused_a, x[1:], rtol=0, atol=1e-14)


@pytest.mark.parametrize("sigma_a, sigma_b", [(1e-200, 1e-100), (1e150, 1e160),
                                              (1e-160, 1e160)])
def test_extreme_noise_ratio_fuses_to_the_quieter_sensor(sigma_a, sigma_b):
    """However far apart two finite positive sigmas are, their weights
    and every virtual density stay finite: the fused rate is the quieter
    sensor A's."""
    noise_a, noise_b = (NoiseSpec(sigma_g=s, sigma_a=s, sigma_bg=s, sigma_ba=s)
                        for s in (sigma_a, sigma_b))
    ext = Extrinsic(q=quat_from_rotvec([0.3, -0.1, 0.2]), p=np.array([0.1, 0.0, 0.0]))
    cfg = centroid_frame(ext, noise_a, noise_b)
    w_a = np.array([0.3, -0.2, 0.5])
    out, _ = fuse_one(cfg, [w_a, ext.rotation() @ [-1.0, 2.0, 0.7]])
    np.testing.assert_allclose(out, w_a, rtol=0, atol=1e-12)
    for key, q in virtual_covariances(cfg.noises).to_dict().items():
        assert np.isfinite(q).all(), key


def test_equal_noise_weighs_each_sensor_exactly_one_over_n():
    """Equal sigmas give weights of exactly 1/n, and their accel centroid
    is the plain mean of the origins, to the last bit."""
    rng = np.random.default_rng(44)
    for n in range(1, 10):
        np.testing.assert_array_equal(_weights([2e-3] * n), np.full(n, 1.0 / n))
        positions = rng.normal(size=(n, 3))
        np.testing.assert_array_equal(accel_centroid(positions, (MEMS,) * n),
                                      positions.sum(axis=0) / n)


def test_zero_sigma_all_exact_is_allowed():
    cfg = VimuConfig(rotations=(np.eye(3), np.eye(3)),
                     positions=(np.zeros(3), np.zeros(3)),
                     noises=(NoiseSpec.zero(), NoiseSpec.zero()))
    out, _ = fuse_one(cfg, [[0.2, 0.0, 0.0], [0.4, 0.0, 0.0]])
    np.testing.assert_allclose(out, [0.3, 0.0, 0.0], atol=1e-15)


def test_mixed_zero_sigma_rejected():
    """Mixing exact and noisy accels has no weighted centroid, and mixed
    gyros have no weights either, so the config itself is rejected."""
    for odd in (NoiseSpec.zero(), NoiseSpec(sigma_g=0.0)):
        with pytest.raises(SingularFusion):
            VimuConfig(rotations=(np.eye(3), np.eye(3)),
                       positions=(np.zeros(3), np.zeros(3)),
                       noises=(odd, MEMS))


def test_lever_stack_colocated_zero():
    cfg = colocated_pair()
    out = lever_arm_stack(cfg, np.array([0.5, -0.2, 0.3]),
                          np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, np.zeros(6), atol=1e-15)


def test_lever_stack_centripetal_block():
    ext = Extrinsic(p=np.array([0.12, 0.0, 0.0]))
    cfg = centroid_frame(ext, MEMS, MEMS)
    out = lever_arm_stack(cfg, np.array([0.0, 0.0, 1.0]), np.zeros(3))
    # sensor A sits at (-0.06, 0, 0); spinning about z pulls it toward
    # the center: +0.06 m/s^2 on x
    np.testing.assert_allclose(out[:3], [0.06, 0.0, 0.0], atol=1e-15)


def test_fuse_accel_colocated_average():
    cfg = colocated_pair()
    _, out = fuse_one(cfg, np.zeros((2, 3)), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(out, [0.5, 0.0, 0.5], atol=1e-14)


def test_fuse_accel_static_gravity():
    ext = Extrinsic(p=np.array([0.1, 0.0, 0.0]))
    cfg = centroid_frame(ext, MEMS, MEMS)
    g_reading = np.array([0.0, 0.0, 9.81])
    _, out = fuse_one(cfg, np.zeros((2, 3)), [g_reading, g_reading])
    np.testing.assert_allclose(out, g_reading, atol=1e-12)


def test_fuse_accel_dynamic_matches_virtual_ideal():
    """Fusing noiseless rigid readings reproduces the ideal measurement at
    the virtual frame."""
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(5.0), 0.0]),
                    p=np.array([0.12, 0.0, 0.0]))
    vcfg = centroid_frame(ext, MEMS, MEMS)
    for t in [0.1, 0.45, 0.9]:
        s = sample_trajectory(cfg_sim, t)
        w_v, f_v = ideal_body_measurements(s, cfg_sim.gravity)
        # the virtual frame is at -p/2 relative to sensor A; mount both
        # sensors relative to it
        readings_w, readings_a = transfer_measurement(
            w_v[None], s.omega_dot[None], f_v[None], vcfg.rotations, vcfg.positions)
        fused_w, fused_a = fuse_one(vcfg, readings_w[:, 0], readings_a[:, 0])
        np.testing.assert_allclose(fused_w, w_v, atol=1e-9)
        np.testing.assert_allclose(fused_a, f_v, atol=1e-9)


def test_virtual_covariance_equal_pair_halves():
    cfg = colocated_pair()
    noise = virtual_covariances(cfg.noises)
    np.testing.assert_allclose(noise.gyro, 0.5 * 1.7e-4**2 * np.eye(3),
                               atol=1e-20)
    np.testing.assert_allclose(noise.accel, 0.5 * 2e-3**2 * np.eye(3),
                               atol=1e-18)


def test_virtual_covariance_product_formula():
    sa, sb = 1.7e-4, 4.1e-4
    cfg = colocated_pair(sigma_g_a=sa, sigma_g_b=sb)
    noise = virtual_covariances(cfg.noises)
    expected = sa**2 * sb**2 / (sa**2 + sb**2)
    np.testing.assert_allclose(noise.gyro, expected * np.eye(3), rtol=1e-12)


def test_virtual_covariance_extreme_ratio():
    sa = 1.7e-4
    cfg = colocated_pair(sigma_g_a=sa, sigma_g_b=sa * 1e6)
    noise = virtual_covariances(cfg.noises)
    np.testing.assert_allclose(noise.gyro, sa**2 * np.eye(3), rtol=1e-6)


def test_virtual_covariance_never_exceeds_best_sensor():
    rng = np.random.default_rng(42)
    for _ in range(20):
        sa = float(rng.uniform(1e-4, 1e-3))
        sb = float(rng.uniform(1e-4, 1e-3))
        cfg = colocated_pair(sigma_g_a=sa, sigma_g_b=sb)
        noise = virtual_covariances(cfg.noises)
        eigs = np.linalg.eigvalsh(noise.gyro)
        assert eigs[-1] <= min(sa, sb) ** 2 + 1e-18


def test_virtual_covariance_monte_carlo():
    """Empirical covariance of fused white noise matches the closed form
    within 5%."""
    ext = Extrinsic(q=quat_from_rotvec([0.0, 0.0, 0.4]),
                    p=np.array([0.1, 0.0, 0.0]))
    cfg = centroid_frame(ext, NoiseSpec(sigma_g=1.7e-4, sigma_bg=0.0),
                         NoiseSpec(sigma_g=3e-4, sigma_bg=0.0))
    noise = virtual_covariances(cfg.noises)
    freq = 200.0
    n = 100_000
    rng = np.random.default_rng(43)
    draws_a = rng.standard_normal((n, 3)) * (1.7e-4 * np.sqrt(freq))
    draws_b = rng.standard_normal((n, 3)) * (3e-4 * np.sqrt(freq))
    fused = fuse_series(cfg, [ImuSeries(freq, 0, draws, np.zeros((n, 3)))
                              for draws in (draws_a, draws_b)])
    sample_cov = np.cov(fused.gyro.T) / freq
    scale = np.max(np.abs(np.diag(noise.gyro)))
    np.testing.assert_allclose(sample_cov, noise.gyro, atol=0.05 * scale)


def test_fused_accel_noise_matches_q_av_for_unequal_pair():
    """The sidecar's Q_aV is the per-sample covariance of the fused accel
    error, Q_aV * freq, for an unequal pair on a moving trajectory: B's
    white sigmas 4x A's, B rotated and 0.1 m from A, fused at the
    centroid frame. Gyro noise is on and does not reach the fused accel
    there. With the frame at the lever arm's midpoint and lever terms
    computed from the noisy gyro, the y and z ratios read 1.27 and 1.29
    on these draws. Each ratio is bound by 5 standard errors of a
    variance over its draws, 5 sqrt(2 / draws)."""
    sim = SimConfig(freq=FREQ, duration=5.0)
    ext = Extrinsic(q=quat_from_rotvec([0.1, 0.3, -0.2]), p=np.array([0.1, 0.0, 0.0]))
    white = NoiseSpec(sigma_bg=0.0, sigma_ba=0.0)
    cfg = centroid_frame(ext, white, NoiseSpec(sigma_g=4 * white.sigma_g,
                                               sigma_a=4 * white.sigma_a,
                                               sigma_bg=0.0, sigma_ba=0.0))
    q_av = virtual_covariances(cfg.noises).accel
    ideal = ideal_imu_series_stack(sim, cfg.rotations, cfg.positions)
    clean = fuse_series(cfg, [ImuSeries(FREQ, 0, w, a) for w, a in ideal])
    rng = np.random.default_rng(3)
    errors = []
    for _ in range(60):
        noisy = [ImuSeries(FREQ, 0, *apply_measurement_noise(w, a, spec, FREQ, rng))
                 for (w, a), spec in zip(ideal, cfg.noises)]
        errors.append(fuse_series(cfg, noisy).accel - clean.accel)
    errors = np.concatenate(errors)
    ratio = np.mean(errors**2, axis=0) / (np.diag(q_av) * FREQ)
    bound = 5.0 * np.sqrt(2.0 / len(errors))
    assert np.all(np.abs(ratio - 1.0) < bound), (ratio, bound)


def test_virtual_bias_average():
    cfg = colocated_pair()
    bg, ba = virtual_bias(cfg, [[0.01, 0.0, 0.0], [0.03, 0.0, 0.0]],
                          [[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    np.testing.assert_allclose(bg, [0.02, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(ba, [0.05, 0.1, 0.0], atol=1e-14)


def make_rigid_series(cfg_sim, vcfg, seeds=None):
    """Simulate each sensor of a virtual config as a body-mounted IMU,
    treating the virtual frame as the body."""
    from mimufusion.geometry import quat_from_rotation

    out = []
    for i, (rot, pos) in enumerate(zip(vcfg.rotations, vcfg.positions)):
        mount = Extrinsic(q=quat_from_rotation(rot), p=pos)
        seed = None if seeds is None else seeds[i]
        noise = vcfg.noises[i] if seeds is not None else NoiseSpec.zero()
        out.append(simulate_imu(cfg_sim, mount, noise, seed=seed))
    return out


def test_fuse_series_trims_endpoints():
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(p=np.array([0.1, 0.0, 0.0]))
    vcfg = centroid_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    series = make_rigid_series(cfg_sim, vcfg)
    fused = fuse_series(vcfg, series)
    assert len(fused) == len(series[0]) - 2
    assert fused.start_ns == series[0].start_ns + round(series[0].period_ns)
    assert fused.freq == 200.0


def test_fuse_series_zero_noise_recovers_virtual_truth():
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(5.0), 0.0]),
                    p=np.array([0.12, 0.0, 0.0]))
    vcfg = centroid_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    series = make_rigid_series(cfg_sim, vcfg)
    fused = fuse_series(vcfg, series)
    ts = cfg_sim.times()[1:-1]
    for k in [0, 57, len(fused) - 1]:
        s = sample_trajectory(cfg_sim, ts[k])
        w_v, f_v = ideal_body_measurements(s, cfg_sim.gravity)
        np.testing.assert_allclose(fused.gyro[k], w_v, atol=1e-10)
        # at the centroid no angular-acceleration estimate enters the accel
        np.testing.assert_allclose(fused.accel[k], f_v, atol=1e-10)


def test_fuse_series_validates_inputs():
    """fuse_series pairs its series by the rule CalibrationInput uses,
    with the same messages."""
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(p=np.array([0.1, 0.0, 0.0]))
    vcfg = centroid_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    series = make_rigid_series(cfg_sim, vcfg)
    with pytest.raises(LengthMismatch):
        fuse_series(vcfg, series[:1])
    from dataclasses import replace

    slow = replace(series[1], freq=100.0)
    with pytest.raises(RateMismatch, match="sample rates differ: 200.0 vs 100.0"):
        fuse_series(vcfg, [series[0], slow])
    t0 = series[1].start_ns
    shifted = replace(series[1], start_ns=t0 + 1)
    with pytest.raises(LengthMismatch, match=f"start times differ: {t0} ns vs {t0 + 1} ns"):
        fuse_series(vcfg, [series[0], shifted])
    short = replace(series[1], gyro=series[1].gyro[:-1], accel=series[1].accel[:-1])
    with pytest.raises(LengthMismatch, match="sample counts differ: 200 vs 199"):
        fuse_series(vcfg, [series[0], short])
    two = [replace(s, gyro=s.gyro[:2], accel=s.accel[:2]) for s in series]
    with pytest.raises(LengthMismatch, match="need at least 3 samples, got 2"):
        fuse_series(vcfg, two)


def test_array_frame_centroid():
    cfg, rot, pos = array_frame(grid_extrinsics(), [MEMS] * 9)
    np.testing.assert_array_equal(rot, np.eye(3))
    np.testing.assert_allclose(pos, np.zeros(3), atol=1e-15)
    assert len(cfg.rotations) == 9
    positions = np.array(cfg.positions)
    np.testing.assert_allclose(positions.mean(axis=0), np.zeros(3),
                               atol=1e-15)
    w = np.array([0.3, -0.1, 0.7])
    np.testing.assert_allclose(fuse_one(cfg, [r @ w for r in cfg.rotations])[0], w,
                               atol=1e-14)


def test_vimu_noise_dict_round_trip():
    cfg = colocated_pair()
    noise = virtual_covariances(cfg.noises)
    back = VimuNoise.from_dict(noise.to_dict())
    np.testing.assert_allclose(back.gyro, noise.gyro)
    np.testing.assert_allclose(back.accel_bias, noise.accel_bias)


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_property_fusion_invariant_to_sensor_order(data, n, seed):
    """Permuting the sensors together with their VimuConfig entries
    leaves the fused series unchanged."""
    perm = data.draw(st.permutations(range(n)))
    rng = np.random.default_rng(seed)
    rotations = [exp_so3(rng.normal(size=3)) for _ in range(n)]
    positions = [rng.normal(scale=0.05, size=3) for _ in range(n)]
    noises = [NoiseSpec(sigma_g=rng.uniform(1e-4, 1e-3),
                        sigma_a=rng.uniform(1e-3, 1e-2)) for _ in range(n)]
    series = [ImuSeries(FREQ, 1000, rng.normal(size=(12, 3)),
                        rng.normal(scale=5.0, size=(12, 3))) for _ in range(n)]

    def fuse(order):
        cfg = centred_config(rotations=[rotations[i] for i in order],
                             positions=[positions[i] for i in order],
                             noises=[noises[i] for i in order])
        return fuse_series(cfg, [series[i] for i in order])

    want, got = fuse(range(n)), fuse(perm)
    assert (got.freq, got.start_ns) == (want.freq, want.start_ns)
    np.testing.assert_allclose(got.gyro, want.gyro, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.accel, want.accel, rtol=0, atol=1e-12)


def perturbed_grid(seed=70):
    """Nine sensors of a 3x3 grid with tilted axes and unequal sigma_a,
    around their accel-weighted centroid, which is off the grid's
    centre: no sensor's lever term vanishes, only their fused sum."""
    rng = np.random.default_rng(seed)
    return centred_config(
        rotations=[exp_so3(rng.normal(scale=0.05, size=3)) for _ in range(9)],
        positions=[np.array([0.05 * (i % 3 - 1), 0.05 * (i // 3 - 1), 0.0])
                   for i in range(9)],
        noises=[NoiseSpec(sigma_a=s) for s in rng.uniform(1e-3, 8e-3, 9)],
    )


CENTROID_CONFIGS = {
    "1-sensor": lambda: single_frame(MEMS, rotation=exp_so3([0.1, -0.2, 0.05])),
    "2-sensor": lambda: centroid_frame(
        Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.05]),
                  p=np.array([0.1, 0.02, -0.01])),
        MEMS, NoiseSpec(sigma_a=4e-3)),
    "9-sensor": perturbed_grid,
}


@pytest.mark.parametrize("name", sorted(CENTROID_CONFIGS))
def test_lever_term_and_jacobian_match_per_sensor_oracle(name):
    """The lever term and its rate Jacobian, which the library drops at
    the accel-weighted centroid, are zero there in the per-sensor general
    form too: the fused accel equals the general-form accelerometer solve
    applied to the stack with the lever terms
    R_i (w x (w x p_i) + wdot x p_i) subtracted, and the preintegrated
    covariance equals the oracle's step fold that routes gyro noise into
    position through psi."""
    cfg = CENTROID_CONFIGS[name]()
    rng = np.random.default_rng(71)
    w = rng.normal(scale=1.5, size=(50, 3))
    wd = rng.normal(scale=3.0, size=(50, 3))
    f = rng.normal(scale=5.0, size=(50, 3))
    levers = lever_arm_stack(cfg, w, wd)
    accel = np.concatenate([f @ r.T for r in cfg.rotations], axis=-1) + levers
    n = len(cfg.rotations)
    gyro = np.concatenate([w @ r.T for r in cfg.rotations], axis=-1)
    fused_w, fused_a = _fused_rows(gyro.reshape(50, n, 3), accel.reshape(50, n, 3),
                                   _fusion_matrices(np.stack(cfg.rotations), cfg.noises, n),
                                   49)
    want = (accel[1:] - levers[1:]) @ general_solves(cfg)[1].T
    # two computations of one fit: round-off scales with the samples
    np.testing.assert_allclose(fused_a, want, rtol=0, atol=1e-13 * np.abs(accel).max())
    np.testing.assert_allclose(fused_w, w[1:], rtol=0, atol=1e-13)

    noise = virtual_covariances(cfg.noises)
    delta = identity_delta()
    for t in range(49):
        delta = propagate_step(delta, fused_w[t], fused_a[t], cfg, noise, FREQ)
    cov = preintegrate_stack(fused_w[None, None], fused_a[None, None], FREQ, noise)[3][0, 0]
    np.testing.assert_allclose(cov, delta.covariance, rtol=0,
                               atol=1e-12 * np.abs(delta.covariance).max())


def test_fused_rows_trials_match_fuse_series():
    """One _fused_rows call over a trial axis, with one array per trial
    or one shared array, and with fusion matrices that read their
    sensors in place out of a wider array, equals a fuse_series call per
    trial."""
    cfgs = [centroid_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.02 * k, 0.05]),
                                     p=np.array([0.1, 0.01 * k, -0.01])),
                           MEMS, NoiseSpec(sigma_a=4e-3)) for k in range(3)]
    noises = cfgs[0].noises
    stacked = np.stack([c.rotations for c in cfgs])
    rng = np.random.default_rng(72)
    gyro = rng.normal(scale=0.5, size=(3, 40, 2, 3))
    accel = rng.normal(scale=5.0, size=(3, 40, 2, 3))
    wide = rng.normal(size=(2, 3, 40, 4, 3))  # sensors in columns 3 and 1
    wide[:, :, :, [3, 1]] = gyro, accel
    for rotations, per_trial, columns in ((stacked, cfgs, None),
                                          (stacked[1], [cfgs[1]] * 3, None),
                                          (stacked, cfgs, [3, 1])):
        if columns is None:
            w, a = _fused_rows(gyro, accel, _fusion_matrices(rotations, noises, 2), 38)
        else:
            w, a = _fused_rows(*wide, _fusion_matrices(rotations, noises, 4, columns), 38)
        assert w.shape == a.shape == (3, 38, 3)
        for k, cfg in enumerate(per_trial):
            fused = fuse_series(cfg, [ImuSeries(FREQ, 0, gyro[k, :, i], accel[k, :, i])
                                      for i in range(2)])
            np.testing.assert_allclose(w[k], fused.gyro, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(a[k], fused.accel, rtol=1e-13, atol=1e-12)


def rotated_unequal_array(n, rng):
    """An array of n sensors with random axes and unequal sigmas."""
    return centred_config(
        rotations=[exp_so3(rng.normal(scale=0.3, size=3)) for _ in range(n)],
        positions=[rng.normal(scale=0.05, size=3) for _ in range(n)],
        noises=[NoiseSpec(sigma_g=1.7e-4 * (1 + 0.2 * i), sigma_a=2e-3 * (1 + 0.3 * i),
                          sigma_bg=1e-5 * (1 + 0.5 * i), sigma_ba=3e-4 * (1 + 0.1 * i))
                for i in range(n)])


@pytest.mark.parametrize("n", [1, 2, 9])
def test_build_fusion_stack_matches_per_config_builds(n):
    """One _fused_rows call over two trial axes of fusion matrices fuses
    every trial as fuse_series fuses that trial's config alone."""
    rng = np.random.default_rng(80 + n)
    cfgs = [rotated_unequal_array(n, rng) for _ in range(4)]
    noises = cfgs[0].noises
    cfgs = [VimuConfig(c.rotations, c.positions, noises) for c in cfgs]
    gyro, accel = rng.normal(size=(2, 2, 2, 30, n, 3))
    w, a = _fused_rows(gyro, accel, _fusion_matrices(
        np.reshape([c.rotations for c in cfgs], (2, 2, n, 3, 3)), noises, n), 28)
    assert w.shape == a.shape == (2, 2, 28, 3)
    for (i, j), cfg in zip(np.ndindex(2, 2), cfgs):
        fused = fuse_series(cfg, [ImuSeries(FREQ, 0, gyro[i, j, :, k], accel[i, j, :, k])
                                  for k in range(n)])
        np.testing.assert_allclose(w[i, j], fused.gyro, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a[i, j], fused.accel, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_virtual_covariances_are_isotropic_weighted_sums(n):
    """For rotated arrays with unequal noise, every virtual density is
    sum_i (w_i sigma_i)^2 I, w_i the normalized 1/sigma^2 weights of its
    category, with off-diagonals exactly 0."""
    cfg = rotated_unequal_array(n, np.random.default_rng(90 + n))
    noise = virtual_covariances(cfg.noises)
    for got, weighted_by, field in ((noise.gyro, "sigma_g", "sigma_g"),
                                    (noise.gyro_bias, "sigma_g", "sigma_bg"),
                                    (noise.accel, "sigma_a", "sigma_a"),
                                    (noise.accel_bias, "sigma_a", "sigma_ba")):
        inv_var = np.array([getattr(ns, weighted_by) ** -2.0 for ns in cfg.noises])
        w = inv_var / inv_var.sum()
        want = np.sum((w * [getattr(ns, field) for ns in cfg.noises]) ** 2)
        np.testing.assert_allclose(np.diag(got), want, rtol=1e-15, atol=0, err_msg=field)
        np.testing.assert_array_equal(got - np.diag(np.diag(got)), np.zeros((3, 3)))


def test_build_fusion_stack_rejects_mixed_exact_and_noisy_sensors():
    """Fusing or modelling the noise of an exact and a noisy sensor in
    one category raises SingularFusion, and so does a virtual density
    that overflows."""
    mixed = (MEMS, NoiseSpec.zero())
    with pytest.raises(SingularFusion):
        _fusion_matrices(np.tile(np.eye(3), (3, 2, 1, 1)), mixed, 2)
    with pytest.raises(SingularFusion):
        virtual_covariances(mixed)
    with pytest.raises(SingularFusion, match="sigma_bg density overflows"):
        virtual_covariances((NoiseSpec(sigma_bg=1e200),) * 2)


@pytest.mark.parametrize("exact", [False, True], ids=["noisy", "exact"])
def test_raw_sample_solves_match_whitened_least_squares(exact):
    """Over stacked trials, _fused_rows' gyro is the least-squares fit of
    the whitened stack W y = W D x, with D the stacked rotations and W
    the diagonal whitening by the sigmas, and virtual_covariances
    propagates each sensor's noise through that fit:
    pinv(W D) W diag(sigma^2) W pinv(W D)^T, whatever the rotations.
    Exact sensors (every white sigma zero) are whitened by ones and
    still carry their bias walks."""
    rng = np.random.default_rng(95 + exact)
    n, trials = 4, 3
    scales = rng.uniform(0.2, 5.0, size=(4, n))  # heterogeneous per sensor
    noises = tuple(NoiseSpec(sigma_g=0.0 if exact else 1.7e-4 * g,
                             sigma_a=0.0 if exact else 2e-3 * a,
                             sigma_bg=1e-5 * bg, sigma_ba=3e-4 * ba)
                   for g, a, bg, ba in scales.T)
    rotations = exp_so3(rng.normal(size=(trials, n, 3)))
    gyro = rng.normal(size=(trials, 20, n, 3))
    fused_w, _ = _fused_rows(gyro, rng.normal(size=gyro.shape),
                             _fusion_matrices(rotations, noises, n), 19)
    noise = virtual_covariances(noises)

    def whitening(sigmas):
        eff = np.ones(n) if exact else np.asarray(sigmas)
        return np.diag(np.repeat(1.0 / eff, 3))

    for k in range(trials):
        D = np.concatenate(rotations[k])
        W_g = whitening([ns.sigma_g for ns in noises])
        W_a = whitening([ns.sigma_a for ns in noises])
        y = gyro[k].reshape(-1, 3 * n).T
        want = np.linalg.lstsq(W_g @ D, W_g @ y, rcond=None)[0].T
        np.testing.assert_allclose(fused_w[k], want[1:], rtol=0, atol=1e-12)
        for got, W, field in ((noise.gyro, W_g, "sigma_g"), (noise.gyro_bias, W_g, "sigma_bg"),
                              (noise.accel, W_a, "sigma_a"), (noise.accel_bias, W_a, "sigma_ba")):
            P = np.linalg.pinv(W @ D)
            S = np.diag(np.repeat([getattr(ns, field) ** 2 for ns in noises], 3))
            want = P @ W @ S @ W @ P.T
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max(),
                                       err_msg=field)
