import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    array_frame,
    ideal_body_measurements,
    lever_arm_stack,
    single_frame,
    virtual_bias,
)

from mimufusion.errors import LengthMismatch, RateMismatch, SingularFusion
from mimufusion.geometry import exp_so3, quat_from_rotvec, rotation_from_quat
from mimufusion.simulation import (
    SimConfig,
    sample_trajectory,
    simulate_imu,
    transfer_measurement,
)
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec
from mimufusion.vimu import (
    VimuConfig,
    VimuNoise,
    build_fusion,
    build_fusion_stack,
    fuse_series,
    fuse_stack,
    lever_jacobian,
    lever_term,
    midpoint_frame,
    virtual_covariances,
)


MEMS = NoiseSpec()
FREQ = 200.0


def fuse_one(cfg, omegas, accels=None, omega_dot=None):
    """Fuse one instant of per-sensor readings (n, 3) through
    fuse_series: three samples whose middle one carries the readings.
    The gyro rows ramp so that the central difference equals the
    sensor-frame image of ``omega_dot`` (constant when it is None).
    Returns the fused (gyro, accel) of the middle sample."""
    omegas = np.asarray(omegas, dtype=float)
    accels = np.zeros_like(omegas) if accels is None else np.asarray(accels, dtype=float)
    wd = np.zeros(3) if omega_dot is None else np.asarray(omega_dot, dtype=float)
    series = []
    for rot, w, a in zip(cfg.rotations, omegas, accels):
        ramp = rot @ wd / FREQ
        series.append(ImuSeries(freq=FREQ, start_ns=0,
                                gyro=np.array([w - ramp, w, w + ramp]),
                                accel=np.tile(a, (3, 1))))
    fused = fuse_series(build_fusion(cfg), series)
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
    cfg = midpoint_frame(Extrinsic.identity(), MEMS, MEMS)
    np.testing.assert_array_equal(cfg.positions[0], np.zeros(3))
    np.testing.assert_array_equal(cfg.positions[1], np.zeros(3))
    np.testing.assert_array_equal(cfg.rotations[0], np.eye(3))
    np.testing.assert_array_equal(cfg.rotations[1], np.eye(3))


def test_midpoint_splits_lever():
    ext = Extrinsic(p=np.array([0.12, 0.0, 0.0]))
    cfg = midpoint_frame(ext, MEMS, MEMS)
    np.testing.assert_allclose(cfg.positions[0], [-0.06, 0.0, 0.0])
    np.testing.assert_allclose(cfg.positions[1], [0.06, 0.0, 0.0])


def test_midpoint_random_extrinsics_consistent():
    rng = np.random.default_rng(40)
    for _ in range(100):
        ext = Extrinsic(q=quat_from_rotvec(rng.normal(size=3)),
                        p=rng.normal(size=3) * 0.3)
        cfg = midpoint_frame(ext, MEMS, MEMS)
        # sensor B's frame relative to the virtual frame is the full
        # relative rotation; the two sensors sit at +-p/2
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
    cfg = midpoint_frame(ext, MEMS, NoiseSpec(sigma_g=3e-4))
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
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        cfg = VimuConfig(
            rotations=tuple(exp_so3(rng.normal(size=3)) for _ in range(n)),
            positions=tuple(rng.normal(size=3) * 0.1 for _ in range(n)),
            noises=tuple(NoiseSpec(sigma_g=float(rng.uniform(1e-4, 1e-3)),
                                   sigma_a=float(rng.uniform(1e-3, 1e-2)))
                         for _ in range(n)),
        )
        fm = build_fusion(cfg)
        design = np.concatenate(cfg.rotations)
        np.testing.assert_allclose(fm.gyro_solve @ design, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(fm.accel_solve @ design, np.eye(3), atol=1e-10)


def test_extreme_noise_ratio_conditioning():
    # a 1e3 sigma ratio must either build cleanly or raise SingularFusion,
    # never return garbage
    cfg = colocated_pair(sigma_g_b=1.7e-4 * 1e3, sigma_a_b=2e-3 * 1e3)
    try:
        fm = build_fusion(cfg)
    except SingularFusion:
        return
    np.testing.assert_allclose(fm.gyro_solve @ np.concatenate(cfg.rotations), np.eye(3),
                               atol=1e-6)


def test_zero_sigma_all_exact_is_allowed():
    cfg = VimuConfig(rotations=(np.eye(3), np.eye(3)),
                     positions=(np.zeros(3), np.zeros(3)),
                     noises=(NoiseSpec.zero(), NoiseSpec.zero()))
    fm = build_fusion(cfg)
    np.testing.assert_allclose(fm.gyro_solve, np.hstack([np.eye(3)] * 2) / 2,
                               atol=1e-15)
    out, _ = fuse_one(cfg, [[0.2, 0.0, 0.0], [0.2, 0.0, 0.0]])
    np.testing.assert_allclose(out, [0.2, 0.0, 0.0], atol=1e-14)


def test_mixed_zero_sigma_rejected():
    cfg = VimuConfig(rotations=(np.eye(3), np.eye(3)),
                     positions=(np.zeros(3), np.zeros(3)),
                     noises=(NoiseSpec.zero(), MEMS))
    with pytest.raises(SingularFusion):
        build_fusion(cfg)


def test_lever_stack_colocated_zero():
    cfg = colocated_pair()
    out = lever_arm_stack(cfg, np.array([0.5, -0.2, 0.3]),
                          np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, np.zeros(6), atol=1e-15)


def test_lever_stack_centripetal_block():
    ext = Extrinsic(p=np.array([0.12, 0.0, 0.0]))
    cfg = midpoint_frame(ext, MEMS, MEMS)
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
    cfg = midpoint_frame(ext, MEMS, MEMS)
    g_reading = np.array([0.0, 0.0, 9.81])
    _, out = fuse_one(cfg, np.zeros((2, 3)), [g_reading, g_reading])
    np.testing.assert_allclose(out, g_reading, atol=1e-12)


def test_fuse_accel_dynamic_matches_virtual_ideal():
    """Fusing noiseless rigid readings reproduces the ideal measurement at
    the virtual frame."""
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(5.0), 0.0]),
                    p=np.array([0.12, 0.0, 0.0]))
    vcfg = midpoint_frame(ext, MEMS, MEMS)
    for t in [0.1, 0.45, 0.9]:
        s = sample_trajectory(cfg_sim, t)
        w_v, f_v = ideal_body_measurements(s, cfg_sim.gravity)
        # the virtual frame is at -p/2 relative to sensor A; mount both
        # sensors relative to it
        readings_w = []
        readings_a = []
        for rot, pos in zip(vcfg.rotations, vcfg.positions):
            mount = Extrinsic(q=quat_from_rotation_matrix(rot), p=pos)
            wi, ai = transfer_measurement(w_v, s.omega_dot, f_v, mount)
            readings_w.append(wi)
            readings_a.append(ai)
        fused_w, fused_a = fuse_one(vcfg, readings_w, readings_a, s.omega_dot)
        np.testing.assert_allclose(fused_w, w_v, atol=1e-9)
        np.testing.assert_allclose(fused_a, f_v, atol=1e-9)


def quat_from_rotation_matrix(R):
    from mimufusion.geometry import quat_from_rotation

    return quat_from_rotation(R)


def test_virtual_covariance_equal_pair_halves():
    cfg = colocated_pair()
    noise = virtual_covariances(build_fusion(cfg), cfg.noises)
    np.testing.assert_allclose(noise.gyro, 0.5 * 1.7e-4**2 * np.eye(3),
                               atol=1e-20)
    np.testing.assert_allclose(noise.accel, 0.5 * 2e-3**2 * np.eye(3),
                               atol=1e-18)


def test_virtual_covariance_product_formula():
    sa, sb = 1.7e-4, 4.1e-4
    cfg = colocated_pair(sigma_g_a=sa, sigma_g_b=sb)
    noise = virtual_covariances(build_fusion(cfg), cfg.noises)
    expected = sa**2 * sb**2 / (sa**2 + sb**2)
    np.testing.assert_allclose(noise.gyro, expected * np.eye(3), rtol=1e-12)


def test_virtual_covariance_extreme_ratio():
    sa = 1.7e-4
    cfg = colocated_pair(sigma_g_a=sa, sigma_g_b=sa * 1e6)
    noise = virtual_covariances(build_fusion(cfg), cfg.noises)
    np.testing.assert_allclose(noise.gyro, sa**2 * np.eye(3), rtol=1e-6)


def test_virtual_covariance_never_exceeds_best_sensor():
    rng = np.random.default_rng(42)
    for _ in range(20):
        sa = float(rng.uniform(1e-4, 1e-3))
        sb = float(rng.uniform(1e-4, 1e-3))
        cfg = colocated_pair(sigma_g_a=sa, sigma_g_b=sb)
        noise = virtual_covariances(build_fusion(cfg), cfg.noises)
        eigs = np.linalg.eigvalsh(noise.gyro)
        assert eigs[-1] <= min(sa, sb) ** 2 + 1e-18


def test_virtual_covariance_monte_carlo():
    """Empirical covariance of fused white noise matches the closed form
    within 5%."""
    ext = Extrinsic(q=quat_from_rotvec([0.0, 0.0, 0.4]),
                    p=np.array([0.1, 0.0, 0.0]))
    cfg = midpoint_frame(ext, NoiseSpec(sigma_g=1.7e-4, sigma_bg=0.0),
                         NoiseSpec(sigma_g=3e-4, sigma_bg=0.0))
    fm = build_fusion(cfg)
    noise = virtual_covariances(fm, cfg.noises)
    freq = 200.0
    n = 100_000
    rng = np.random.default_rng(43)
    draws_a = rng.standard_normal((n, 3)) * (1.7e-4 * np.sqrt(freq))
    draws_b = rng.standard_normal((n, 3)) * (3e-4 * np.sqrt(freq))
    fused = np.hstack([draws_a, draws_b]) @ fm.gyro_solve.T
    sample_cov = np.cov(fused.T) / freq
    scale = np.max(np.abs(np.diag(noise.gyro)))
    np.testing.assert_allclose(sample_cov, noise.gyro, atol=0.05 * scale)


def test_virtual_bias_average():
    cfg = colocated_pair()
    fm = build_fusion(cfg)
    bg, ba = virtual_bias(fm, [[0.01, 0.0, 0.0], [0.03, 0.0, 0.0]],
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
    vcfg = midpoint_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    series = make_rigid_series(cfg_sim, vcfg)
    fused = fuse_series(build_fusion(vcfg), series)
    assert len(fused) == len(series[0]) - 2
    assert fused.start_ns == series[0].start_ns + round(series[0].period_ns)
    assert fused.freq == 200.0


def test_fuse_series_zero_noise_recovers_virtual_truth():
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(5.0), 0.0]),
                    p=np.array([0.12, 0.0, 0.0]))
    vcfg = midpoint_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    series = make_rigid_series(cfg_sim, vcfg)
    fused = fuse_series(build_fusion(vcfg), series)
    ts = cfg_sim.times()[1:-1]
    for k in [0, 57, len(fused) - 1]:
        s = sample_trajectory(cfg_sim, ts[k])
        w_v, f_v = ideal_body_measurements(s, cfg_sim.gravity)
        np.testing.assert_allclose(fused.gyro[k], w_v, atol=1e-10)
        # the accel pays for the O(dt^2) angular-acceleration estimate
        np.testing.assert_allclose(fused.accel[k], f_v, atol=1e-5)


def test_fuse_series_validates_inputs():
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(p=np.array([0.1, 0.0, 0.0]))
    vcfg = midpoint_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    series = make_rigid_series(cfg_sim, vcfg)
    fm = build_fusion(vcfg)
    with pytest.raises(LengthMismatch):
        fuse_series(fm, series[:1])
    from dataclasses import replace

    slow = replace(series[1], freq=100.0)
    with pytest.raises(RateMismatch):
        fuse_series(fm, [series[0], slow])
    shifted = replace(series[1], start_ns=series[1].start_ns + 1)
    with pytest.raises(LengthMismatch):
        fuse_series(fm, [series[0], shifted])


def test_array_frame_centroid():
    from mimufusion.simulation import grid_mounts

    mounts = grid_mounts()
    cfg, rot, pos = array_frame(mounts, [MEMS] * 9)
    np.testing.assert_array_equal(rot, np.eye(3))
    np.testing.assert_allclose(pos, np.zeros(3), atol=1e-15)
    assert len(cfg.rotations) == 9
    positions = np.array(cfg.positions)
    np.testing.assert_allclose(positions.mean(axis=0), np.zeros(3),
                               atol=1e-15)
    fm = build_fusion(cfg)
    np.testing.assert_allclose(fm.gyro_solve @ np.concatenate(cfg.rotations), np.eye(3),
                               atol=1e-12)


def test_vimu_noise_dict_round_trip():
    cfg = colocated_pair()
    noise = virtual_covariances(build_fusion(cfg), cfg.noises)
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
        cfg = VimuConfig(rotations=tuple(rotations[i] for i in order),
                         positions=tuple(positions[i] for i in order),
                         noises=tuple(noises[i] for i in order))
        return fuse_series(build_fusion(cfg), [series[i] for i in order])

    want, got = fuse(range(n)), fuse(perm)
    assert (got.freq, got.start_ns) == (want.freq, want.start_ns)
    np.testing.assert_allclose(got.gyro, want.gyro, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.accel, want.accel, rtol=0, atol=1e-12)


def perturbed_grid(seed=70):
    """Nine sensors of a 3x3 grid with tilted axes, unequal sigma_a and
    the virtual frame moved off the centroid: nothing in the lever terms
    cancels."""
    rng = np.random.default_rng(seed)
    return VimuConfig(
        rotations=tuple(exp_so3(rng.normal(scale=0.05, size=3)) for _ in range(9)),
        positions=tuple(np.array([0.05 * (i % 3 - 1), 0.05 * (i // 3 - 1), 0.0])
                        + np.array([0.013, -0.021, 0.007]) for i in range(9)),
        noises=tuple(NoiseSpec(sigma_a=s) for s in rng.uniform(1e-3, 8e-3, 9)),
    )


LEVER_CONFIGS = {
    "1-sensor": lambda: single_frame(MEMS, rotation=exp_so3([0.1, -0.2, 0.05]),
                                     position=np.array([0.03, -0.02, 0.01])),
    "2-sensor": lambda: midpoint_frame(
        Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.05]),
                  p=np.array([0.1, 0.02, -0.01])),
        MEMS, NoiseSpec(sigma_a=4e-3)),
    "9-sensor": perturbed_grid,
}


@pytest.mark.parametrize("name", sorted(LEVER_CONFIGS))
def test_lever_term_and_jacobian_match_per_sensor_oracle(name):
    """The quadratic form built once per fusion equals accel_solve
    applied to the per-sensor lever stack, and its Jacobian equals
    accel_solve applied to the per-sensor psi blocks."""
    from oracle import psi_matrix

    cfg = LEVER_CONFIGS[name]()
    fm = build_fusion(cfg)
    rng = np.random.default_rng(71)
    w = rng.normal(scale=1.5, size=(50, 3))
    wd = rng.normal(scale=3.0, size=(50, 3))
    want = lever_arm_stack(cfg, w, wd) @ fm.accel_solve.T
    scale = np.abs(want).max()
    np.testing.assert_allclose(lever_term(fm, w, wd), want, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(lever_term(fm, w),
                               lever_arm_stack(cfg, w, np.zeros(3)) @ fm.accel_solve.T,
                               rtol=0, atol=1e-13 * scale)
    want_jac = fm.accel_solve @ psi_matrix(cfg, w)
    np.testing.assert_allclose(lever_jacobian(fm, w), want_jac, rtol=0,
                               atol=1e-13 * np.abs(want_jac).max())


def test_lever_term_matches_einsum_oracle():
    """One product of the w (x) w rows with Q's (9, 3) block gives the
    product-then-einsum form within 1e-15 of the largest term, for a
    shared fusion and for one fusion per trial."""
    import oracle

    rng = np.random.default_rng(72)
    w = rng.normal(scale=1.5, size=(3, 200, 3))
    wd = rng.normal(scale=3.0, size=(3, 200, 3))
    shared = build_fusion(perturbed_grid())
    per_trial, _ = build_fusion_stack(
        np.stack([np.eye(3)[None].repeat(2, 0)] * 3),
        rng.normal(scale=0.05, size=(3, 2, 3)), (MEMS, NoiseSpec(sigma_a=4e-3)))
    for fm in (shared, per_trial):
        for args in ((w, wd), (w,)):
            want = oracle.lever_term(fm, *args)
            np.testing.assert_allclose(lever_term(fm, *args), want, rtol=0,
                                       atol=1e-15 * np.abs(want).max())


def test_lever_jacobian_is_lever_term_derivative():
    fm = build_fusion(perturbed_grid())
    w = np.array([[0.4, -0.7, 0.2]])
    wd = np.array([[1.0, 0.5, -0.3]])
    eps = 1e-6
    fd = np.stack([(lever_term(fm, w + dw, wd) - lever_term(fm, w - dw, wd))[0]
                   for dw in eps * np.eye(3)[:, None, :]], axis=-1) / (2 * eps)
    np.testing.assert_allclose(lever_jacobian(fm, w)[0], fd, atol=1e-6)


def test_fuse_stack_trials_match_fuse_series():
    """One fuse_stack call over a trial axis, with one fusion per trial
    or one shared fusion, and reading its sensors in place out of a
    wider array, equals a fuse_series call per trial."""
    cfgs = [midpoint_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.02 * k, 0.05]),
                                     p=np.array([0.1, 0.01 * k, -0.01])),
                           MEMS, NoiseSpec(sigma_a=4e-3)) for k in range(3)]
    fms = [build_fusion(c) for c in cfgs]
    stacked = type(fms[0])(*(np.stack([getattr(fm, f) for fm in fms])
                             for f in fms[0].__dataclass_fields__))
    rng = np.random.default_rng(72)
    gyro = rng.normal(scale=0.5, size=(3, 40, 2, 3))
    accel = rng.normal(scale=5.0, size=(3, 40, 2, 3))
    wide = rng.normal(size=(2, 3, 40, 4, 3))  # sensors in columns 3 and 1
    wide[:, :, :, [3, 1]] = gyro, accel
    for fm, per_trial, columns in ((stacked, fms, None), (fms[1], [fms[1]] * 3, None),
                                   (stacked, fms, [3, 1])):
        if columns is None:
            w, a = fuse_stack(fm, gyro, accel, FREQ)
        else:
            w, a = fuse_stack(fm, wide[0], wide[1], FREQ, columns)
        assert w.shape == a.shape == (3, 38, 3)
        for k, one in enumerate(per_trial):
            fused = fuse_series(one, [ImuSeries(FREQ, 0, gyro[k, :, i], accel[k, :, i])
                                      for i in range(2)])
            np.testing.assert_allclose(w[k], fused.gyro, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(a[k], fused.accel, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_build_fusion_stack_matches_per_config_builds(n):
    """One build_fusion_stack call over two trial axes gives every trial
    what build_fusion gives its config alone, and a trial whose Gram is
    singular reports SingularFusion with finite placeholders while the
    others build."""
    rng = np.random.default_rng(80 + n)
    noises = tuple(NoiseSpec(sigma_g=1.7e-4 * (1 + 0.2 * i), sigma_a=2e-3 * (1 + 0.3 * i))
                   for i in range(n))
    cfgs = [VimuConfig(rotations=tuple(exp_so3(rng.normal(scale=0.3, size=3))
                                       for _ in range(n)),
                       positions=tuple(rng.normal(scale=0.05, size=3) for _ in range(n)),
                       noises=noises) for _ in range(3)]
    rotations = [c.rotations for c in cfgs]
    positions = [c.positions for c in cfgs]
    # every sensor blind along z: the Gram of both designs is singular
    rotations.insert(2, np.tile(np.diag([1.0, 1.0, 0.0]), (n, 1, 1)))
    positions.insert(2, np.zeros((n, 3)))
    fm, errors = build_fusion_stack(np.reshape(rotations, (2, 2, n, 3, 3)),
                                    np.reshape(positions, (2, 2, n, 3)), noises)
    assert [type(e) for e in errors] == [type(None)] * 2 + [SingularFusion, type(None)]
    assert "ill-conditioned" in str(errors[2])
    _, (alone,) = build_fusion_stack(rotations[2], positions[2], noises)
    assert isinstance(alone, SingularFusion)
    assert fm.gyro_solve.shape == (2, 2, 3, 3 * n) and fm.lever_Q.shape == (2, 2, 3, 3, 3)
    for name in fm.__dataclass_fields__:
        assert np.all(np.isfinite(getattr(fm, name)))
    for (a, b), cfg in zip([(0, 0), (0, 1), (1, 1)], cfgs):
        want = build_fusion(cfg)
        for name in fm.__dataclass_fields__:
            got = getattr(fm, name)[a, b]
            w = getattr(want, name)
            np.testing.assert_allclose(got, w, rtol=1e-13, atol=1e-13 * np.abs(w).max())


def test_build_fusion_stack_rejects_mixed_exact_and_noisy_sensors():
    with pytest.raises(SingularFusion):
        build_fusion_stack(np.tile(np.eye(3), (3, 2, 1, 1)), np.zeros((3, 2, 3)),
                           (MEMS, NoiseSpec.zero()))



@pytest.mark.parametrize("exact", [False, True], ids=["noisy", "exact"])
def test_raw_sample_solves_match_whitened_least_squares(exact):
    """Over stacked trials, fuse_stack's gyro is the least-squares fit of
    the whitened stack W y = W D x, with D the stacked rotations and W
    the diagonal whitening by the effective sigmas, and
    virtual_covariances propagates each sensor's noise through that fit:
    pinv(W D) W diag(sigma^2) W pinv(W D)^T. Exact sensors (every white
    sigma zero) are whitened by ones and still carry their bias walks."""
    rng = np.random.default_rng(95 + exact)
    n, trials = 4, 3
    scales = rng.uniform(0.2, 5.0, size=(4, n))  # heterogeneous per sensor
    noises = tuple(NoiseSpec(sigma_g=0.0 if exact else 1.7e-4 * g,
                             sigma_a=0.0 if exact else 2e-3 * a,
                             sigma_bg=1e-5 * bg, sigma_ba=3e-4 * ba)
                   for g, a, bg, ba in scales.T)
    rotations = exp_so3(rng.normal(size=(trials, n, 3)))
    positions = rng.normal(scale=0.05, size=(trials, n, 3))
    fm, errors = build_fusion_stack(rotations, positions, noises)
    assert errors == [None] * trials
    gyro = rng.normal(size=(trials, 20, n, 3))
    fused_w, _ = fuse_stack(fm, gyro, rng.normal(size=gyro.shape), FREQ)

    def whitening(sigmas):
        eff = np.ones(n) if exact else np.asarray(sigmas)
        return np.diag(np.repeat(1.0 / eff, 3))

    for k in range(trials):
        cfg = VimuConfig(tuple(rotations[k]), tuple(positions[k]), noises)
        D = np.concatenate(cfg.rotations)
        W_g = whitening([ns.sigma_g for ns in noises])
        W_a = whitening([ns.sigma_a for ns in noises])
        y = gyro[k, 1:-1].reshape(-1, 3 * n).T
        want = np.linalg.lstsq(W_g @ D, W_g @ y, rcond=None)[0].T
        np.testing.assert_allclose(fused_w[k], want, rtol=0, atol=1e-12)
        noise = virtual_covariances(build_fusion(cfg), cfg.noises)
        for got, W, field in ((noise.gyro, W_g, "sigma_g"), (noise.gyro_bias, W_g, "sigma_bg"),
                              (noise.accel, W_a, "sigma_a"), (noise.accel_bias, W_a, "sigma_ba")):
            P = np.linalg.pinv(W @ D)
            S = np.diag(np.repeat([getattr(ns, field) ** 2 for ns in noises], 3))
            want = P @ W @ S @ W @ P.T
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max(),
                                       err_msg=field)
