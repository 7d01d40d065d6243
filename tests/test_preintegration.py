import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracle import (
    array_frame,
    centred_config,
    general_solves,
    grid_extrinsics,
    ideal_imu_series,
    identity_delta,
    log_so3,
    propagate_step,
    psi_matrix,
    quat_from_rotvec,
    sample_trajectory,
    simulate_imu,
    single_frame,
    still_trajectory,
)
from oracle import step_matrices as scalar_step_matrices

from mimufusion.csvio import load_sim_setup
from mimufusion.errors import FormatError
from mimufusion.geometry import (
    exp_so3,
    geodesic_angle,
    right_jacobian,
    rotation_from_quat,
    skew,
)
from mimufusion.preintegration import (
    _BLOCK,
    VimuState,
    bias_correct,
    predict_state,
    preintegrate_stack,
    preintegrate_windows,
)
from mimufusion.simulation import (
    SimConfig,
    apply_measurement_noise_stack,
)
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec
from mimufusion.vimu import (
    VimuConfig,
    VimuNoise,
    _fused_rows,
    _fusion_matrices,
    centroid_frame,
    fuse_series,
    virtual_covariances,
)


MEMS = NoiseSpec()
GRAVITY = np.array([0.0, 0.0, -9.81])


def zero_vimu_noise():
    z = np.zeros((3, 3))
    return VimuNoise(gyro=z, gyro_bias=z, accel=z, accel_bias=z)


def virtual_from_body(cfg_sim, noise=None, seed=None):
    """Noise-free (or noisy) single-sensor virtual series of the body."""
    n = NoiseSpec.zero() if noise is None else noise
    vcfg = single_frame(n)
    s = simulate_imu(cfg_sim, Extrinsic(), n, seed=seed)
    return fuse_series(vcfg, [s]), vcfg


def still_series(duration=1.0, freq=200.0):
    cfg = SimConfig(freq=freq, duration=duration,
                    trajectory=still_trajectory())
    return virtual_from_body(cfg)


def test_bias_correct_zero_bias_is_identity():
    series, vcfg = still_series()
    w, a = bias_correct(series, VimuState.identity())
    np.testing.assert_array_equal(w, series.gyro)
    np.testing.assert_array_equal(a, series.accel)


def test_bias_correct_removes_full_rate():
    series, vcfg = still_series()
    state = VimuState(rotation=np.eye(3), position=np.zeros(3),
                      velocity=np.zeros(3),
                      bias_gyro=np.array([0.02, -0.01, 0.005]),
                      bias_accel=np.zeros(3))
    biased = ImuSeries(freq=series.freq, start_ns=series.start_ns,
                       gyro=series.gyro + state.bias_gyro,
                       accel=series.accel)
    w, _ = bias_correct(biased, state)
    np.testing.assert_allclose(w, series.gyro, atol=1e-15)


def test_bias_correct_restores_lever_consistency():
    """A constant gyro bias consistently injected into every sensor of an
    unequal pair, fused at its accel-weighted centroid, leaves the fused
    accel as it is: correcting with the matching virtual bias recovers
    the unbiased fusion exactly."""
    cfg_sim = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(5.0), 0.0]),
                    p=np.array([0.12, 0.0, 0.0]))
    vcfg = centroid_frame(ext, MEMS, NoiseSpec(sigma_a=4 * MEMS.sigma_a))
    b_v = np.array([0.03, -0.02, 0.04])

    clean = []
    biased = []
    for rot, pos in zip(vcfg.rotations, vcfg.positions):
        from mimufusion.geometry import quat_from_rotation

        mount = Extrinsic(q=quat_from_rotation(rot), p=pos)
        s = simulate_imu(cfg_sim, mount, NoiseSpec.zero())
        clean.append(s)
        from dataclasses import replace

        biased.append(replace(s, gyro=s.gyro + rot @ b_v))

    fused_clean = fuse_series(vcfg, clean)
    fused_biased = fuse_series(vcfg, biased)
    state = VimuState(rotation=np.eye(3), position=np.zeros(3),
                      velocity=np.zeros(3), bias_gyro=b_v,
                      bias_accel=np.zeros(3))
    w_hat, a_hat = bias_correct(fused_biased, state)
    np.testing.assert_allclose(w_hat, fused_clean.gyro, atol=1e-12)
    np.testing.assert_allclose(a_hat, fused_clean.accel, atol=1e-12)
    np.testing.assert_array_equal(fused_biased.accel, fused_clean.accel)


def test_preintegrate_static():
    T = 1.0
    series, vcfg = still_series(duration=T + 2.0 / 200.0)
    assert series.duration == pytest.approx(T)
    delta = preintegrate_windows(series, VimuState.identity(), len(series))[0]
    np.testing.assert_allclose(delta.rotation, np.eye(3), atol=1e-12)
    assert np.linalg.norm(delta.velocity) == pytest.approx(9.81 * T, rel=1e-9)
    assert np.linalg.norm(delta.position) == pytest.approx(
        0.5 * 9.81 * T**2, rel=1e-9)
    assert delta.duration == pytest.approx(T)
    assert delta.count == len(series)


def test_preintegrate_constant_rate_exact_rotation():
    freq = 200.0
    k = 200
    w = np.tile([0.0, 0.0, 1.0], (k, 1))
    series = ImuSeries(freq=freq, start_ns=0, gyro=w,
                       accel=np.zeros((k, 3)))
    vcfg = single_frame(NoiseSpec.zero())
    delta = preintegrate_windows(series, VimuState.identity(), len(series))[0]
    # same-axis increments compose exactly: Exp(z dt)^k = Exp(z k dt)
    assert geodesic_angle(delta.rotation, exp_so3([0.0, 0.0, 1.0])) < 1e-12
    np.testing.assert_allclose(delta.velocity, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(delta.position, np.zeros(3), atol=1e-15)


def test_preintegrate_matches_propagate_step():
    cfg_sim = SimConfig(freq=200.0, duration=0.5)
    series, vcfg = virtual_from_body(cfg_sim, noise=MEMS, seed=50)
    noise_v = virtual_covariances(vcfg.noises)
    state = VimuState.identity()
    batched = preintegrate_windows(series, state, len(series), noise_v)[0]

    w_hat, a_hat = bias_correct(series, state)
    delta = identity_delta()
    for t in range(len(series)):
        delta = propagate_step(delta, w_hat[t], a_hat[t], vcfg, noise_v,
                               series.freq)
    np.testing.assert_allclose(batched.rotation, delta.rotation, atol=1e-12)
    np.testing.assert_allclose(batched.velocity, delta.velocity, atol=1e-12)
    np.testing.assert_allclose(batched.position, delta.position, atol=1e-12)
    np.testing.assert_allclose(batched.covariance, delta.covariance,
                               rtol=1e-10, atol=1e-25)
    assert batched.count == delta.count


def test_first_order_error_halves_with_rate():
    """Doubling the sample rate halves the end-position error of the
    sample-and-hold integrator."""
    errors = {}
    for freq in (200.0, 400.0):
        cfg_sim = SimConfig(freq=freq, duration=1.5)
        series, vcfg = virtual_from_body(cfg_sim)
        t0 = series.start_ns * 1e-9
        start_true = sample_trajectory(cfg_sim, t0)
        start = VimuState(rotation=start_true.rotation,
                          position=start_true.position,
                          velocity=start_true.velocity)
        delta = preintegrate_windows(series, start, len(series))[0]
        end = predict_state(start, delta, cfg_sim.gravity)
        end_true = sample_trajectory(cfg_sim, t0 + delta.duration)
        errors[freq] = np.linalg.norm(end.position - end_true.position)
    ratio = errors[400.0] / errors[200.0]
    assert 0.35 <= ratio <= 0.65


def test_covariance_single_step_is_input_mapping():
    vcfg = single_frame(MEMS)
    noise_v = virtual_covariances(vcfg.noises)
    freq = 200.0
    dt = 1.0 / freq
    w = np.array([0.2, -0.1, 0.4])
    a = np.array([0.5, 0.1, 9.6])
    delta = propagate_step(identity_delta(), w, a, vcfg, noise_v, freq)
    cov = preintegrate_stack(w[None, None], a[None, None], freq, noise_v)[3][0]
    B = scalar_step_matrices(np.eye(3), exp_so3(w * dt), w, a, vcfg, dt).b
    s_eta = np.zeros((6, 6))
    s_eta[:3, :3] = noise_v.gyro * freq
    s_eta[3:, 3:] = noise_v.accel * freq
    expected = B @ s_eta @ B.T
    np.testing.assert_allclose(delta.covariance, expected, atol=1e-25)
    np.testing.assert_allclose(cov, expected, atol=1e-25)


def test_covariance_zero_noise_stays_zero():
    cfg_sim = SimConfig(freq=200.0, duration=0.5)
    series, vcfg = virtual_from_body(cfg_sim)
    delta = preintegrate_windows(series, VimuState.identity(), len(series),
                                 zero_vimu_noise())[0]
    np.testing.assert_array_equal(delta.covariance, np.zeros((9, 9)))


def test_covariance_symmetric_psd_along_trajectory():
    cfg_sim = SimConfig(freq=200.0, duration=2.0)
    ext = Extrinsic(p=np.array([0.1, 0.0, 0.0]))
    vcfg = centroid_frame(ext, MEMS, MEMS)
    noise_v = virtual_covariances(vcfg.noises)
    from mimufusion.geometry import quat_from_rotation

    series = fuse_series(vcfg, [
        simulate_imu(cfg_sim, Extrinsic(q=quat_from_rotation(r), p=p), n,
                     seed=i)
        for i, (r, p, n) in enumerate(zip(vcfg.rotations, vcfg.positions,
                                          vcfg.noises))
    ])
    delta = preintegrate_windows(series, VimuState.identity(), len(series),
                                 noise_v)[0]
    cov = delta.covariance
    np.testing.assert_allclose(cov, cov.T, atol=1e-30)
    assert np.linalg.eigvalsh(cov)[0] >= -1e-12
    # uncertainty must grow: trace strictly positive after 2 s of noise
    assert np.trace(cov) > 0


def test_covariance_matches_hand_rolled_single_imu():
    """Co-located equal pair behaves like one IMU with halved variances;
    the recursion is re-implemented here from scratch."""
    vcfg = centroid_frame(Extrinsic(), MEMS, MEMS)
    noise_v = virtual_covariances(vcfg.noises)
    freq = 200.0
    dt = 1.0 / freq
    rng = np.random.default_rng(51)
    k = 50
    w = rng.normal(size=(k, 3)) * 0.5
    a = rng.normal(size=(k, 3)) * 2.0
    series = ImuSeries(freq=freq, start_ns=0, gyro=w, accel=a)
    delta = preintegrate_windows(series, VimuState.identity(), len(series),
                                 noise_v)[0]

    q_g = 0.5 * MEMS.sigma_g**2 * freq
    q_a = 0.5 * MEMS.sigma_a**2 * freq
    cov = np.zeros((9, 9))
    dR = np.eye(3)
    for t in range(k):
        step = exp_so3(w[t] * dt)
        A = np.zeros((9, 9))
        A[0:3, 0:3] = step.T
        A[3:6, 0:3] = -dR @ skew(a[t]) * dt
        A[3:6, 3:6] = np.eye(3)
        A[6:9, 0:3] = -0.5 * dR @ skew(a[t]) * dt**2
        A[6:9, 3:6] = dt * np.eye(3)
        A[6:9, 6:9] = np.eye(3)
        B = np.zeros((9, 6))
        B[0:3, 0:3] = right_jacobian(w[t] * dt) * dt
        B[3:6, 3:6] = dR * dt
        B[6:9, 3:6] = 0.5 * dR * dt**2
        s_eta = np.diag([q_g] * 3 + [q_a] * 3)
        cov = A @ cov @ A.T + B @ s_eta @ B.T
        cov = 0.5 * (cov + cov.T)
        dR = dR @ step
    np.testing.assert_allclose(delta.covariance, cov, rtol=1e-10, atol=1e-30)


def test_psi_colocated_zero():
    vcfg = centroid_frame(Extrinsic(), MEMS, MEMS)
    out = psi_matrix(vcfg, np.array([0.3, -0.2, 0.5]))
    np.testing.assert_array_equal(out, np.zeros((6, 3)))


def test_psi_zero_rate():
    ext = Extrinsic(p=np.array([0.1, 0.0, 0.0]))
    vcfg = centroid_frame(ext, MEMS, MEMS)
    out = psi_matrix(vcfg, np.zeros(3))
    # at w=0 only the [w x p] part could survive, and it is zero too
    np.testing.assert_array_equal(out, np.zeros((6, 3)))


def test_psi_is_lever_stack_jacobian():
    """Finite-difference check of d(lever stack)/d(omega)."""
    from oracle import lever_arm_stack

    ext = Extrinsic(q=quat_from_rotvec([0.1, 0.2, -0.1]),
                    p=np.array([0.08, -0.03, 0.05]))
    vcfg = centroid_frame(ext, MEMS, NoiseSpec(sigma_a=3e-3))
    w = np.array([0.4, -0.7, 0.2])
    wd = np.array([1.0, 0.5, -0.3])
    psi = psi_matrix(vcfg, w)
    eps = 1e-7
    fd = np.zeros((6, 3))
    for j in range(3):
        dw = np.zeros(3)
        dw[j] = eps
        fd[:, j] = (lever_arm_stack(vcfg, w + dw, wd)
                    - lever_arm_stack(vcfg, w - dw, wd)) / (2 * eps)
    np.testing.assert_allclose(psi, fd, atol=1e-6)


def test_midpoint_psi_coupling_cancels():
    """The accel-solve contraction of psi vanishes for an equal pair at
    its midpoint, which is its accel-weighted centroid: the covariance
    kernel has no gyro-to-position block to fill."""
    ext = Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(5.0), 0.0]),
                    p=np.array([0.12, 0.0, 0.0]))
    vcfg = centroid_frame(ext, MEMS, MEMS)
    rng = np.random.default_rng(52)
    for _ in range(10):
        w = rng.normal(size=3)
        coupled = general_solves(vcfg)[1] @ psi_matrix(vcfg, w)
        np.testing.assert_allclose(coupled, np.zeros((3, 3)), atol=1e-12)


def test_predict_state_identity_delta():
    rng = np.random.default_rng(53)
    start = VimuState(rotation=exp_so3(rng.normal(size=3)),
                      position=rng.normal(size=3),
                      velocity=rng.normal(size=3))
    out = predict_state(start, identity_delta(), GRAVITY)
    np.testing.assert_array_equal(out.rotation, start.rotation)
    np.testing.assert_array_equal(out.position, start.position)
    np.testing.assert_array_equal(out.velocity, start.velocity)


def test_predict_state_static_equilibrium():
    T = 1.0
    series, vcfg = still_series(duration=T + 2.0 / 200.0)
    delta = preintegrate_windows(series, VimuState.identity(), len(series))[0]
    out = predict_state(VimuState.identity(), delta, GRAVITY)
    np.testing.assert_allclose(out.velocity, np.zeros(3), atol=1e-9)
    np.testing.assert_allclose(out.position, np.zeros(3), atol=1e-9)
    np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-12)


def test_delta_independent_of_start_pose():
    """The increments live in the start frame: changing the start pose
    must not change them (biases held fixed)."""
    cfg_sim = SimConfig(freq=200.0, duration=0.5)
    series, vcfg = virtual_from_body(cfg_sim)
    s1 = VimuState.identity()
    s2 = VimuState(rotation=exp_so3([0.3, -0.2, 0.9]),
                   position=np.array([5.0, -2.0, 1.0]),
                   velocity=np.array([1.0, 1.0, -1.0]))
    d1 = preintegrate_windows(series, s1, len(series))[0]
    d2 = preintegrate_windows(series, s2, len(series))[0]
    np.testing.assert_array_equal(d1.rotation, d2.rotation)
    np.testing.assert_array_equal(d1.velocity, d2.velocity)
    np.testing.assert_array_equal(d1.position, d2.position)


def test_predict_state_composes_chain():
    """Predicting through one long window equals predicting through its
    halves chained, up to integrator associativity noise."""
    cfg_sim = SimConfig(freq=400.0, duration=1.0)
    series, vcfg = virtual_from_body(cfg_sim)
    k = len(series)
    half = k // 2
    first = ImuSeries(freq=series.freq, start_ns=series.start_ns,
                      gyro=series.gyro[:half], accel=series.accel[:half])
    t0 = series.start_ns * 1e-9
    start_true = sample_trajectory(cfg_sim, t0)
    start = VimuState(rotation=start_true.rotation,
                      position=start_true.position,
                      velocity=start_true.velocity)

    d_full = preintegrate_windows(series, start, len(series))[0]
    end_full = predict_state(start, d_full, cfg_sim.gravity)

    d1 = preintegrate_windows(first, start, len(first))[0]
    mid = predict_state(start, d1, cfg_sim.gravity)
    second = ImuSeries(
        freq=series.freq,
        start_ns=series.start_ns + round(half * 1e9 / series.freq),
        gyro=series.gyro[half:], accel=series.accel[half:])
    d2 = preintegrate_windows(second, mid, len(second))[0]
    end_chained = predict_state(mid, d2, cfg_sim.gravity)

    np.testing.assert_allclose(end_chained.position, end_full.position,
                               atol=1e-9)
    np.testing.assert_allclose(end_chained.velocity, end_full.velocity,
                               atol=1e-9)
    assert geodesic_angle(end_chained.rotation, end_full.rotation) < 1e-10


# --- keyframe windows -------------------------------------------------

BIASED = VimuState(rotation=np.eye(3), position=np.zeros(3),
                   velocity=np.zeros(3),
                   bias_gyro=np.array([0.02, -0.015, 0.01]),
                   bias_accel=np.array([0.05, -0.03, 0.08]))


def window_configs():
    """1-, 2- and 4-sensor arrays at their accel-weighted centroids. The
    2- and 4-sensor frames are off every sensor and weigh them unequally,
    so the oracle's per-sensor psi blocks are nonzero and only their
    fused sum vanishes."""
    rot = exp_so3([0.05, -0.1, 0.2])
    one = single_frame(MEMS, rotation=rot)
    two = centroid_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.05]),
                                   p=np.array([0.1, 0.02, -0.01])),
                         MEMS, NoiseSpec(sigma_a=4e-3))
    four = centred_config(
        rotations=[exp_so3(0.05 * np.array([i, -i, 0.5 * i])) for i in range(4)],
        positions=[np.array([x, y, 0.0]) for x in (-0.05, 0.05) for y in (-0.05, 0.05)],
        noises=[MEMS, NoiseSpec(sigma_a=3e-3), MEMS, NoiseSpec(sigma_a=2.5e-3)],
    )
    return {"1-sensor": one, "2-sensor": two, "4-sensor": four}


def random_virtual_series(k, seed, freq=200.0):
    rng = np.random.default_rng(seed)
    return ImuSeries(
        freq=freq, start_ns=0,
        gyro=rng.normal(scale=0.6, size=(k, 3)),
        accel=GRAVITY + rng.normal(scale=1.5, size=(k, 3)))


def window_of(series, j, step):
    sl = slice(j * step, (j + 1) * step)
    return ImuSeries(freq=series.freq, start_ns=0, gyro=series.gyro[sl],
                     accel=series.accel[sl])


def fold_window(window, state, cfg, noise):
    """Independent oracle: propagate_step over one window, sample by
    sample."""
    w_hat, a_hat = bias_correct(window, state)
    delta = identity_delta()
    for t in range(len(window)):
        delta = propagate_step(delta, w_hat[t], a_hat[t], cfg, noise,
                               window.freq)
    return delta


def assert_delta_close(got, want):
    np.testing.assert_allclose(got.rotation, want.rotation, atol=1e-12)
    np.testing.assert_allclose(got.velocity, want.velocity, atol=1e-12)
    np.testing.assert_allclose(got.position, want.position, atol=1e-12)
    np.testing.assert_allclose(got.covariance, want.covariance,
                               rtol=1e-10, atol=1e-25)
    assert got.count == want.count
    assert got.duration == pytest.approx(want.duration, rel=1e-15)


@pytest.mark.parametrize("name", ["1-sensor", "2-sensor", "4-sensor"])
def test_windows_match_propagate_step_fold(name):
    cfg = window_configs()[name]
    noise_v = virtual_covariances(cfg.noises)
    step, n_windows, remainder = 40, 6, 17
    series = random_virtual_series(n_windows * step + remainder, seed=60)
    deltas = preintegrate_windows(series, BIASED, step, noise_v)
    assert len(deltas) == n_windows
    for j, delta in enumerate(deltas):
        want = fold_window(window_of(series, j, step), BIASED, cfg, noise_v)
        assert np.trace(want.covariance) > 0
        assert_delta_close(delta, want)

    # without a noise model the increments are the same and the deltas
    # carry no covariance
    plain = preintegrate_windows(series, BIASED, step)
    for got, want in zip(plain, deltas):
        np.testing.assert_array_equal(got.rotation, want.rotation)
        np.testing.assert_array_equal(got.velocity, want.velocity)
        np.testing.assert_array_equal(got.position, want.position)
        assert got.covariance is None


def test_windows_ignore_remainder_samples():
    """Trailing samples that fill no whole window never reach a delta:
    poisoning them with a rate whose cube overflows under the noise
    model, which the kernel refuses when it reads one, changes nothing."""
    cfg = window_configs()["2-sensor"]
    noise_v = virtual_covariances(cfg.noises)
    step, n_windows = 25, 5
    whole = random_virtual_series(n_windows * step, seed=61)
    pad = np.full((step - 1, 3), 1e150)
    padded = ImuSeries(
        freq=whole.freq, start_ns=0,
        gyro=np.vstack([whole.gyro, pad]),
        accel=np.vstack([whole.accel, pad]))
    with pytest.raises(FormatError, match="overflows"):
        preintegrate_windows(padded, BIASED, step + 1, noise_v)
    got = preintegrate_windows(padded, BIASED, step, noise_v)
    want = preintegrate_windows(whole, BIASED, step, noise_v)
    assert len(got) == len(want) == n_windows
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g.covariance))
        assert_delta_close(g, w)


def test_windows_series_shorter_than_one_window():
    cfg = window_configs()["1-sensor"]
    noise_v = virtual_covariances(cfg.noises)
    series = random_virtual_series(39, seed=62)
    assert preintegrate_windows(series, BIASED, 40, noise_v) == []
    exact = preintegrate_windows(series, BIASED, 39, noise_v)
    assert len(exact) == 1
    assert_delta_close(exact[0], fold_window(series, BIASED, cfg, noise_v))


def test_windows_argument_checks():
    series = random_virtual_series(50, seed=63)
    with pytest.raises(ValueError):
        preintegrate_windows(series, BIASED, 0)


def test_windows_reject_an_angle_whose_cube_overflows_under_a_noise_model():
    """From sample 30 on the stream turns at 1e150 rad/s, 5e147 rad per
    period at 200 Hz, whose cube overflows in the right Jacobian. With a
    noise model preintegrate_windows raises FormatError naming sample 30
    instead of a numpy overflow warning and a covariance computed through
    it; without one the deltas carry no covariance and are integrated."""
    noise_v = virtual_covariances(window_configs()["2-sensor"].noises)
    series = random_virtual_series(50, seed=64)
    gyro = series.gyro.copy()
    gyro[30:] = [1e150, -2e149, 0.0]
    series = dataclasses.replace(series, gyro=gyro)
    with pytest.raises(FormatError) as info:
        preintegrate_windows(series, BIASED, 25, noise_v)
    assert str(info.value) == ("sample 30 turns 5.1e+147 rad in one period, "
                               "an angle whose cube overflows")
    deltas = preintegrate_windows(series, BIASED, 25)
    assert len(deltas) == 2 and all(d.covariance is None for d in deltas)


def two_trial_configs():
    """Two 2-sensor arrays, one per trial, and the first array's virtual
    noise model."""
    cfgs = [window_configs()["2-sensor"], centroid_frame(
        Extrinsic(q=quat_from_rotvec([0.02, -0.1, 0.0]), p=np.array([-0.05, 0.1, 0.02])),
        MEMS, NoiseSpec(sigma_a=4e-3))]
    return cfgs, virtual_covariances(cfgs[0].noises)


def test_stack_over_trials_matches_windows_per_series():
    """One preintegrate_stack call over a trial axis equals a
    preintegrate_windows call per series: the list wrapper is the
    kernel's one-series case."""
    cfgs, noise_v = two_trial_configs()
    step, n_windows = 30, 4
    series = [random_virtual_series(n_windows * step, seed=64 + k) for k in range(2)]
    shape = (2, n_windows, step, 3)
    dR, dv, dp, cov = preintegrate_stack(
        np.stack([s.gyro for s in series]).reshape(shape),
        np.stack([s.accel for s in series]).reshape(shape), 200.0, noise_v)
    assert dR.shape == (2, n_windows, 3, 3) and cov.shape == (2, n_windows, 9, 9)
    plain = preintegrate_stack(np.stack([s.gyro for s in series]).reshape(shape),
                               np.stack([s.accel for s in series]).reshape(shape), 200.0)
    assert plain[3] is None
    for k, one in enumerate(series):
        deltas = preintegrate_windows(one, VimuState.identity(), step, noise_v)
        for j, want in enumerate(deltas):
            np.testing.assert_allclose(dR[k, j], want.rotation, rtol=0, atol=1e-15)
            np.testing.assert_allclose(dv[k, j], want.velocity, rtol=0, atol=1e-14)
            np.testing.assert_allclose(dp[k, j], want.position, rtol=0, atol=1e-14)
            np.testing.assert_allclose(cov[k, j], want.covariance, rtol=1e-13,
                                       atol=1e-13 * np.abs(want.covariance).max())
    for got, want in zip(plain[:3], (dR, dv, dp)):
        np.testing.assert_array_equal(got, want)


# --- the blocked kernel -----------------------------------------------------

def anisotropic_noise():
    """A virtual noise model whose Q_g and Q_a are PSD but not multiples
    of I, as a sidecar may hold: the fused models are always isotropic."""
    rng = np.random.default_rng(75)
    a_g, a_a = rng.normal(size=(3, 3)) * 1e-4, rng.normal(size=(3, 3)) * 3e-3
    z = np.zeros((3, 3))
    return VimuNoise(gyro=a_g @ a_g.T, gyro_bias=z, accel=a_a @ a_a.T, accel_bias=z)


@pytest.mark.parametrize("step", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("model", ["plain", "covariance", "anisotropic"])
def test_stack_blocks_match_per_sample_fold(step, model):
    """Windows shorter than, as long as and longer than one block of
    preintegrate_stack, over a trial axis, equal the oracle's per-sample
    fold at each trial's own array within 1e-12, under the fused
    (isotropic) noise model and an anisotropic one."""
    cfgs, noise_v = two_trial_configs()
    if model == "anisotropic":
        noise_v = anisotropic_noise()
    with_noise = model != "plain"
    n_windows = 3
    series = [random_virtual_series(n_windows * step, seed=70 + k) for k in range(2)]
    shape = (2, n_windows, step, 3)
    dR, dv, dp, cov = preintegrate_stack(
        np.stack([s.gyro for s in series]).reshape(shape),
        np.stack([s.accel for s in series]).reshape(shape), 200.0,
        noise_v if with_noise else None)
    assert (cov is None) == (not with_noise)
    for k, (cfg, one) in enumerate(zip(cfgs, series)):
        for j in range(n_windows):
            want = fold_window(window_of(one, j, step), VimuState.identity(), cfg, noise_v)
            np.testing.assert_allclose(dR[k, j], want.rotation, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dv[k, j], want.velocity, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dp[k, j], want.position, rtol=0, atol=1e-12)
            if with_noise:
                np.testing.assert_allclose(cov[k, j], want.covariance, rtol=1e-12,
                                           atol=1e-12 * np.abs(want.covariance).max())


@pytest.mark.parametrize("with_noise", [False, True], ids=["plain", "covariance"])
def test_stack_peak_memory_below_two_rotation_arrays(with_noise):
    """Preintegrating the 60 s sim_pair virtual series in 0.5 s windows
    holds less than two (k, 3, 3) arrays at its peak: the kernel's
    working memory grows with its block, not with the series."""
    sim, imus = load_sim_setup(Path(__file__).resolve().parents[1]
                               / "configs" / "sim_pair.yaml")
    cfg = body_frame([m for _, m, _ in imus], [n for _, _, n in imus])
    series = fuse_series(cfg, [simulate_imu(sim, m, n, seed=i)
                              for i, (_, m, n) in enumerate(imus)])
    noise_v = virtual_covariances(cfg.noises) if with_noise else None
    k = len(series)
    assert k > 11_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        deltas = preintegrate_windows(series, VimuState.identity(), 100, noise_v)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(deltas) == k // 100
    assert peak < 2 * k * 9 * 8, f"peak {peak / 1e6:.2f} MB for {k} samples"


# --- NEES consistency beyond criterion 6 ----------------------------------

# The pair of criterion 6: sensor B 10 cm from A along body x, twisted
# 5 degrees about y.
PAIR = (Extrinsic(p=np.array([-0.05, 0.0, 0.0])),
        Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(5.0), 0.0]),
                  p=np.array([0.05, 0.0, 0.0])))
WHITE = NoiseSpec(sigma_bg=0.0, sigma_ba=0.0)


# A third sensor mirrors B about A, so that A's origin is the centroid
# of an equal-noise triple.
TRIPLE = PAIR + (Extrinsic(q=quat_from_rotvec([0.0, np.deg2rad(-5.0), 0.0]),
                           p=np.array([-0.15, 0.0, 0.0])),)


def body_frame(mounts, noises) -> VimuConfig:
    """Virtual frame with the body's axes at the mounts' accel-weighted
    centroid."""
    return centred_config([rotation_from_quat(m.q) for m in mounts],
                          [m.p for m in mounts], noises)


NEES_CASES = {
    "unequal-sigma-a": (PAIR, lambda: body_frame(
        PAIR, (NoiseSpec(sigma_a=2e-3, sigma_bg=0.0, sigma_ba=0.0),
               NoiseSpec(sigma_a=8e-3, sigma_bg=0.0, sigma_ba=0.0)))),
    "frame-at-sensor-a": (TRIPLE, lambda: body_frame(TRIPLE, (WHITE,) * 3)),
    "4-corner-sensors": ([grid_extrinsics()[i] for i in (0, 2, 6, 8)],
                         lambda: array_frame([grid_extrinsics()[i] for i in (0, 2, 6, 8)],
                                             [WHITE] * 4)[0]),
    "9-sensor-grid": (grid_extrinsics(),
                      lambda: array_frame(grid_extrinsics(), [WHITE] * 9)[0]),
    "bias-walk-on": (PAIR, lambda: body_frame(PAIR, (MEMS,) * 2)),
}


def mean_nees(mounts, cfg: VimuConfig, trials: int, seed: int,
              batch: int = 200) -> float:
    """Mean 9-dof NEES of one-second keyframe deltas over noisy trials of
    the default trajectory, against the noise-free delta and the 9x9
    covariance that preintegrate_windows propagates for it."""
    freq = 200.0
    # 202 raw samples so the fused series spans exactly one second
    sim = SimConfig(freq=freq, duration=(int(freq) + 2) / freq)
    ideal = np.array([ideal_imu_series(sim, m) for m in mounts])  # (m, 2, n, 3)
    clean = fuse_series(cfg, [ImuSeries(freq, 0, w, a) for w, a in ideal])
    reference = preintegrate_windows(clean, VimuState.identity(), len(clean),
                                     virtual_covariances(cfg.noises))[0]
    info = np.linalg.inv(reference.covariance)
    rng = np.random.default_rng(seed)
    nees = []
    for _ in range(trials // batch):
        raw = np.empty((batch, 2, sim.sample_count, len(mounts), 3))
        for j, spec in enumerate(cfg.noises):
            rows = np.broadcast_to(ideal[j][:, :, None], (2, raw.shape[2], batch, 3))
            raw[:, :, :, j] = apply_measurement_noise_stack(
                rows, spec, freq, rng).transpose(2, 0, 1, 3)
        w, a = _fused_rows(raw[:, 0], raw[:, 1], _fusion_matrices(
            np.stack(cfg.rotations), cfg.noises, len(mounts)), sim.sample_count - 2)
        dR, dv, dp, _ = preintegrate_stack(w[:, None], a[:, None], freq)
        err = np.concatenate([log_so3(reference.rotation.T @ dR[:, 0]),
                              dv[:, 0] - reference.velocity,
                              dp[:, 0] - reference.position], axis=-1)
        nees.append(np.einsum("ti,ij,tj->t", err, info, err))
    return float(np.mean(nees))


def test_preintegrate_stack_matches_matmul_rotation_oracle():
    """Rotating the specific force by three broadcast multiply-adds over
    the rotation's columns gives the stacked-matmul form's deltas: the
    same rotations, and dv and dp within 1e-15 of their largest entry."""
    import oracle

    sim = SimConfig(freq=200.0, duration=3.0)
    ideal = np.array([ideal_imu_series(sim, m) for m in grid_extrinsics()[:3]])
    noisy = apply_measurement_noise_stack(ideal.transpose(1, 2, 0, 3), MEMS, 200.0,
                                          np.random.default_rng(0))
    gyro, accel = (noisy[j, :500].swapaxes(0, 1).reshape(3, 5, 100, 3) for j in (0, 1))
    dR, dv, dp, _ = preintegrate_stack(gyro, accel, 200.0)
    want_R, want_v, want_p = oracle.preintegrate_stack(gyro, accel, 200.0)
    assert np.array_equal(dR, want_R)
    for got, want in ((dv, want_v), (dp, want_p)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("case", list(NEES_CASES))
def test_nees_consistent_beyond_criterion_6(case):
    """Criterion 6's band for the 9x9 covariance, on the configurations
    it does not cover: unequal noise, a frame on one sensor of a triple,
    larger arrays and a live bias walk."""
    mounts, make_cfg = NEES_CASES[case]
    nees = mean_nees(mounts, make_cfg(), trials=600, seed=2024)
    assert 7.5 <= nees <= 10.5, f"{case}: mean NEES {nees:.2f}"
