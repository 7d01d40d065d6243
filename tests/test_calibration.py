import re
import time

import numpy as np
import pytest
import oracle
from oracle import residual_omega, simulate_imu, still_trajectory

from mimufusion.calibration import (
    CalibrationInput,
    WeightSchedule,
    calibrate,
    estimate_angular_accel,
    fit_rotation,
    fit_translation,
    sigma_accel,
    sigma_omega,
)
from mimufusion.errors import (
    DegenerateMotion,
    LengthMismatch,
    RateMismatch,
)
from mimufusion.geometry import (
    geodesic_angle,
    quat_from_rotation,
    quat_from_rotvec,
    rotation_from_quat,
    skew,
)
from mimufusion.simulation import SimConfig, transfer_measurement
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec


Q_5DEG_Y = quat_from_rotvec(np.array([0.0, np.deg2rad(5.0), 0.0]))
MEMS_NOISE = NoiseSpec()


def make_pair(ext, duration=10.0, freq=200.0, noise_a=None, noise_b=None,
              seed=None, trajectory=None):
    """Simulate a synchronized pair: A at the body origin, B mounted at ext."""
    kwargs = {} if trajectory is None else {"trajectory": trajectory}
    cfg = SimConfig(freq=freq, duration=duration, **kwargs)
    na = NoiseSpec.zero() if noise_a is None else noise_a
    nb = NoiseSpec.zero() if noise_b is None else noise_b
    if seed is None:
        sa = simulate_imu(cfg, Extrinsic.identity(), na, seed=1)
        sb = simulate_imu(cfg, Extrinsic(q=ext.q, p=ext.p), nb, seed=2)
    else:
        ss = np.random.SeedSequence(seed).spawn(2)
        sa = simulate_imu(cfg, Extrinsic.identity(), na, seed=ss[0])
        sb = simulate_imu(cfg, Extrinsic(q=ext.q, p=ext.p), nb, seed=ss[1])
    return CalibrationInput(series_a=sa, series_b=sb, noise_a=na, noise_b=nb)


def pair_weights(inp):
    """The weight schedule that calibrate builds for one pair."""
    return WeightSchedule.build(len(inp.series_a), inp.noise_a, inp.noise_b,
                                1.0 / inp.series_a.freq)


def translation_stage(inp, R=np.eye(3)):
    """fit_translation on one pair at rotation R, with calibrate's weights."""
    a, b = inp.series_a, inp.series_b
    return fit_translation(R, a.gyro, a.accel, b.gyro, b.accel, a.freq,
                           pair_weights(inp).w_accel[1:-1])


def test_residual_omega_identity_zero():
    w = np.array([0.3, -0.2, 0.5])
    out = residual_omega(np.array([1.0, 0.0, 0.0, 0.0]), w, w)
    np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)


def test_residual_omega_quarter_turn_zero():
    q = quat_from_rotvec(np.array([0.0, 0.0, np.pi / 2]))
    out = residual_omega(q, np.array([1.0, 0.0, 0.0]),
                         np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, np.zeros(3), atol=1e-12)


def test_residual_omega_mismatch():
    out = residual_omega(np.array([1.0, 0.0, 0.0, 0.0]),
                         np.array([1.0, 0.0, 0.0]),
                         np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [-1.0, 1.0, 0.0], atol=1e-15)


def test_residual_omega_rows():
    rng = np.random.default_rng(30)
    q = quat_from_rotvec(rng.normal(size=3))
    wa = rng.normal(size=(40, 3))
    wb = wa @ rotation_from_quat(q).T
    np.testing.assert_allclose(residual_omega(q, wa, wb),
                               np.zeros((40, 3)), atol=1e-12)


def test_sigma_omega_constant_without_bias_walk():
    na = NoiseSpec(sigma_g=1e-3, sigma_bg=0.0)
    nb = NoiseSpec(sigma_g=2e-3, sigma_bg=0.0)
    dt = 1.0 / 200.0
    assert sigma_omega(1, na, nb, dt) == sigma_omega(5000, na, nb, dt)


def test_sigma_omega_pure_walk_scales_linearly():
    na = NoiseSpec(sigma_g=0.0, sigma_bg=1e-4)
    nb = NoiseSpec(sigma_g=0.0, sigma_bg=1e-4)
    dt = 0.01
    assert sigma_omega(100, na, nb, dt) == pytest.approx(
        2 * sigma_omega(50, na, nb, dt))


def test_sigma_omega_plugin_value():
    na = nb = NoiseSpec()
    dt = 1.0 / 200.0
    t = 200
    expected = (1.7e-4**2 + 1.7e-4**2) * 200.0 + (1e-5**2 + 1e-5**2) * t / 200.0
    assert sigma_omega(t, na, nb, dt) == pytest.approx(expected, rel=1e-12)


def test_sigma_accel_without_gyro_noise():
    na = NoiseSpec(sigma_g=0.0, sigma_bg=0.0, sigma_a=1e-3, sigma_ba=1e-4)
    nb = NoiseSpec(sigma_g=0.0, sigma_bg=0.0, sigma_a=2e-3, sigma_ba=0.0)
    dt = 0.005
    t = 40
    expected = (1e-3**2 + 2e-3**2) / dt + 1e-4**2 * dt * t
    assert sigma_accel(t, na, nb, dt) == pytest.approx(expected, rel=1e-12)


def test_sigma_accel_symmetric_virtual_term():
    sigma = 3e-4
    na = nb = NoiseSpec(sigma_g=sigma, sigma_bg=0.0, sigma_a=0.0, sigma_ba=0.0)
    dt = 1.0 / 100.0
    # equal gyro sigmas halve the fused white density: (sigma^2 / (2 dt))^2
    assert sigma_accel(7, na, nb, dt) == pytest.approx(
        (sigma**2 / (2 * dt)) ** 2, rel=1e-12)


def test_sigma_accel_plugin_value():
    na = nb = NoiseSpec()
    dt = 1.0 / 200.0
    t = 100
    g2 = 1.7e-4**2
    virt = g2 * g2 / (2 * g2 * dt) + (
        g2**2 * 1e-5**2 + g2**2 * 1e-5**2) / (2 * g2) ** 2 * dt * t
    expected = virt**2 + 2 * 2e-3**2 / dt + 2 * 3e-4**2 * dt * t
    assert sigma_accel(t, na, nb, dt) == pytest.approx(expected, rel=1e-12)


def test_weight_schedule_positive_and_monotonic():
    ws = WeightSchedule.build(5000, NoiseSpec(), NoiseSpec(), 1.0 / 200.0)
    for w in (ws.w_omega, ws.w_accel):
        assert len(w) == 5000
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)


def test_weight_schedule_rejects_nonpositive():
    with pytest.raises(ValueError):
        WeightSchedule(w_omega=np.array([1.0, 0.0]),
                       w_accel=np.array([1.0, 1.0]))


def test_residual_accel_colocated_zero():
    a = np.array([0.1, 9.7, -0.3])
    out = a - transfer_measurement(np.array([0.2, 0.0, 0.1]), np.zeros(3), a,
                                   Extrinsic.identity())[1]
    np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)


def test_residual_accel_centripetal():
    # B on the x axis, body spinning about z, both accels read zero:
    # the residual is minus the predicted centripetal acceleration.
    ext = Extrinsic(p=np.array([1.0, 0.0, 0.0]))
    out = np.zeros(3) - transfer_measurement(np.array([0.0, 0.0, 1.0]),
                                             np.zeros(3), np.zeros(3), ext)[1]
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)


def test_residual_accel_vanishes_on_rigid_pair():
    rng = np.random.default_rng(31)
    ext = Extrinsic(q=quat_from_rotvec(rng.normal(size=3)),
                    p=rng.normal(size=3) * 0.2)
    R = ext.rotation()
    w = rng.normal(size=(60, 3))
    wd = rng.normal(size=(60, 3))
    aa = rng.normal(size=(60, 3))
    lever = np.cross(w, np.cross(w, ext.p)) + np.cross(wd, ext.p)
    ab = (aa + lever) @ R.T
    out = ab - transfer_measurement(w, wd, aa, ext)[1]
    np.testing.assert_allclose(out, np.zeros((60, 3)), atol=1e-10)


def test_estimate_rotation_noiseless():
    inp = make_pair(Extrinsic(q=Q_5DEG_Y, p=np.array([0.1, 0.0, 0.0])))
    R, _, errors = fit_rotation(inp.series_a.gyro, inp.series_b.gyro,
                                pair_weights(inp).w_omega)
    assert errors == [None]
    assert geodesic_angle(R, rotation_from_quat(Q_5DEG_Y)) < 1e-6


def test_estimate_rotation_matches_procrustes_oracle():
    """With constant weights the library's weighted fit must agree with
    a closed-form SVD fit built here from scratch."""
    na = nb = NoiseSpec(sigma_bg=0.0)  # constant weight schedule
    inp = make_pair(Extrinsic(q=Q_5DEG_Y, p=np.zeros(3)),
                    noise_a=na, noise_b=nb)
    wa, wb = inp.series_a.gyro, inp.series_b.gyro
    R, _, _ = fit_rotation(wa, wb, pair_weights(inp).w_omega)

    B = wb.T @ wa
    U, _, VT = np.linalg.svd(B)
    d = np.sign(np.linalg.det(U) * np.linalg.det(VT))
    R_oracle = U @ np.diag([1.0, 1.0, d]) @ VT
    assert geodesic_angle(R, R_oracle) < 1e-8


def test_estimate_rotation_degenerate_on_static():
    inp = make_pair(Extrinsic.identity(),
                    trajectory=still_trajectory(), duration=2.0)
    with pytest.raises(DegenerateMotion, match="gyro second moment"):
        calibrate(inp)


def constant_rate_series(freq, n, omega):
    w = np.tile(omega, (n, 1))
    return ImuSeries(freq=freq, start_ns=0, gyro=w, accel=np.zeros((n, 3)))


def test_angular_accel_zero_for_constant_rate():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    s = constant_rate_series(200.0, 50, np.array([0.4, -0.2, 0.9]))
    out = estimate_angular_accel(q, s, s)
    assert out.shape == (48, 3)
    np.testing.assert_allclose(out, np.zeros((48, 3)), atol=1e-15)


def sinusoid_series(freq, duration, f_hz=0.5):
    ts = np.arange(round(freq * duration)) / freq
    w = np.zeros((len(ts), 3))
    w[:, 0] = np.sin(2 * np.pi * f_hz * ts)
    return ImuSeries(freq=freq, start_ns=0, gyro=w,
                     accel=np.zeros((len(ts), 3))), ts


def test_angular_accel_second_order_convergence():
    """Max error against the analytic derivative drops ~4x when the step
    halves."""
    q = np.array([1.0, 0.0, 0.0, 0.0])
    f_hz = 0.5
    errors = {}
    for freq in (200.0, 400.0):
        s, ts = sinusoid_series(freq, 4.0, f_hz)
        true = 2 * np.pi * f_hz * np.cos(2 * np.pi * f_hz * ts)
        est = estimate_angular_accel(q, s, s)
        # row j is sample j + 1; check every 7th sample as before
        err = 0.0
        for t in range(1, len(ts) - 1, 7):
            err = max(err, abs(est[t - 1, 0] - true[t]))
        errors[freq] = err
    ratio = errors[200.0] / errors[400.0]
    assert 3.5 <= ratio <= 4.5


def linear_rate_pair(p_true, freq=200.0, duration=2.0):
    """Synthetic rigid pair whose rate is affine in time, making the
    central-difference angular acceleration exact."""
    n = round(freq * duration)
    ts = np.arange(n) / freq
    base = np.array([0.9, 0.2, -0.3])
    slope = np.array([0.1, 0.8, 0.6])
    w = base + np.outer(ts, slope)
    wd = np.tile(slope, (n, 1))
    aa = np.zeros((n, 3))
    lever = np.cross(w, np.cross(w, p_true)) + np.cross(wd, p_true)
    ab = aa + lever
    sa = ImuSeries(freq=freq, start_ns=0, gyro=w, accel=aa)
    sb = ImuSeries(freq=freq, start_ns=0, gyro=w, accel=ab)
    return CalibrationInput(series_a=sa, series_b=sb,
                            noise_a=NoiseSpec.zero(), noise_b=NoiseSpec.zero())


def test_estimate_translation_exact_on_linear_rates():
    p_true = np.array([0.12, 0.0, 0.0])
    inp = linear_rate_pair(p_true)
    p, cost, errors = translation_stage(inp)
    assert errors == [None]
    np.testing.assert_allclose(p, p_true, atol=1e-8)
    assert cost < 1e-12


def test_estimate_translation_matches_lstsq_oracle():
    """Independent route: stack the whitened linear system and hand it to
    lstsq instead of the normal equations."""
    p_true = np.array([0.04, -0.07, 0.02])
    inp = linear_rate_pair(p_true)
    p, _, _ = translation_stage(inp)

    w = inp.series_a.gyro[1:-1]
    freq = inp.series_a.freq
    total = inp.series_b.gyro + inp.series_a.gyro
    wd = (freq / 4.0) * (total[2:] - total[:-2])
    rows = []
    rhs = []
    for k in range(w.shape[0]):
        M = skew(w[k]) @ skew(w[k]) + skew(wd[k])
        rows.append(M)
        rhs.append(inp.series_b.accel[1 + k] - inp.series_a.accel[1 + k])
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    p_oracle = np.linalg.lstsq(A, b, rcond=None)[0]
    np.testing.assert_allclose(p, p_oracle, atol=1e-10)


def test_estimate_translation_degenerate_on_constant_aligned_rate():
    # constant rate about a fixed axis: the design blocks share a null
    # direction, so the lever arm is unobservable along it
    n = 400
    w = np.tile([0.5, 0.0, 0.0], (n, 1))
    s = ImuSeries(freq=200.0, start_ns=0, gyro=w, accel=np.zeros((n, 3)))
    inp = CalibrationInput(series_a=s, series_b=s, noise_a=NoiseSpec.zero(),
                           noise_b=NoiseSpec.zero())
    _, _, (error,) = translation_stage(inp)
    assert isinstance(error, DegenerateMotion)


def test_calibrate_identical_series_gives_identity():
    cfg = SimConfig(freq=200.0, duration=5.0)
    s = simulate_imu(cfg, Extrinsic.identity(), NoiseSpec.zero(), seed=0)
    inp = CalibrationInput(series_a=s, series_b=s,
                           noise_a=NoiseSpec.zero(), noise_b=NoiseSpec.zero())
    res = calibrate(inp)
    assert geodesic_angle(res.extrinsic.rotation(), np.eye(3)) < 1e-10
    np.testing.assert_allclose(res.extrinsic.p, np.zeros(3), atol=1e-10)


def test_calibrate_noisy_weight_rescale_invariance():
    """Scaling every sigma by the same factor rescales all weights
    uniformly and must not move the optimum."""
    ext = Extrinsic(q=Q_5DEG_Y, p=np.array([0.1, 0.0, 0.0]))
    na = NoiseSpec()
    inp = make_pair(ext, duration=10.0, noise_a=na, noise_b=na, seed=99)
    scaled = NoiseSpec(sigma_g=7 * na.sigma_g, sigma_a=7 * na.sigma_a,
                       sigma_bg=7 * na.sigma_bg, sigma_ba=7 * na.sigma_ba)
    inp_scaled = CalibrationInput(series_a=inp.series_a,
                                  series_b=inp.series_b,
                                  noise_a=scaled, noise_b=scaled)
    r1 = calibrate(inp)
    r2 = calibrate(inp_scaled)
    assert geodesic_angle(r1.extrinsic.rotation(),
                          r2.extrinsic.rotation()) < 1e-10
    np.testing.assert_allclose(r1.extrinsic.p, r2.extrinsic.p, atol=1e-10)


def test_calibrate_runtime_budget():
    ext = Extrinsic(q=Q_5DEG_Y, p=np.array([0.1, 0.0, 0.0]))
    inp = make_pair(ext, duration=60.0, noise_a=NoiseSpec(),
                    noise_b=NoiseSpec(), seed=3)
    t0 = time.perf_counter()
    calibrate(inp)
    assert time.perf_counter() - t0 < 2.0


def test_whitened_residual_variances_near_unity():
    """End-to-end statistical consistency: residuals whitened by the
    modeled schedules should have unit per-axis variance."""
    sigma = NoiseSpec(sigma_bg=0.0, sigma_ba=0.0)  # white noise only
    ext = Extrinsic(q=Q_5DEG_Y, p=np.array([0.02, 0.0, 0.0]))
    inp = make_pair(ext, duration=20.0, noise_a=sigma, noise_b=sigma, seed=12)
    res = calibrate(inp)
    dt = 1.0 / inp.series_a.freq
    n = len(inp.series_a)

    r_w = residual_omega(res.extrinsic.q, inp.series_a.gyro,
                         inp.series_b.gyro)
    var_w = sigma_omega(np.arange(1, n + 1), sigma, sigma, dt)
    white_w = r_w / np.sqrt(var_w)[:, None]
    np.testing.assert_allclose(white_w.var(axis=0), 1.0, rtol=0.2)

    R = res.extrinsic.rotation()
    total = inp.series_b.gyro @ R.T + inp.series_a.gyro
    wd = (inp.series_a.freq / 4.0) * (total[2:] - total[:-2])
    r_a = inp.series_b.accel[1:-1] - transfer_measurement(
        inp.series_a.gyro[1:-1], wd, inp.series_a.accel[1:-1], res.extrinsic)[1]
    var_a = sigma_accel(np.arange(2, n), sigma, sigma, dt)
    white_a = r_a / np.sqrt(var_a)[:, None]
    np.testing.assert_allclose(white_a.var(axis=0), 1.0, rtol=0.2)


def test_input_validation():
    cfg = SimConfig(freq=200.0, duration=1.0)
    s = simulate_imu(cfg, Extrinsic.identity(), NoiseSpec.zero())
    other = ImuSeries(freq=100.0, start_ns=0, gyro=s.gyro, accel=s.accel)
    with pytest.raises(RateMismatch):
        CalibrationInput(series_a=s, series_b=other,
                         noise_a=NoiseSpec(), noise_b=NoiseSpec())
    short = ImuSeries(freq=200.0, start_ns=0, gyro=s.gyro[:2],
                      accel=s.accel[:2])
    with pytest.raises(LengthMismatch):
        CalibrationInput(series_a=short, series_b=short,
                         noise_a=NoiseSpec(), noise_b=NoiseSpec())
    trimmed = ImuSeries(freq=200.0, start_ns=0, gyro=s.gyro[:-1],
                        accel=s.accel[:-1])
    with pytest.raises(LengthMismatch):
        CalibrationInput(series_a=s, series_b=trimmed,
                         noise_a=NoiseSpec(), noise_b=NoiseSpec())


def test_input_rate_mismatch_is_rate_error():
    """Equal-length series at different rates are a rate problem, not a
    length problem; the check precedes the length checks."""
    cfg = SimConfig(freq=200.0, duration=1.0)
    s = simulate_imu(cfg, Extrinsic.identity(), NoiseSpec.zero())
    for freq in (100.0, 200.0 * (1 + 1e-6)):
        other = ImuSeries(freq=freq, start_ns=0, gyro=s.gyro[:-5],
                          accel=s.accel[:-5])
        with pytest.raises(RateMismatch, match="sample rates differ"):
            CalibrationInput(series_a=s, series_b=other,
                             noise_a=NoiseSpec(), noise_b=NoiseSpec())


def test_input_rejects_series_that_start_at_different_times():
    """Equal-length series offset in time would be paired sample by
    sample, so their start times must agree."""
    cfg = SimConfig(freq=200.0, duration=1.0)
    s = simulate_imu(cfg, Extrinsic.identity(), NoiseSpec.zero())
    late = ImuSeries(freq=200.0, start_ns=25_000_000, gyro=s.gyro, accel=s.accel)
    with pytest.raises(LengthMismatch,
                       match="start times differ: 0 ns vs 25000000 ns"):
        CalibrationInput(series_a=s, series_b=late,
                         noise_a=NoiseSpec(), noise_b=NoiseSpec())


def test_result_dict_round_trip():
    ext = Extrinsic(q=Q_5DEG_Y, p=np.array([0.1, 0.0, 0.0]))
    inp = make_pair(ext, duration=2.0)
    res = calibrate(inp)
    d = res.to_dict()
    assert set(d) == {"q_BA", "p_AB_m", "rotation", "translation"}


def test_stage_kernels_over_trials_match_per_pair_calls():
    """fit_rotation and fit_translation over a trial axis give each
    trial what calibrate gives it alone, and a trial that fails masks
    only itself."""
    ext = Extrinsic(q=Q_5DEG_Y, p=np.array([0.1, 0.02, -0.03]))
    inps = [make_pair(ext, duration=2.0, noise_a=MEMS_NOISE, noise_b=MEMS_NOISE,
                      seed=seed) for seed in (3, 4)]
    inps.insert(1, make_pair(ext, duration=2.0, noise_a=MEMS_NOISE,
                             noise_b=MEMS_NOISE, seed=5,
                             trajectory=still_trajectory()))
    stack = {k: np.stack([getattr(getattr(inp, f"series_{k[-1]}"), k[:-2])
                          for inp in inps])
             for k in ("gyro_a", "gyro_b", "accel_a", "accel_b")}
    weights = WeightSchedule.build(len(inps[0].series_a), MEMS_NOISE, MEMS_NOISE,
                                   1.0 / 200.0)
    R, rot_cost, rot_errors = fit_rotation(stack["gyro_a"], stack["gyro_b"],
                                           weights.w_omega)
    Rq = np.array([rotation_from_quat(quat_from_rotation(r)) for r in R])
    p, trans_cost, trans_errors = fit_translation(
        Rq, stack["gyro_a"], stack["accel_a"], stack["gyro_b"], stack["accel_b"],
        200.0, weights.w_accel[1:-1])
    assert isinstance(rot_errors[1], DegenerateMotion)
    with pytest.raises(DegenerateMotion, match=re.escape(str(rot_errors[1]))):
        calibrate(inps[1])
    for k in (0, 2):
        assert rot_errors[k] is None and trans_errors[k] is None
        res = calibrate(inps[k])
        np.testing.assert_allclose(quat_from_rotation(R[k]), res.extrinsic.q,
                                   rtol=0, atol=1e-15)
        assert rot_cost[k] == pytest.approx(res.final_rot_cost, rel=1e-12)
        np.testing.assert_allclose(p[k], res.extrinsic.p, rtol=1e-12, atol=1e-15)
        assert trans_cost[k] == pytest.approx(res.final_trans_cost, rel=1e-12)


def test_stage_kernels_match_einsum_oracle():
    """The Grams formed as matrix products over the stacked design give
    the stage kernels' einsum forms, within 1e-12 relative, over two
    leading trial axes, a trial that fails the rotation stage among
    them."""
    ext = Extrinsic(q=Q_5DEG_Y, p=np.array([0.1, 0.02, -0.03]))
    inps = [make_pair(ext, duration=2.0, noise_a=MEMS_NOISE, noise_b=MEMS_NOISE,
                      seed=seed) for seed in (6, 7, 8)]
    inps.insert(1, make_pair(ext, duration=2.0, noise_a=MEMS_NOISE,
                             noise_b=MEMS_NOISE, seed=9,
                             trajectory=still_trajectory()))
    stack = {k: np.stack([getattr(getattr(inp, f"series_{k[-1]}"), k[:-2])
                          for inp in inps]).reshape(2, 2, -1, 3)
             for k in ("gyro_a", "gyro_b", "accel_a", "accel_b")}
    weights = WeightSchedule.build(len(inps[0].series_a), MEMS_NOISE, MEMS_NOISE,
                                   1.0 / 200.0)
    got = fit_rotation(stack["gyro_a"], stack["gyro_b"], weights.w_omega)
    want = oracle.fit_rotation(stack["gyro_a"], stack["gyro_b"], weights.w_omega)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
    assert [type(e) for e in got[2]] == [type(e) for e in want[2]]
    assert isinstance(got[2][1], DegenerateMotion)
    args = (stack["gyro_a"], stack["accel_a"], stack["gyro_b"], stack["accel_b"],
            200.0, weights.w_accel[1:-1])
    got = fit_translation(want[0], *args)
    want = oracle.fit_translation(want[0], *args)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12,
                               atol=1e-12 * np.abs(want[0]).max())
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
    assert [type(e) for e in got[2]] == [type(e) for e in want[2]]
    assert got[2][0] is None



def test_translation_cost_matches_b_frame_residual_oracle():
    """fit_translation forms its residual in the R^T frame from the
    stacked design, R^T b_t - M_t p; its cost equals the B-frame form
    b_t - R M_t p at the same p to round-off. The residual is a small
    difference of the samples, so one rounding of b shows at about
    1e-15 relative in the cost (4.5e-15 at most over 300 desk trials)."""
    ext = Extrinsic(q=Q_5DEG_Y, p=np.array([0.1, 0.02, -0.03]))
    inps = [make_pair(ext, duration=2.0, noise_a=MEMS_NOISE, noise_b=MEMS_NOISE,
                      seed=seed) for seed in (10, 11, 12, 13)]
    stack = {k: np.stack([getattr(getattr(inp, f"series_{k[-1]}"), k[:-2])
                          for inp in inps]).reshape(2, 2, -1, 3)
             for k in ("gyro_a", "gyro_b", "accel_a", "accel_b")}
    weights = WeightSchedule.build(len(inps[0].series_a), MEMS_NOISE, MEMS_NOISE,
                                   1.0 / 200.0)
    R, _, _ = fit_rotation(stack["gyro_a"], stack["gyro_b"], weights.w_omega)
    args = (R, stack["gyro_a"], stack["accel_a"], stack["gyro_b"], stack["accel_b"],
            200.0, weights.w_accel[1:-1])
    p, cost, errors = fit_translation(*args)
    assert errors == [None] * 4
    np.testing.assert_allclose(cost, oracle.translation_cost(*args, p), rtol=1e-14, atol=0)
