"""Acceptance gate for the whole pipeline.

Each test covers one numbered criterion end to end, prints a single
``PASS criterion N: ...`` / ``FAIL criterion N: ...`` line with the
measured numbers, and asserts the same bound. Run with ``pytest -s
tests/test_acceptance.py`` to see the lines on success; without ``-s``
pytest shows them only for failing tests.

The whole module is deterministic: every random draw is seeded.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
from oracle import (
    ideal_imu_series, log_so3, paired_bootstrap_prob, per_sample_means,
    quat_from_rotvec, sample_trajectory, simulate_imu,
)

from mimufusion.calibration import (
    CalibrationInput, calibrate, estimate_angular_accel,
    fit_rotation, fit_translation,
)
from mimufusion.csvio import load_yaml
from mimufusion.geometry import (
    exp_so3, geodesic_angle, rotation_from_quat, skew,
)
from mimufusion.harness import (
    METRICS, ExperimentPlan, run_experiment, true_vimu_state,
)
from mimufusion.preintegration import predict_state, preintegrate_windows
from mimufusion.simulation import SimConfig, TrajectoryParams, apply_measurement_noise
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec
from mimufusion.vimu import (
    VimuConfig, fuse_series, virtual_covariances,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# A rotation-rich but slow trajectory: low angular rates keep the
# central-difference and sample-and-hold floors far below the bounds
# being checked, while all three axes stay excited.
GENTLE = TrajectoryParams(euler_frequency=(0.15, 0.105, 0.135))

# Two sensors 10 cm apart on the body x axis, the second twisted 5
# degrees about y. The relative pose (B from A) is then exactly
# Q_TRUE / P_TRUE below.
Q_TRUE = quat_from_rotvec(np.array([0.0, np.deg2rad(5.0), 0.0]))
P_TRUE = np.array([0.1, 0.0, 0.0])
MOUNT_A = Extrinsic(q=np.array([1.0, 0.0, 0.0, 0.0]),
                    p=np.array([-0.05, 0.0, 0.0]))
MOUNT_B = Extrinsic(q=Q_TRUE, p=np.array([0.05, 0.0, 0.0]))


def _report(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def _calibration_errors(result) -> tuple:
    rot = geodesic_angle(rotation_from_quat(Q_TRUE),
                         rotation_from_quat(result.extrinsic.q))
    trans = float(np.linalg.norm(result.extrinsic.p - P_TRUE))
    return rot, trans


def test_criterion_1_noiseless_calibration_recovers_extrinsics():
    cfg = SimConfig(freq=200.0, duration=60.0, trajectory=GENTLE)
    zero = NoiseSpec.zero()
    sa = simulate_imu(cfg, MOUNT_A, zero)
    sb = simulate_imu(cfg, MOUNT_B, zero)
    t0 = time.perf_counter()
    result = calibrate(CalibrationInput(sa, sb, zero, zero))
    elapsed = time.perf_counter() - t0
    rot, trans = _calibration_errors(result)
    ok = rot <= 1e-6 and trans <= 1e-6 and elapsed < 1.0
    _report(1, ok, "noiseless 60 s @ 200 Hz calibration: rotation "
            f"{rot:.2e} rad (<= 1e-6), translation {trans:.2e} m (<= 1e-6), "
            f"{elapsed:.3f} s (< 1 s)")


def test_criterion_2_noisy_calibration_median_accuracy():
    noise = NoiseSpec()
    cfg = SimConfig(freq=200.0, duration=60.0)
    errors = {"60": [], "2": []}
    slowest = 0.0
    for seed in range(50):
        streams = np.random.SeedSequence(seed).spawn(2)
        sa = simulate_imu(cfg, MOUNT_A, noise, seed=streams[0])
        sb = simulate_imu(cfg, MOUNT_B, noise, seed=streams[1])
        for label, wa, wb in (("60", sa, sb),
                              ("2", sa.window(0, 2), sb.window(0, 2))):
            t0 = time.perf_counter()
            result = calibrate(CalibrationInput(wa, wb, noise, noise))
            slowest = max(slowest, time.perf_counter() - t0)
            errors[label].append(_calibration_errors(result))
    med60 = np.median(errors["60"], axis=0)
    med2 = np.median(errors["2"], axis=0)
    ok = (med60[0] <= np.deg2rad(0.05) and med60[1] <= 1e-3
          and med2[0] <= np.deg2rad(0.1) and med2[1] <= 2e-3
          and slowest < 1.0)
    _report(2, ok, "median over 50 noisy seeds: 60 s "
            f"{np.degrees(med60[0]):.4f} deg / {1e3 * med60[1]:.3f} mm "
            "(<= 0.05 deg / 1 mm), 2 s "
            f"{np.degrees(med2[0]):.4f} deg / {1e3 * med2[1]:.3f} mm "
            f"(<= 0.1 deg / 2 mm), slowest calibration {slowest:.3f} s (< 1 s)")


def test_criterion_3_fused_gyro_noise_covariance():
    t0 = time.perf_counter()
    freq = 200.0
    n = 100_002  # fusing trims the end samples, leaving exactly 1e5
    rng = np.random.default_rng(2024)
    rot_b = exp_so3(np.array([0.0, 0.0, 0.4]))
    worst_rel = 0.0
    for sg_a, sg_b in ((1.7e-4, 3.4e-4), (1.7e-4, 1.7e-4)):
        noise_a = NoiseSpec(sigma_g=sg_a, sigma_bg=0.0, sigma_ba=0.0)
        noise_b = NoiseSpec(sigma_g=sg_b, sigma_bg=0.0, sigma_ba=0.0)
        cfg = VimuConfig(rotations=(np.eye(3), rot_b),
                         positions=(np.array([-0.06, 0.0, 0.0]),
                                    np.array([0.06, 0.0, 0.0])),
                         noises=(noise_a, noise_b))
        series = []
        for spec in (noise_a, noise_b):
            gyro = rng.standard_normal((n, 3)) * (spec.sigma_g * np.sqrt(freq))
            accel = rng.standard_normal((n, 3)) * (spec.sigma_a * np.sqrt(freq))
            series.append(ImuSeries(freq=freq, start_ns=0,
                                    gyro=gyro, accel=accel))
        fused = fuse_series(cfg, series)
        assert len(fused) == 100_000
        measured = np.cov(fused.gyro.T) / freq  # back to continuous density
        expected = sg_a ** 2 * sg_b ** 2 / (sg_a ** 2 + sg_b ** 2)
        if sg_a == sg_b:
            assert expected == sg_a ** 2 / 2.0  # symmetric case, exactly
        rel = np.abs(measured - expected * np.eye(3)) / expected
        worst_rel = max(worst_rel, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.05 and elapsed < 10.0
    _report(3, ok, "fused gyro noise covariance over 1e5 samples vs "
            "product formula (and sigma^2/2 when symmetric): worst entry "
            f"off by {100 * worst_rel:.2f}% (<= 5%), {elapsed:.1f} s (< 10 s)")


def test_criterion_4_variant_ordering_with_bootstrap_confidence():
    t0 = time.perf_counter()
    plan = ExperimentPlan.from_dict(load_yaml(CONFIG_DIR / "plan_desk.yaml"))
    report = run_experiment(plan)

    def prob(better: str, worse: str, metric: str) -> float:
        return paired_bootstrap_prob(per_sample_means(report, better, metric),
                                     per_sample_means(report, worse, metric))

    probs = {}
    for m in METRICS:
        probs[f"(a) {m}"] = prob("2-imu-calibrated", "9-imu-perturbed", m)
        for v in ("2-imu-perturbed", "4-imu-perturbed", "9-imu-perturbed"):
            probs[f"(b) {m} vs {v}"] = prob("1-imu-true", v, m)
        probs[f"(c) {m} 9<=4"] = prob("9-imu-perturbed", "4-imu-perturbed", m)
        probs[f"(c) {m} 4<=2"] = prob("4-imu-perturbed", "2-imu-perturbed", m)
    worst_claim = min(probs, key=probs.get)
    elapsed = time.perf_counter() - t0
    ok = probs[worst_claim] >= 0.95
    _report(4, ok, "variant ordering over 20 x 100 trials: all 18 claim "
            f"probabilities >= 0.95, weakest {probs[worst_claim]:.4f} "
            f"at {worst_claim}; {elapsed:.0f} s")


def _body_pair_vimu(traj: TrajectoryParams, freq: float, duration: float,
                    rng=None):
    """Simulate the MOUNT_A/MOUNT_B pair and fuse it at the body origin,
    which is the midpoint of the two levers. White measurement noise is
    added when an rng is given."""
    cfg = SimConfig(freq=freq, duration=duration, trajectory=traj)
    vcfg = VimuConfig(
        rotations=(rotation_from_quat(MOUNT_A.q), rotation_from_quat(MOUNT_B.q)),
        positions=(MOUNT_A.p, MOUNT_B.p),
        noises=(NoiseSpec(sigma_bg=0.0, sigma_ba=0.0),) * 2,
    )
    series = []
    for mount, spec in zip((MOUNT_A, MOUNT_B), vcfg.noises):
        w, a = ideal_imu_series(cfg, mount)
        if rng is not None:
            w, a = apply_measurement_noise(w, a, spec, freq, rng)
        series.append(ImuSeries(freq=freq, start_ns=0, gyro=w, accel=a))
    return cfg, vcfg, fuse_series(vcfg, series)


def _truncate(virtual, seconds: float):
    k = int(round(seconds * virtual.freq))
    return dataclasses.replace(virtual, gyro=virtual.gyro[:k],
                               accel=virtual.accel[:k])


def _end_state_errors(traj: TrajectoryParams, freq: float) -> tuple:
    """Integrate 1 s of the noise-free fused pair and compare the
    predicted end state against the trajectory ground truth."""
    cfg, vcfg, virtual = _body_pair_vimu(traj, freq, 1.5)
    virtual = _truncate(virtual, 1.0)
    t_start = virtual.start_ns * 1e-9
    start = true_vimu_state(sample_trajectory(cfg, t_start),
                            np.eye(3), np.zeros(3))
    delta = preintegrate_windows(virtual, start, len(virtual))[0]
    end = predict_state(start, delta, cfg.gravity)
    truth = true_vimu_state(sample_trajectory(cfg, t_start + delta.duration),
                            np.eye(3), np.zeros(3))
    return (float(np.linalg.norm(end.position - truth.position)),
            float(np.linalg.norm(end.velocity - truth.velocity)),
            geodesic_angle(truth.rotation, end.rotation))


def test_criterion_5_integration_error_halves_when_rate_doubles():
    t0 = time.perf_counter()
    trajectories = {
        "default": TrajectoryParams(),
        "gentle": GENTLE,
        "mixed": TrajectoryParams(pos_amplitude=(0.3, 0.5, 0.2),
                                  pos_frequency=(0.6, 0.45, 0.35),
                                  euler_amplitude=(0.7, 0.3, 0.5),
                                  euler_phase=(0.3, 1.1, 2.2)),
    }
    ratios = {}
    for name, traj in trajectories.items():
        coarse = _end_state_errors(traj, 200.0)
        fine = _end_state_errors(traj, 400.0)
        for metric, c, f in zip(("pos", "vel", "rot"), coarse, fine):
            ratios[f"{name}/{metric}"] = f / c
    elapsed = time.perf_counter() - t0
    ok = (all(0.35 <= r <= 0.65 for r in ratios.values())
          and elapsed < 30.0)
    spread = f"{min(ratios.values()):.3f}..{max(ratios.values()):.3f}"
    _report(5, ok, "noise-free end-state error ratio 400 Hz / 200 Hz on 3 "
            f"trajectories x 3 metrics: {spread} (within 0.5 +- 0.15), "
            f"{elapsed:.1f} s (< 30 s)")


def test_criterion_6_preintegration_covariance_is_consistent():
    t0 = time.perf_counter()
    freq = 200.0
    n_trials = 2000
    # 202 raw samples so the fused series spans exactly one second
    duration = (int(round(freq)) + 2) / freq
    cfg, vcfg, clean = _body_pair_vimu(TrajectoryParams(), freq, duration)
    t_start = clean.start_ns * 1e-9
    start = true_vimu_state(sample_trajectory(cfg, t_start),
                            np.eye(3), np.zeros(3))
    reference = preintegrate_windows(clean, start, len(clean),
                                     virtual_covariances(vcfg.noises))[0]
    info = np.linalg.inv(reference.covariance)

    ideal = [ideal_imu_series(cfg, m) for m in (MOUNT_A, MOUNT_B)]
    rng = np.random.default_rng(12345)
    nees = np.empty(n_trials)
    for i in range(n_trials):
        noisy = []
        for (w, a), spec in zip(ideal, vcfg.noises):
            wn, an = apply_measurement_noise(w, a, spec, freq, rng)
            noisy.append(ImuSeries(freq=freq, start_ns=0, gyro=wn, accel=an))
        virtual = fuse_series(vcfg, noisy)
        delta = preintegrate_windows(virtual, start, len(virtual))[0]
        err = np.concatenate([
            log_so3(reference.rotation.T @ delta.rotation),
            delta.velocity - reference.velocity,
            delta.position - reference.position,
        ])
        nees[i] = err @ info @ err
    mean_nees = float(np.mean(nees))
    elapsed = time.perf_counter() - t0
    ok = 7.5 <= mean_nees <= 10.5 and elapsed < 120.0
    _report(6, ok, f"mean 9-dof NEES over {n_trials} one-second windows: "
            f"{mean_nees:.2f} (within [7.5, 10.5]), {elapsed:.0f} s (< 2 min)")


def test_criterion_7_angular_accel_estimator_converges_second_order():
    t0 = time.perf_counter()
    zero = NoiseSpec.zero()
    worst = {}
    for freq in (200.0, 400.0):
        cfg = SimConfig(freq=freq, duration=4.0)
        sa = simulate_imu(cfg, MOUNT_A, zero)
        sb = simulate_imu(cfg, MOUNT_B, zero)
        estimates = estimate_angular_accel(rotation_from_quat(Q_TRUE), sa, sb)
        err = 0.0
        for t in range(1, len(sa) - 1, 7):
            estimate = estimates[t - 1]  # row j is sample j + 1
            truth = sample_trajectory(cfg, t / freq).omega_dot
            err = max(err, float(np.max(np.abs(estimate - truth))))
        worst[freq] = err
    ratio = worst[200.0] / worst[400.0]
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5 and elapsed < 5.0
    _report(7, ok, "angular-acceleration max error shrinks by "
            f"{ratio:.2f}x when the step halves (within [3.5, 4.5]), "
            f"{elapsed:.1f} s (< 5 s)")


def test_criterion_8_stage_estimates_match_independent_oracles():
    # rotation stage vs a from-scratch SVD alignment of the gyro streams
    cfg = SimConfig(freq=200.0, duration=20.0, trajectory=GENTLE)
    zero = NoiseSpec.zero()
    sa = simulate_imu(cfg, MOUNT_A, zero)
    sb = simulate_imu(cfg, MOUNT_B, zero)
    R, _, _ = fit_rotation(sa.gyro, sb.gyro)
    correlation = sb.gyro.T @ sa.gyro
    U, _, VT = np.linalg.svd(correlation)
    d = np.sign(np.linalg.det(U) * np.linalg.det(VT))
    R_svd = U @ np.diag([1.0, 1.0, d]) @ VT
    rot_gap = geodesic_angle(R, R_svd)

    # translation stage vs one stacked least-squares solve; a rate that
    # is affine in time makes the central differences exact
    p_true = np.array([0.04, -0.07, 0.02])
    n = 400
    ts = np.arange(n) / 200.0
    w = np.array([0.9, 0.2, -0.3]) + np.outer(ts, [0.1, 0.8, 0.6])
    wd = np.tile([0.1, 0.8, 0.6], (n, 1))
    lever = np.cross(w, np.cross(w, p_true)) + np.cross(wd, p_true)
    accel_a = np.zeros((n, 3))
    p, _, _ = fit_translation(np.eye(3), w, accel_a, w, lever, 200.0)
    rows = []
    rhs = []
    for k in range(1, n - 1):
        wd_k = (200.0 / 4.0) * 2.0 * (w[k + 1] - w[k - 1])
        rows.append(skew(w[k]) @ skew(w[k]) + skew(wd_k))
        rhs.append(lever[k] - accel_a[k])
    p_oracle = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs),
                               rcond=None)[0]
    trans_gap = float(np.max(np.abs(p - p_oracle)))

    ok = rot_gap <= 1e-8 and trans_gap <= 1e-10
    _report(8, ok, f"stage oracles: rotation vs SVD fit {rot_gap:.1e} rad "
            f"(<= 1e-8), translation vs stacked lstsq {trans_gap:.1e} m "
            "(<= 1e-10)")
