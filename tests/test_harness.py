import dataclasses
import json
import threading
from pathlib import Path

import numpy as np
import pytest
from oracle import (
    PAIR,
    VARIANT_SENSORS,
    paired_bootstrap_prob,
    per_sample_means,
    quat_from_rotvec,
    rmse_report_from_dict,
    sample_trajectory,
    simulate_imu,
    still_trajectory,
)

from mimufusion.csvio import load_yaml, read_json, write_imu_csv
from mimufusion.errors import EmptyOverlap, FormatError, LengthMismatch, RateMismatch
from mimufusion.geometry import (
    exp_so3,
    geodesic_angle,
    rotation_from_quat,
)
from mimufusion.harness import (
    _VARIANTS,
    VARIANTS,
    ExperimentPlan,
    _chunk_trials,
    emit_report,
    ingest_csv,
    rmse_metrics,
    run_experiment,
    true_vimu_state,
)
from mimufusion.preintegration import VimuState
from mimufusion.simulation import (
    SimConfig,
    grid_mounts,
    trajectory_samples,
)
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec
from mimufusion.vimu import accel_centroid, centroid_frame


def random_states(rng, n):
    return [VimuState(rotation=exp_so3(rng.normal(size=3)),
                      position=rng.normal(size=3),
                      velocity=rng.normal(size=3)) for _ in range(n)]


def test_rmse_identical_is_zero():
    rng = np.random.default_rng(60)
    states = random_states(rng, 5)
    pos, rot, vel = rmse_metrics(states, states)
    assert pos == 0.0
    assert rot == pytest.approx(0.0, abs=1e-9)
    assert vel == 0.0


def test_rmse_constant_offset():
    rng = np.random.default_rng(61)
    truth = random_states(rng, 8)
    shifted = [VimuState(rotation=t.rotation,
                         position=t.position + np.array([0.01, 0.0, 0.0]),
                         velocity=t.velocity) for t in truth]
    pos, rot, vel = rmse_metrics(shifted, truth)
    assert pos == pytest.approx(0.01, rel=1e-12)
    assert rot == pytest.approx(0.0, abs=1e-9)
    assert vel == 0.0


def test_rmse_matches_direct_recomputation():
    rng = np.random.default_rng(62)
    truth = random_states(rng, 12)
    pred = random_states(rng, 12)
    pos, rot, vel = rmse_metrics(pred, truth)
    pos_ref = np.sqrt(np.mean([
        np.linalg.norm(p.position - t.position) ** 2
        for p, t in zip(pred, truth)]))
    rot_ref = np.sqrt(np.mean([
        geodesic_angle(p.rotation, t.rotation) ** 2
        for p, t in zip(pred, truth)]))
    vel_ref = np.sqrt(np.mean([
        np.linalg.norm(p.velocity - t.velocity) ** 2
        for p, t in zip(pred, truth)]))
    assert pos == pytest.approx(pos_ref, rel=1e-12)
    assert rot == pytest.approx(rot_ref, rel=1e-12)
    assert vel == pytest.approx(vel_ref, rel=1e-12)


def test_rmse_length_mismatch():
    rng = np.random.default_rng(63)
    with pytest.raises(LengthMismatch):
        rmse_metrics(random_states(rng, 3), random_states(rng, 4))
    with pytest.raises(LengthMismatch):
        rmse_metrics([], [])


@pytest.mark.parametrize("field", ["position", "rotation", "velocity"])
def test_rmse_stacked_shape_mismatch(field):
    """A stacked truth whose trial axis is 1 must not broadcast against
    the predictions' trial axis of 4."""
    rng = np.random.default_rng(64)
    pred = VimuState(exp_so3(rng.normal(size=(5, 4, 3))),
                     rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 4, 3)))
    truth = VimuState(pred.rotation.copy(), pred.position.copy(),
                      pred.velocity.copy())
    assert all(np.shape(m) == (4,) for m in rmse_metrics(pred, truth))
    setattr(truth, field, getattr(truth, field)[:, :1])
    with pytest.raises(LengthMismatch):
        rmse_metrics(pred, truth)


def test_true_vimu_state_velocity_lever():
    """A body-fixed frame away from the origin moves faster than the
    origin when the body spins; check against a numerical derivative."""
    cfg = SimConfig(freq=200.0, duration=10.0)
    p = np.array([0.1, -0.05, 0.02])
    t = 2.31
    h = 1e-6
    state = true_vimu_state(sample_trajectory(cfg, t), np.eye(3), p)
    lo = sample_trajectory(cfg, t - h)
    hi = sample_trajectory(cfg, t + h)
    v_fd = ((hi.position + hi.rotation @ p)
            - (lo.position + lo.rotation @ p)) / (2 * h)
    np.testing.assert_allclose(state.velocity, v_fd, atol=1e-6)
    s = sample_trajectory(cfg, t)
    np.testing.assert_allclose(state.position, s.position + s.rotation @ p,
                               atol=1e-15)


def write_series(path, start_ns, duration, freq=200.0, seed=0):
    cfg = SimConfig(freq=freq, duration=duration, seed=seed)
    s = simulate_imu(cfg, Extrinsic(), NoiseSpec())
    shifted = ImuSeries(freq=freq, start_ns=start_ns, gyro=s.gyro,
                        accel=s.accel)
    write_imu_csv(path, shifted)
    return shifted


def test_ingest_round_trip(tmp_path):
    a = write_series(tmp_path / "a.csv", 0, 1.0, seed=1)
    b = write_series(tmp_path / "b.csv", 0, 1.0, seed=2)
    out = ingest_csv([tmp_path / "a.csv", tmp_path / "b.csv"])
    assert len(out) == 2
    np.testing.assert_array_equal(out[0].gyro, a.gyro)
    np.testing.assert_array_equal(out[1].accel, b.accel)
    assert out[0].start_ns == out[1].start_ns == 0


def test_ingest_trims_to_overlap(tmp_path):
    write_series(tmp_path / "a.csv", 0, 60.0, seed=1)
    write_series(tmp_path / "b.csv", 50 * 10**9, 60.0, seed=2)
    out = ingest_csv([tmp_path / "a.csv", tmp_path / "b.csv"])
    assert len(out[0]) == len(out[1]) == 2000
    assert out[0].start_ns == 50 * 10**9
    assert out[1].start_ns == 50 * 10**9


def test_ingest_rejects_rate_mismatch(tmp_path):
    write_series(tmp_path / "a.csv", 0, 1.0, freq=200.0)
    write_series(tmp_path / "b.csv", 0, 1.0, freq=400.0)
    with pytest.raises(RateMismatch):
        ingest_csv([tmp_path / "a.csv", tmp_path / "b.csv"])


def test_ingest_rejects_rate_drift(tmp_path):
    """201.5 Hz is within the 1% rate tolerance of 200 Hz, but pairing
    by index over 60 s would drift by 89 periods."""
    write_series(tmp_path / "a.csv", 0, 60.0, freq=200.0)
    write_series(tmp_path / "b.csv", 0, 60.0, freq=201.5)
    with pytest.raises(RateMismatch, match="drifts"):
        ingest_csv([tmp_path / "a.csv", tmp_path / "b.csv"])


def test_ingest_empty_overlap(tmp_path):
    write_series(tmp_path / "a.csv", 0, 1.0)
    write_series(tmp_path / "b.csv", 2 * 10**9, 1.0)
    with pytest.raises(EmptyOverlap):
        ingest_csv([tmp_path / "a.csv", tmp_path / "b.csv"])


def test_ingest_rejects_offset_grid(tmp_path):
    write_series(tmp_path / "a.csv", 0, 1.0)
    # half a period off: the grids never meet
    write_series(tmp_path / "b.csv", 2_500_000, 1.0)
    with pytest.raises(RateMismatch):
        ingest_csv([tmp_path / "a.csv", tmp_path / "b.csv"])


def test_paired_bootstrap_separated():
    a = np.full(20, 1.0)
    b = np.full(20, 2.0)
    assert paired_bootstrap_prob(a, b) == 1.0
    assert paired_bootstrap_prob(b, a) == 0.0
    assert paired_bootstrap_prob(a, a) == 1.0  # <= is inclusive


def test_paired_bootstrap_interleaved():
    rng = np.random.default_rng(64)
    a = rng.normal(size=50)
    b = a + rng.normal(size=50) * 0.05 + 0.02
    prob = paired_bootstrap_prob(a, b, seed=1)
    assert 0.9 < prob <= 1.0


def test_paired_bootstrap_validates():
    with pytest.raises(LengthMismatch):
        paired_bootstrap_prob(np.ones(3), np.ones(4))
    with pytest.raises(LengthMismatch):
        paired_bootstrap_prob(np.ones(0), np.ones(0))


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(variants=("3-imu-wild",))
    with pytest.raises(ValueError):
        ExperimentPlan(variants=())
    with pytest.raises(ValueError):
        ExperimentPlan(extrinsic_samples=0)
    with pytest.raises(ValueError):
        ExperimentPlan(keyframe_interval=0.0)


@pytest.mark.parametrize("field, key, value", [
    ("sigma_rot", "sigma_rot_rad", np.nan),
    ("sigma_rot", "sigma_rot_rad", -0.01),
    ("sigma_trans", "sigma_trans_m", np.inf),
    ("sigma_trans", "sigma_trans_m", -1e-3),
    ("grid_pitch", "grid_pitch_m", np.nan),
    ("grid_pitch", "grid_pitch_m", -np.inf),
])
def test_plan_rejects_value_out_of_range(field, key, value):
    """A plan built in the library checks the ranges that its file keys
    do: a sigma that is not finite and >= 0, or a pitch that is not
    finite, raises ValueError naming the file key, before any trial
    runs."""
    with pytest.raises(ValueError, match=key):
        ExperimentPlan(**{field: value})


@pytest.mark.parametrize("keyframe_interval", [1.0e-9, 10.0])
def test_plan_rejects_keyframe_interval_that_holds_no_window(keyframe_interval):
    """A keyframe interval below one sample period, or too long for one
    whole window of the default 3 s simulation, raises ValueError naming
    keyframe_interval_s when the plan is built, before any trial runs."""
    with pytest.raises(ValueError, match="keyframe_interval_s"):
        ExperimentPlan(keyframe_interval=keyframe_interval)


def test_plan_dict_round_trip():
    plan = ExperimentPlan(extrinsic_samples=3, sequences_per_sample=4,
                          sigma_rot=0.02, master_seed=9,
                          sim=SimConfig(freq=100.0, duration=2.0))
    back = ExperimentPlan.from_dict(plan.to_dict())
    assert back.extrinsic_samples == 3
    assert back.sigma_rot == 0.02
    assert back.master_seed == 9
    assert back.sim.freq == 100.0
    assert back.sim.duration == 2.0
    assert back.variants == plan.variants


def test_plan_from_dict_keeps_field_defaults_for_absent_keys():
    assert ExperimentPlan.from_dict({}).to_dict() == ExperimentPlan().to_dict()
    plan = ExperimentPlan.from_dict({"sim": {"freq": 100}, "extrinsic_samples": 2.0})
    assert plan.sim.freq == 100.0 and plan.sim.duration == ExperimentPlan().sim.duration
    assert plan.extrinsic_samples == 2 and isinstance(plan.extrinsic_samples, int)


def test_plan_rejects_unknown_keys():
    with pytest.raises(FormatError, match="sequences_per_samples"):
        ExperimentPlan.from_dict({"sequences_per_samples": 5})


def test_plan_rejects_unknown_sim_keys():
    with pytest.raises(FormatError, match="durration"):
        ExperimentPlan.from_dict({"sim": {"durration": 9}})


def test_variant_table_pins_each_sensor_set_and_pose_source():
    """Each variant fuses the oracle's grid sensors for it, from the pose
    source its name gives, in the order VARIANTS lists."""
    assert _VARIANTS == {
        "1-imu-true": ((4,), "true"),
        "2-imu-perturbed": ((0, 2), "perturbed"),
        "4-imu-perturbed": ((0, 2, 6, 8), "perturbed"),
        "9-imu-perturbed": ((0, 1, 2, 3, 4, 5, 6, 7, 8), "perturbed"),
        "2-imu-calibrated": ((0, 2), "calibrated"),
    }
    assert VARIANTS == tuple(_VARIANTS)
    assert {v: cols for v, (cols, _) in _VARIANTS.items()} == VARIANT_SENSORS


def test_truth_of_a_pair_is_at_the_origin_of_its_centroid_frame():
    """For a pair believed at (I, 0) and (R, p), trial by trial, the
    truth that the harness takes at the pair's accel_centroid is the true
    states of the frame at the midpoint p / 2 with body axes, the origin
    that the centroid fusion of Extrinsic(q, p) puts its sensors about,
    for the plan's one noise spec."""
    rng = np.random.default_rng(71)
    plan = ExperimentPlan()
    keyframes = trajectory_samples(plan.sim, np.array([0.005, 0.505, 1.005]))
    q = np.array([quat_from_rotvec(v) for v in rng.normal(scale=0.5, size=(5, 3))])
    p = rng.normal(scale=0.05, size=(5, 3))
    positions = np.stack([np.zeros_like(p), p], axis=-2)
    truth = true_vimu_state(keyframes, np.eye(3),
                            accel_centroid(positions, (plan.noise,) * 2))
    want_truth = true_vimu_state(keyframes, np.eye(3), 0.5 * p)
    for f in ("rotation", "position", "velocity"):
        np.testing.assert_allclose(getattr(truth, f), getattr(want_truth, f),
                                   rtol=0, atol=1e-12)
    for s in range(5):
        cfg = centroid_frame(Extrinsic(q[s], p[s]), plan.noise, plan.noise)
        np.testing.assert_allclose(np.stack(cfg.positions), positions[s] - 0.5 * p[s],
                                   rtol=0, atol=1e-15)


def test_truth_of_one_mount_is_the_state_at_its_origin():
    """The centre mount alone, and any single believed origin, trial by
    trial, has the true states of the body frame moved to that origin."""
    plan = ExperimentPlan()
    keyframes = trajectory_samples(plan.sim, np.array([0.005, 0.505]))
    grid = grid_mounts(pitch=plan.grid_pitch)
    truth = true_vimu_state(keyframes, np.eye(3),
                            accel_centroid(grid[1][None, [4]], (plan.noise,)))
    want_truth = true_vimu_state(keyframes, np.eye(3), grid[1][4])
    np.testing.assert_array_equal(truth.position[:, 0], want_truth.position)

    positions = np.random.default_rng(72).normal(size=(4, 1, 3))
    truth = true_vimu_state(keyframes, np.eye(3), accel_centroid(positions, (plan.noise,)))
    for s in range(4):
        want_truth = true_vimu_state(keyframes, np.eye(3), positions[s, 0])
        for f in ("position", "velocity"):
            np.testing.assert_allclose(getattr(truth, f)[:, s], getattr(want_truth, f),
                                       rtol=0, atol=1e-15)
        # the frame has body axes wherever it sits: one rotation for all
        np.testing.assert_array_equal(truth.rotation[:, 0], want_truth.rotation)


TINY_PLAN = ExperimentPlan(
    extrinsic_samples=2,
    sequences_per_sample=3,
    master_seed=7,
    sim=SimConfig(freq=200.0, duration=1.5),
)


def test_run_experiment_deterministic():
    r1 = run_experiment(TINY_PLAN)
    r2 = run_experiment(TINY_PLAN)
    assert r1.to_dict() == r2.to_dict()
    for v in TINY_PLAN.variants:
        assert r1.completed[v] == 6
        for m in ("position", "orientation", "velocity"):
            stats = r1.metrics[v][m]
            assert np.isfinite(stats["mean"])
            assert stats["mean"] > 0
            assert len(stats["per_sample_means"]) == 2
    assert r1.failures == []


def test_run_experiment_subset_of_variants():
    plan = ExperimentPlan(variants=("1-imu-true", "9-imu-perturbed"),
                          extrinsic_samples=1, sequences_per_sample=2,
                          master_seed=3,
                          sim=SimConfig(freq=200.0, duration=1.5))
    report = run_experiment(plan)
    assert set(report.metrics) == {"1-imu-true", "9-imu-perturbed"}


def test_run_experiment_records_failures():
    """A rotation-free trajectory breaks calibration but nothing else;
    the failures must be logged without poisoning other variants."""
    plan = ExperimentPlan(
        variants=("1-imu-true", "2-imu-calibrated"),
        extrinsic_samples=1,
        sequences_per_sample=2,
        master_seed=1,
        sim=SimConfig(freq=200.0, duration=1.5,
                      trajectory=still_trajectory()),
    )
    report = run_experiment(plan)
    assert report.completed["2-imu-calibrated"] == 0
    assert report.completed["1-imu-true"] == 2
    assert len(report.failures) == 2
    assert all("DegenerateMotion" in f for f in report.failures)
    assert np.isnan(report.metrics["2-imu-calibrated"]["position"]["mean"])
    assert np.isfinite(report.metrics["1-imu-true"]["position"]["mean"])


def test_emit_report_files(tmp_path):
    report = run_experiment(TINY_PLAN, out_dir=tmp_path)
    emit_report(report, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "plot_data.csv").exists()
    assert (tmp_path / "failures.log").exists()

    back = rmse_report_from_dict(read_json(tmp_path / "report.json"))
    for v in TINY_PLAN.variants:
        np.testing.assert_array_equal(per_sample_means(back, v, "position"),
                                      per_sample_means(report, v, "position"))

    lines = (tmp_path / "plot_data.csv").read_text().strip().split("\n")
    assert lines[0] == "variant,metric,mean,std"
    assert len(lines) == 1 + len(TINY_PLAN.variants) * 3

    trials = [json.loads(l) for l in
              (tmp_path / "trials.jsonl").read_text().strip().split("\n")]
    assert len(trials) == sum(report.completed.values())
    assert {t["variant"] for t in trials} == set(TINY_PLAN.variants)


def test_perturbed_variants_degrade_with_fewer_sensors():
    """Sanity on the tiny run: more sensors never hurt on average, and the
    clean single IMU beats every perturbed array."""
    report = run_experiment(TINY_PLAN)
    pos = {v: report.metrics[v]["position"]["mean"]
           for v in TINY_PLAN.variants}
    assert pos["1-imu-true"] <= pos["2-imu-perturbed"]
    assert pos["1-imu-true"] <= pos["9-imu-perturbed"]


# --- chunked harness against the per-trial oracle ------------------------

# three variants of 1.5 s trials, as many sequences as chunks may need
RAGGED = ExperimentPlan(variants=("1-imu-true", "9-imu-perturbed", "2-imu-calibrated"),
                        extrinsic_samples=1, sequences_per_sample=1 << 20, master_seed=12,
                        sim=SimConfig(freq=200.0, duration=1.5))
DIFF_PLANS = {
    # every variant, two extrinsic samples
    "all-variants": ExperimentPlan(extrinsic_samples=2, sequences_per_sample=5,
                                   master_seed=11,
                                   sim=SimConfig(freq=200.0, duration=1.5)),
    # one sequence more than the default chunk holds: it leaves 1 over
    "ragged-chunks": dataclasses.replace(RAGGED,
                                         sequences_per_sample=_chunk_trials(RAGGED) + 1),
    # a subset in non-default order: every variant's rows of the shared
    # dead-reckoning pass must come back to that variant and trial
    "reordered-subset": ExperimentPlan(variants=("2-imu-calibrated", "1-imu-true",
                                                 "9-imu-perturbed"),
                                       extrinsic_samples=2, sequences_per_sample=4,
                                       master_seed=13,
                                       sim=SimConfig(freq=200.0, duration=1.5)),
    # 200 interior samples fill exactly two keyframe windows: fusion reads
    # up to the last raw sample
    "exact-windows": ExperimentPlan(extrinsic_samples=1, sequences_per_sample=3,
                                    master_seed=14,
                                    sim=SimConfig(freq=200.0, duration=1.01)),
    # 218 interior samples: the 18 past the second window are never fused
    "trailing-samples": ExperimentPlan(extrinsic_samples=1, sequences_per_sample=3,
                                       master_seed=15,
                                       sim=SimConfig(freq=200.0, duration=1.1)),
}
# Plans run with GYRO_EXCITATION_MIN between the trials' eigenvalues, so
# that half of the trials fail calibration and chunks mix both kinds.
MIXED_FAILURES = {"mixed-failures": "all-variants",
                  "reordered-mixed-failures": "reordered-subset"}
# the raw-sample bytes of one 1.5 s trial (9 sensors, 300 samples), less
# than one trial's working set in every plan above: chunks of one trial
ONE_TRIAL = 9 * 300 * 6 * 8
CHUNK_CAPS = {"one-trial": ONE_TRIAL, "default": None, "whole-sample": 1 << 40}


def chunk_caps():
    """Each CHUNK_CAPS name, with _CHUNK_BYTES set to its cap while the
    caller's block for it runs."""
    from mimufusion import harness

    for cap, nbytes in CHUNK_CAPS.items():
        with pytest.MonkeyPatch.context() as mp:
            if nbytes is not None:
                mp.setattr(harness, "_CHUNK_BYTES", nbytes)
            yield cap


def test_chunk_caps_give_one_trial_a_ragged_default_and_the_whole_sample():
    chunks = {cap: {name: _chunk_trials(plan) for name, plan in DIFF_PLANS.items()}
              for cap in chunk_caps()}
    assert set(chunks["one-trial"].values()) == {1}
    assert chunks["whole-sample"] == {name: plan.sequences_per_sample
                                      for name, plan in DIFF_PLANS.items()}
    ragged = chunks["default"]["ragged-chunks"]
    assert ragged > 1 and DIFF_PLANS["ragged-chunks"].sequences_per_sample % ragged == 1


@pytest.mark.parametrize("name", sorted(DIFF_PLANS))
def test_chunk_size_leaves_report_and_trials_bit_for_bit(tmp_path, name):
    """The chunk budget trades memory for speed and nothing else: every
    cap gives the same report and the same trials.jsonl bytes."""
    runs = {}
    for cap in chunk_caps():
        report = run_experiment(DIFF_PLANS[name], out_dir=tmp_path / cap)
        runs[cap] = report.to_dict(), (tmp_path / cap / "trials.jsonl").read_bytes()
    assert runs["one-trial"] == runs["default"] == runs["whole-sample"]


def test_noise_worker_error_reaches_the_caller(tmp_path, monkeypatch):
    """A MimuError raised while the worker adds the noise of a chunk
    ahead (the third of three one-trial chunks, while the second is
    scored) is raised by run_experiment. trials.jsonl is closed and
    holds the lines of the two chunks scored before it, and the worker
    thread is gone."""
    from mimufusion import harness

    plan = DIFF_PLANS["exact-windows"]
    monkeypatch.setattr(harness, "_CHUNK_BYTES", ONE_TRIAL)
    run_experiment(plan, out_dir=tmp_path / "clean")
    want = [line for line in (tmp_path / "clean" / "trials.jsonl").read_bytes()
            .splitlines(keepends=True) if json.loads(line)["seq"] < 2]

    fill = harness.apply_measurement_noise_stack
    fillers = []

    def fail_third(*args, **kwargs):
        fillers.append(threading.current_thread())
        if len(fillers) == 3:
            raise FormatError("noise of the third trial")
        return fill(*args, **kwargs)

    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(harness, "apply_measurement_noise_stack", fail_third)
    monkeypatch.setattr(harness, "open", tracked_open, raising=False)
    threads = threading.active_count()
    with pytest.raises(FormatError, match="noise of the third trial"):
        run_experiment(plan, out_dir=tmp_path / "failed")
    assert len(fillers) == 3 and threading.main_thread() not in fillers
    assert threading.active_count() == threads
    [stream] = opened
    assert stream.closed
    assert (tmp_path / "failed" / "trials.jsonl").read_bytes() == b"".join(want)
    assert len(want) == 2 * len(plan.variants)


def test_calibrated_poses_match_calibrate():
    """For a chunk of two desk trials, the sensor-B pose that the
    harness builds from its stacked calibration is sensor A's mount
    composed with the extrinsic that calibrate gives on the same
    columns: the origin bit for bit, and the rotation bit for bit with
    the matrix that fit_rotation gives the pair alone, and to round-off
    with the rotation of calibrate's quaternion."""
    from mimufusion.calibration import CalibrationInput, calibrate, fit_rotation
    from mimufusion.harness import _calibrated_poses
    from mimufusion.simulation import (apply_measurement_noise_stack,
                                       ideal_imu_series_stack)

    plan = ExperimentPlan.from_dict(load_yaml(
        Path(__file__).resolve().parents[1] / "configs" / "plan_desk.yaml"))
    grid = grid_mounts(pitch=plan.grid_pitch)
    ideal = ideal_imu_series_stack(plan.sim, *grid).transpose(1, 2, 0, 3)
    raw = np.stack([apply_measurement_noise_stack(ideal, plan.noise, plan.sim.freq,
                                                  np.random.default_rng(seed))
                    for seed in (0, 1)])
    gyro, accel = raw[:, 0], raw[:, 1]
    rotations, positions, errors = _calibrated_poses(plan, grid, gyro, accel, list(PAIR))
    assert errors == [None, None]
    R_a, p_a = (x[PAIR[0]] for x in grid)
    for c in range(2):
        a, b = (ImuSeries(plan.sim.freq, 0, gyro[c, :, j], accel[c, :, j])
                for j in PAIR)
        ext = calibrate(CalibrationInput(a, b, plan.noise, plan.noise)).extrinsic
        np.testing.assert_array_equal(rotations[c, 1],
                                      fit_rotation(a.gyro, b.gyro)[0] @ R_a)
        np.testing.assert_allclose(rotations[c, 1], rotation_from_quat(ext.q) @ R_a,
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(positions[c, 1], p_a + ext.p @ R_a)


def smallest_gyro_eigenvalues(plan):
    """Smallest eigenvalue of the mean gyro second moment of sensor A of
    the calibrated pair, per (sample, sequence), drawn from the trial's
    own random stream as the harness draws it."""
    from mimufusion.simulation import (apply_measurement_noise_stack,
                                       ideal_imu_series_stack)

    ideal = ideal_imu_series_stack(plan.sim, *grid_mounts(pitch=plan.grid_pitch))
    ideal = ideal.transpose(1, 2, 0, 3)  # (gyro/accel, sample, grid sensor, axis)
    out = []
    for sample_seq in np.random.SeedSequence(plan.master_seed).spawn(
            plan.extrinsic_samples):
        for trial_seq in sample_seq.spawn(1 + plan.sequences_per_sample)[1:]:
            noisy = apply_measurement_noise_stack(ideal, plan.noise, plan.sim.freq,
                                                  np.random.default_rng(trial_seq))
            w = noisy[0, :, PAIR[0]]
            out.append(np.linalg.eigvalsh(w.T @ w / len(w))[0])
    return np.array(out)


def assert_reports_agree(got, want, got_dir, want_dir):
    assert got.completed == want.completed
    assert got.failures == want.failures
    assert got.metrics.keys() == want.metrics.keys()
    for v, per_metric in want.metrics.items():
        for m, stats in per_metric.items():
            for key in ("mean", "std", "per_sample_means"):
                np.testing.assert_allclose(got.metrics[v][m][key], stats[key],
                                           rtol=1e-12, atol=0)
    got_lines, want_lines = ([json.loads(l) for l in
                              (d / "trials.jsonl").read_text().splitlines()]
                             for d in (got_dir, want_dir))
    assert len(got_lines) == len(want_lines) == sum(want.completed.values())
    for g, w in zip(got_lines, want_lines):
        assert g.keys() == w.keys()
        assert (g["sample"], g["seq"], g["variant"]) == (w["sample"], w["seq"],
                                                          w["variant"])
        for m in ("position", "orientation", "velocity"):
            assert g[m] == pytest.approx(w[m], rel=1e-12, abs=0)


@pytest.mark.parametrize("cap", sorted(CHUNK_CAPS))
@pytest.mark.parametrize("name", sorted(DIFF_PLANS) + sorted(MIXED_FAILURES))
def test_chunked_run_matches_per_trial_oracle(tmp_path, monkeypatch, name, cap):
    import oracle
    from mimufusion import calibration, harness

    if CHUNK_CAPS[cap] is not None:
        monkeypatch.setattr(harness, "_CHUNK_BYTES", CHUNK_CAPS[cap])
    if name in MIXED_FAILURES:
        plan = DIFF_PLANS[MIXED_FAILURES[name]]
        eig = np.sort(smallest_gyro_eigenvalues(plan))
        half = len(eig) // 2
        monkeypatch.setattr(calibration, "GYRO_EXCITATION_MIN",
                            0.5 * (eig[half - 1] + eig[half]))
    else:
        plan = DIFF_PLANS[name]
    want = oracle.run_experiment(plan, out_dir=tmp_path / "oracle")
    got = run_experiment(plan, out_dir=tmp_path / "chunked")
    assert_reports_agree(got, want, tmp_path / "chunked", tmp_path / "oracle")
    if name in MIXED_FAILURES:
        assert len(got.failures) == half
        assert all("DegenerateMotion" in f for f in got.failures)


def test_trial_noise_does_not_depend_on_the_variant_list(tmp_path):
    """Every trial draws the noise of the whole grid, so a plan with
    every variant and one with 1-imu-true and 9-imu-perturbed alone, on
    one seed, score the same trials for those two. Their chunks differ
    (the full plan's default chunk and 1 more, against one chunk of
    all), so the agreement is to round-off."""
    base = DIFF_PLANS["exact-windows"]
    seqs = _chunk_trials(dataclasses.replace(base, sequences_per_sample=1 << 20)) + 1
    full = dataclasses.replace(base, sequences_per_sample=seqs)
    subset = dataclasses.replace(full, variants=("1-imu-true", "9-imu-perturbed"))
    assert _chunk_trials(full) == seqs - 1 and _chunk_trials(subset) == seqs
    for plan, name in ((full, "full"), (subset, "subset")):
        run_experiment(plan, out_dir=tmp_path / name)
    got, want = ({(t["sample"], t["seq"], t["variant"]): t
                  for t in map(json.loads,
                               (tmp_path / name / "trials.jsonl").read_text().splitlines())
                  if t["variant"] in subset.variants}
                 for name in ("subset", "full"))
    assert got.keys() == want.keys() and len(got) == seqs * len(subset.variants)
    for key, w in want.items():
        for m in ("position", "orientation", "velocity"):
            assert got[key][m] == pytest.approx(w[m], rel=1e-12, abs=0)


def test_progress_line_gives_trials_per_second_and_eta(caplog, monkeypatch):
    """At INFO, each extrinsic sample's line gives the (sequence,
    variant) trials per second so far and the time left at that rate,
    read from one clock reading per sample: a clock that advances 2 s
    per reading gives 5 sequences x 2 variants per 2 s."""
    import itertools

    from mimufusion import harness

    monkeypatch.setattr(harness, "perf_counter", itertools.count(0.0, 2.0).__next__)
    plan = dataclasses.replace(DIFF_PLANS["exact-windows"], extrinsic_samples=3,
                               sequences_per_sample=5,
                               variants=("1-imu-true", "9-imu-perturbed"))
    with caplog.at_level("INFO", logger="mimufusion.harness"):
        run_experiment(plan)
    assert [r.getMessage() for r in caplog.records] == [
        "extrinsic sample 1/3 done, 5 trials/s, ETA 4 s",
        "extrinsic sample 2/3 done, 5 trials/s, ETA 2 s",
        "extrinsic sample 3/3 done, 5 trials/s, ETA 0 s",
    ]
