import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from mimufusion.cli import main
from mimufusion.csvio import load_yaml, read_json
from mimufusion.geometry import geodesic_angle, rotation_from_quat

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


SIM_YAML = """\
freq: 200
duration: 10
seed: 11
imus:
  - name: imu_a
    position_m: [-0.05, 0, 0]
  - name: imu_b
    position_m: [0.05, 0, 0]
    rotation_wxyz: [0.99904822158185775, 0, 0.04361938736533601, 0]
"""

NOISE_YAML = """\
sigma_g: 1.7e-4
sigma_a: 2.0e-3
sigma_bg: 1.0e-5
sigma_ba: 3.0e-4
"""

STILL_YAML = """\
freq: 200
duration: 3
seed: 2
trajectory:
  position_amplitude_m: [0, 0, 0]
  euler_amplitude_rad: [0, 0, 0]
imus:
  - name: imu_a
    position_m: [-0.05, 0, 0]
  - name: imu_b
    position_m: [0.05, 0, 0]
"""

PLAN_YAML = """\
variants: [1-imu-true, 2-imu-perturbed]
extrinsic_samples: 1
sequences_per_sample: 2
master_seed: 3
sim:
  freq: 200
  duration: 1.5
"""

# every calibration of a still trajectory fails
STILL_PLAN_YAML = PLAN_YAML.replace("2-imu-perturbed", "2-imu-calibrated").replace(
    "extrinsic_samples: 1", "extrinsic_samples: 2") + """\
  trajectory:
    euler_amplitude_rad: [0, 0, 0]
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated pair reused by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "sim.yaml").write_text(SIM_YAML)
    (root / "noise.yaml").write_text(NOISE_YAML)
    assert main(["simulate", "--config", str(root / "sim.yaml"),
                 "--out", str(root / "data")]) == 0
    return root


@pytest.fixture(scope="module")
def calibrated(workspace):
    out = workspace / "calib.json"
    code = main(["calibrate",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--noise", str(workspace / "noise.yaml"),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fused(workspace, calibrated):
    out = workspace / "virtual.csv"
    code = main(["fuse",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--calib", str(calibrated),
                 "--noise", str(workspace / "noise.yaml"),
                 "--out", str(out)])
    assert code == 0
    return out


def test_simulate_outputs(workspace):
    data = workspace / "data"
    assert (data / "imu_a.csv").exists()
    assert (data / "imu_b.csv").exists()
    manifest = read_json(data / "manifest.json")
    assert manifest["imus"] == ["imu_a", "imu_b"]
    assert manifest["freq"] == 200.0
    assert manifest["seed"] == 11


def test_simulate_matches_per_imu_simulation(workspace):
    """simulate evaluates the trajectory once for all IMUs and gives each
    the samples oracle.simulate_imu gives it alone with the same stream."""
    from oracle import simulate_imu

    from mimufusion.csvio import load_sim_setup, read_imu_csv

    cfg, imus = load_sim_setup(workspace / "sim.yaml")
    streams = np.random.SeedSequence(cfg.seed).spawn(len(imus))
    for (name, mount, noise), seq in zip(imus, streams):
        want = simulate_imu(cfg, mount, noise, seed=seq)
        got = read_imu_csv(workspace / "data" / f"{name}.csv")
        assert np.array_equal(got.gyro, want.gyro)
        assert np.array_equal(got.accel, want.accel)


NON_FINITE = [".inf", ".nan", "1e400"]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["freq", "duration"])
def test_simulate_rejects_non_finite_config_value(tmp_path, capsys, field, value):
    sim = SIM_YAML.replace({"freq": "freq: 200\n", "duration": "duration: 10\n"}[field],
                           f"{field}: {value}\n")
    assert sim != SIM_YAML
    (tmp_path / "sim.yaml").write_text(sim)
    code = main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(tmp_path / "data")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert f"{field} must be finite and positive" in payload["message"]
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
@pytest.mark.parametrize("flag", ["--freq", "--duration"])
def test_simulate_rejects_non_finite_override(workspace, tmp_path, capsys, flag, value):
    code = main(["simulate", "--config", str(workspace / "sim.yaml"),
                 "--out", str(tmp_path / "data"), flag, value])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"
    assert f"{flag[2:]} must be finite and positive" in payload["message"]
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("source", ["flags", "yaml"])
def test_simulate_rejects_sample_count_that_overflows(workspace, tmp_path, capsys, source):
    """freq and duration of 1e200 each are finite, but their product, the
    sample count, is not: one payload line names both keys, and no
    output directory is made."""
    if source == "flags":
        config, error = workspace / "sim.yaml", "ValueError"
        flags = ["--freq", "1e200", "--duration", "1e200"]
    else:
        config, error, flags = tmp_path / "sim.yaml", "FormatError", []
        config.write_text(SIM_YAML.replace("freq: 200\n", "freq: 1.0e+200\n")
                          .replace("duration: 10\n", "duration: 1.0e+200\n"))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "data"),
                 *flags])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == error
    assert "freq * duration must be finite" in payload["message"]
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("duration", ["0.001", "0.005"])
def test_simulate_rejects_series_shorter_than_two_samples(workspace, tmp_path,
                                                          capsys, duration):
    """0 or 1 sample at 200 Hz: no CSV is written that calibrate would
    reject for having no rate."""
    code = main(["simulate", "--config", str(workspace / "sim.yaml"),
                 "--out", str(tmp_path / "data"), "--duration", duration])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert "imu_a.csv: need at least 2 samples" in payload["message"]
    assert list((tmp_path / "data").glob("*.csv")) == []


def test_simulate_failure_removes_the_out_directories_it_made(workspace, tmp_path,
                                                              capsys):
    """A simulate that fails removes the --out directory it created,
    and the missing parents it created with it."""
    code = main(["simulate", "--config", str(workspace / "sim.yaml"),
                 "--out", str(tmp_path / "new" / "short"), "--duration", "0.005"])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "FormatError"
    assert list(tmp_path.iterdir()) == []


BAD_IMU_NAMES = {
    # a name that would write outside --out
    "escaped": ("- name: ../escaped\n",
                "imus[0].name '../escaped' is not a plain file name"),
    # a second imu_a would overwrite the first CSV
    "duplicate": ("- name: imu_a\n", "imus[2].name 'imu_a' repeats an earlier name"),
    # a name that would need a subdirectory of --out
    "subdirectory": ("- name: sub/dir\n",
                     "imus[0].name 'sub/dir' is not a plain file name"),
}


@pytest.mark.parametrize("case", sorted(BAD_IMU_NAMES))
def test_simulate_rejects_imu_name_that_is_not_a_plain_file_name(tmp_path, capsys,
                                                                  case):
    entry, message = BAD_IMU_NAMES[case]
    sim = (SIM_YAML + "  " + entry if case == "duplicate"
           else SIM_YAML.replace("- name: imu_a\n", entry))
    (tmp_path / "sim.yaml").write_text(sim)
    out = tmp_path / "run" / "data"
    code = main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "FormatError",
                       "message": f"{tmp_path / 'sim.yaml'}: simulation config: {message}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.yaml"]


@pytest.mark.parametrize("existing", [False, True])
def test_simulate_writes_all_csvs_or_none(tmp_path, capsys, recwarn, existing):
    """imu_b's noise overflows after imu_a was simulated: the error names
    the YAML file and imu_b's sigma, as evaluate names a plan's, no CSV
    is left behind, an --out directory that existed keeps only what it
    held, and no numpy warning is printed."""
    (tmp_path / "sim.yaml").write_text(SIM_YAML + "    noise: {sigma_g: 1.0e+308}\n")
    out = tmp_path / "data"
    if existing:
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
    code = main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(out), "--duration", "1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "FormatError", "message": f"{tmp_path / 'sim.yaml'}: "
                       "imus[1].noise.sigma_g 1e+308 makes the noise overflow at 200 Hz"}
    if existing:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
    else:
        assert not out.exists()
    assert [str(w.message) for w in recwarn] == []


def test_main_runs_a_command_replaced_after_the_parser_was_built(monkeypatch):
    """The parser is built once per process, and main still runs a
    cmd_* function that was wrapped or replaced after that."""
    import mimufusion.cli as cli

    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_fuse", lambda args: seen.append(args.out) or 7)
    assert main(["fuse", "--imu-a", "a.csv", "--imu-b", "b.csv", "--calib", "calib.json",
                 "--noise", "noise.yaml", "--out", "virtual.csv"]) == 7
    assert seen == ["virtual.csv"]


def test_simulate_seed_reproducible(workspace, tmp_path):
    code = main(["simulate", "--config", str(workspace / "sim.yaml"),
                 "--out", str(tmp_path / "rerun"), "--seed", "11"])
    assert code == 0
    original = (workspace / "data" / "imu_a.csv").read_text()
    rerun = (tmp_path / "rerun" / "imu_a.csv").read_text()
    assert rerun == original
    code = main(["simulate", "--config", str(workspace / "sim.yaml"),
                 "--out", str(tmp_path / "other"), "--seed", "12"])
    assert code == 0
    assert (tmp_path / "other" / "imu_a.csv").read_text() != original


def test_calibrate_accuracy(calibrated):
    d = read_json(calibrated)
    assert set(d) == {"q_BA", "p_AB_m", "rotation", "translation"}
    assert set(d["rotation"]) == set(d["translation"]) == {"cost", "elapsed_ms"}
    true_rot = rotation_from_quat(np.array(
        [0.99904822158185775, 0.0, 0.04361938736533601, 0.0]))
    est_rot = rotation_from_quat(np.asarray(d["q_BA"], dtype=float))
    assert geodesic_angle(est_rot, true_rot) < 2e-3
    np.testing.assert_allclose(d["p_AB_m"], [0.1, 0.0, 0.0], atol=5e-3)


def test_calibrate_missing_file(workspace, capsys):
    code = main(["calibrate",
                 "--imu-a", str(workspace / "data" / "nope.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--noise", str(workspace / "noise.yaml"),
                 "--out", str(workspace / "unused.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not (workspace / "unused.json").exists()


def test_calibrate_degenerate_motion(tmp_path, capsys):
    (tmp_path / "still.yaml").write_text(STILL_YAML)
    (tmp_path / "noise.yaml").write_text(NOISE_YAML)
    assert main(["simulate", "--config", str(tmp_path / "still.yaml"),
                 "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    code = main(["calibrate",
                 "--imu-a", str(tmp_path / "data" / "imu_a.csv"),
                 "--imu-b", str(tmp_path / "data" / "imu_b.csv"),
                 "--noise", str(tmp_path / "noise.yaml"),
                 "--out", str(tmp_path / "calib.json")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DegenerateMotion"
    assert not (tmp_path / "calib.json").exists()


def test_calibrate_window_flag(workspace, tmp_path):
    out = tmp_path / "calib_window.json"
    code = main(["calibrate",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--noise", str(workspace / "noise.yaml"),
                 "--window-secs", "5",
                 "--out", str(out)])
    assert code == 0
    d = read_json(out)
    np.testing.assert_allclose(d["p_AB_m"], [0.1, 0.0, 0.0], atol=1e-2)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_calibrate_rejects_non_finite_window(workspace, tmp_path, capsys, value):
    out = tmp_path / "calib.json"
    code = main(["calibrate",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--noise", str(workspace / "noise.yaml"),
                 f"--window-secs={value}",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith("--window-secs: ")
    assert "not finite" in payload["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def sim_pair_5s(tmp_path_factory):
    """configs/sim_pair.yaml simulated for 5 s and calibrated with
    configs/noise_mems.yaml: (the data directory, the calib.json data)."""
    root = tmp_path_factory.mktemp("sim_pair")
    assert main(["simulate", "--config", str(CONFIG_DIR / "sim_pair.yaml"),
                 "--out", str(root / "data"), "--duration", "5"]) == 0
    assert main(["calibrate", "--imu-a", str(root / "data" / "imu_a.csv"),
                 "--imu-b", str(root / "data" / "imu_b.csv"),
                 "--noise", str(CONFIG_DIR / "noise_mems.yaml"),
                 "--out", str(root / "calib.json")]) == 0
    return root / "data", read_json(root / "calib.json")


@pytest.mark.parametrize("sigma", ["0", "1.0e-200", "1.0e-160", "1.0e+200"])
def test_calibrate_estimate_does_not_read_noise_sigmas(sim_pair_5s, tmp_path, sigma):
    """Any finite sigma >= 0 calibrates to the MEMS run's extrinsic bit
    for bit, and calib.json stays strict JSON: a cost whose division by
    a subnormal variance overflows (sigma 1e-160) is null."""
    data, mems = sim_pair_5s
    (tmp_path / "noise.yaml").write_text(f"sigma_g: {sigma}\nsigma_a: {sigma}\n")
    code = main(["calibrate", "--imu-a", str(data / "imu_a.csv"),
                 "--imu-b", str(data / "imu_b.csv"),
                 "--noise", str(tmp_path / "noise.yaml"),
                 "--out", str(tmp_path / "calib.json")])
    assert code == 0

    def strict(token):
        raise AssertionError(f"non-strict JSON token {token}")
    d = json.loads((tmp_path / "calib.json").read_text(), parse_constant=strict)
    assert (d["q_BA"], d["p_AB_m"]) == (mems["q_BA"], mems["p_AB_m"])
    costs = [d[stage]["cost"] for stage in ("rotation", "translation")]
    if sigma == "1.0e-160":
        assert costs == [None, None]
    else:
        assert all(np.isfinite(c) and c >= 0.0 for c in costs), costs


def test_calibrate_fails_typed_when_the_gram_overflows(tmp_path, capsys):
    """configs/sim_pair.yaml with sigma_g 1e150 gives finite CSVs whose
    rates overflow the translation Gram: calibrate exits 1 with a
    SingularNormalEquations payload, without a numpy warning, and writes
    no calib.json."""
    sim = (CONFIG_DIR / "sim_pair.yaml").read_text()
    assert sim.count("sigma_g: 1.7e-4") == 1
    (tmp_path / "sim.yaml").write_text(sim.replace("sigma_g: 1.7e-4", "sigma_g: 1.0e+150"))
    assert main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(tmp_path / "data"), "--duration", "2"]) == 0
    capsys.readouterr()
    code = main(["calibrate", "--imu-a", str(tmp_path / "data" / "imu_a.csv"),
                 "--imu-b", str(tmp_path / "data" / "imu_b.csv"),
                 "--noise", str(CONFIG_DIR / "noise_mems.yaml"),
                 "--out", str(tmp_path / "calib.json")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "SingularNormalEquations", "message":
                       "translation Gram is not finite: the rates overflow its products"}
    assert not (tmp_path / "calib.json").exists()


def test_preintegrate_fails_typed_when_the_angle_overflows(sim_pair_5s, tmp_path, capsys):
    """configs/sim_pair.yaml with sigma_g 1e150, fused with the MEMS run's
    calib.json, gives finite rates near 1e151 rad/s: each sample's angle
    per period overflows when the right Jacobian cubes it. preintegrate
    exits 1 with a FormatError payload naming the file and the first such
    sample, without a numpy warning, and writes no deltas."""
    data, _ = sim_pair_5s
    sim = (CONFIG_DIR / "sim_pair.yaml").read_text()
    (tmp_path / "sim.yaml").write_text(sim.replace("sigma_g: 1.7e-4", "sigma_g: 1.0e+150"))
    assert main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(tmp_path / "data"), "--duration", "2"]) == 0
    assert main(["fuse", "--imu-a", str(tmp_path / "data" / "imu_a.csv"),
                 "--imu-b", str(tmp_path / "data" / "imu_b.csv"),
                 "--calib", str(data.parent / "calib.json"),
                 "--noise", str(CONFIG_DIR / "noise_mems.yaml"),
                 "--out", str(tmp_path / "virtual.csv")]) == 0
    capsys.readouterr()
    code = main(["preintegrate", "--vimu", str(tmp_path / "virtual.csv"),
                 "--vimu-config", str(tmp_path / "virtual.json"), "--interval", "0.5",
                 "--out", str(tmp_path / "deltas.jsonl")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    message = payload["message"]
    assert message.startswith(f"{tmp_path / 'virtual.csv'}: sample 0 turns "), message
    assert message.endswith(" rad in one period, an angle whose cube overflows"), message
    assert not (tmp_path / "deltas.jsonl").exists()


def test_fuse_outputs(workspace, fused):
    sidecar = read_json(fused.with_suffix(".json"))
    assert sidecar["freq"] == pytest.approx(200.0, rel=1e-6)
    assert len(sidecar["config"]["positions_m"]) == 2
    cov = np.asarray(sidecar["covariances"]["Q_gV"], dtype=float)
    assert cov.shape == (3, 3)
    # fused gyro density is half of one sensor's
    np.testing.assert_allclose(np.diag(cov), 0.5 * 1.7e-4**2, rtol=1e-6)
    text = fused.read_text().splitlines()
    assert text[0] == "t_ns,wx,wy,wz,ax,ay,az"
    assert len(text) == 1 + 2000 - 2  # endpoints spent on differencing


def test_cli_csvs_round_trip_bytes(workspace, fused, tmp_path):
    """Every CSV that simulate and fuse write reads back into a series
    that writes the same bytes again."""
    from mimufusion.csvio import read_imu_csv, write_imu_csv

    data = workspace / "data"
    for path in (data / "imu_a.csv", data / "imu_b.csv", fused):
        again = tmp_path / path.name
        write_imu_csv(again, read_imu_csv(path))
        assert again.read_bytes() == path.read_bytes()


def test_preintegrate_outputs(workspace, fused, tmp_path):
    out = tmp_path / "deltas.jsonl"
    code = main(["preintegrate",
                 "--vimu", str(fused),
                 "--vimu-config", str(fused.with_suffix(".json")),
                 "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert len(lines) == (2000 - 2) // 100  # default 0.5 s keyframes
    for j, entry in enumerate(lines):
        assert entry["window"] == j
        assert entry["count"] == 100
        assert entry["duration_s"] == pytest.approx(0.5)
        assert len(entry["cov_diag"]) == 9
        assert all(c >= 0 for c in entry["cov_diag"])
        dR = np.asarray(entry["dR"], dtype=float)
        assert dR.shape == (3, 3)
        np.testing.assert_allclose(dR @ dR.T, np.eye(3), atol=1e-9)


def test_preintegrate_interval_flag(workspace, fused, tmp_path):
    out = tmp_path / "deltas.jsonl"
    code = main(["preintegrate",
                 "--vimu", str(fused),
                 "--vimu-config", str(fused.with_suffix(".json")),
                 "--interval", "1.0",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == (2000 - 2) // 200


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_preintegrate_rejects_non_finite_interval(fused, tmp_path, capsys, value):
    out = tmp_path / "deltas.jsonl"
    code = main(["preintegrate",
                 "--vimu", str(fused),
                 "--vimu-config", str(fused.with_suffix(".json")),
                 f"--interval={value}",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"
    assert "--interval must be finite and positive" in payload["message"]
    assert not out.exists()


def test_preintegrate_rejects_interval_longer_than_series(fused, tmp_path, capsys):
    out = tmp_path / "deltas.jsonl"
    code = main(["preintegrate",
                 "--vimu", str(fused),
                 "--vimu-config", str(fused.with_suffix(".json")),
                 "--interval", "1e308",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["message"] == "series shorter than one keyframe interval"
    assert not out.exists()


def test_preintegrate_matches_per_window_loop(workspace, fused, tmp_path):
    """The JSONL equals a window-by-window loop of one-window
    preintegrate_windows calls over the same inputs; an interval that
    leaves remainder samples drops them."""
    from mimufusion.csvio import read_imu_csv, read_vimu_sidecar
    from mimufusion.preintegration import VimuState, preintegrate_windows
    from mimufusion.types import ImuSeries

    out = tmp_path / "deltas.jsonl"
    code = main(["preintegrate",
                 "--vimu", str(fused),
                 "--vimu-config", str(fused.with_suffix(".json")),
                 "--interval", "0.35",
                 "--out", str(out)])
    assert code == 0
    got = [json.loads(l) for l in out.read_text().strip().split("\n")]

    series = read_imu_csv(fused)
    _, noise, _ = read_vimu_sidecar(fused.with_suffix(".json"))
    step = int(round(0.35 * series.freq))
    assert len(series) % step != 0
    want = []
    for j in range(len(series) // step):
        window = ImuSeries(
            freq=series.freq, start_ns=0,
            gyro=series.gyro[j * step:(j + 1) * step],
            accel=series.accel[j * step:(j + 1) * step])
        delta = preintegrate_windows(window, VimuState.identity(), step,
                                     noise)[0]
        want.append({
            "window": j,
            "t_start_s": j * step / series.freq,
            "duration_s": delta.duration,
            "count": delta.count,
            "dR": delta.rotation.tolist(),
            "dv": delta.velocity.tolist(),
            "dp": delta.position.tolist(),
            "cov_diag": np.diag(delta.covariance).tolist(),
        })

    assert len(got) == len(want) == (2000 - 2) // step
    for g, w in zip(got, want):
        assert set(g) == set(w)
        for key in ("window", "t_start_s", "duration_s", "count"):
            assert g[key] == w[key]
        for key in ("dR", "dv", "dp"):
            np.testing.assert_allclose(g[key], w[key], atol=1e-12)
        np.testing.assert_allclose(g["cov_diag"], w["cov_diag"], rtol=1e-10,
                                   atol=1e-25)


def test_evaluate_tiny_plan(tmp_path, capsys):
    (tmp_path / "plan.yaml").write_text(PLAN_YAML)
    out = tmp_path / "report"
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "plot_data.csv").exists()
    assert (out / "failures.log").exists()
    assert (out / "trials.jsonl").exists()
    report = read_json(out / "report.json")
    assert set(report["metrics"]) == {"1-imu-true", "2-imu-perturbed"}
    stdout = capsys.readouterr().out
    assert "1-imu-true" in stdout


def test_evaluate_variant_override(tmp_path):
    (tmp_path / "plan.yaml").write_text(PLAN_YAML)
    out = tmp_path / "report"
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(out), "--variants", "1-imu-true"])
    assert code == 0
    report = read_json(out / "report.json")
    assert set(report["metrics"]) == {"1-imu-true"}


def test_evaluate_report_is_strict_json_without_completed_trials(tmp_path):
    """A variant with no completed trial in an extrinsic sample has NaN
    means in memory; report.json holds them as null and parses as
    strict JSON, without NaN or Infinity tokens, and plot_data.csv
    leaves their fields empty."""
    (tmp_path / "plan.yaml").write_text(STILL_PLAN_YAML)
    out = tmp_path / "report"
    assert main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(out)]) == 0

    def reject(token):
        raise AssertionError(f"non-strict JSON token {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["completed"] == {"1-imu-true": 4, "2-imu-calibrated": 0}
    for m in ("position", "orientation", "velocity"):
        assert report["metrics"]["2-imu-calibrated"][m] == {
            "mean": None, "std": None, "per_sample_means": [None, None]}
        stats = report["metrics"]["1-imu-true"][m]
        assert all(x > 0 for x in stats["per_sample_means"] + [stats["mean"]])
    with open(out / "plot_data.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        stats = report["metrics"][row["variant"]][row["metric"]]
        for key in ("mean", "std"):
            want = stats[key]
            assert row[key] == "" if want is None else float(row[key]) == want


def desk_plan(**noise) -> str:
    """configs/plan_desk.yaml cut to 2 extrinsic samples x 3 sequences,
    with the noise values given, as YAML text."""
    plan = load_yaml(CONFIG_DIR / "plan_desk.yaml")
    plan.update(extrinsic_samples=2, sequences_per_sample=3)
    plan["noise"].update(noise)
    return yaml.safe_dump(plan)


@pytest.mark.parametrize("noise", [{}, {"sigma_g": 1.0e+150}],
                         ids=["ragged-chunk", "calibrated-trials-fail"])
def test_report_means_are_the_means_of_the_trial_lines(tmp_path, noise):
    """Each per_sample_means entry of report.json is, bit for bit, the
    mean of its sample's, variant's and metric's trials.jsonl values in
    sequence order (null where there are none), and completed counts
    each variant's lines. The desk plan cut to 2 x 12 runs chunks of 11
    and 1 trials; with sigma_g 1e150 every 2-imu-calibrated trial fails."""
    plan = load_yaml(CONFIG_DIR / "plan_desk.yaml")
    plan.update(extrinsic_samples=2, sequences_per_sample=12)
    plan["noise"].update(noise)
    (tmp_path / "plan.yaml").write_text(yaml.safe_dump(plan))
    out = tmp_path / "report"
    assert main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    lines = {}  # (variant, sample) -> that sample's trial lines, in file order
    for line in (out / "trials.jsonl").read_text().splitlines():
        trial = json.loads(line)
        lines.setdefault((trial["variant"], trial["sample"]), []).append(trial)
    assert all(seqs == sorted(seqs) for seqs in
               ([t["seq"] for t in trials] for trials in lines.values()))
    if noise:
        assert report["completed"]["2-imu-calibrated"] == 0
    for v, per_metric in report["metrics"].items():
        assert report["completed"][v] == sum(len(lines.get((v, s), [])) for s in range(2))
        for m, stats in per_metric.items():
            want = [np.array([t[m] for t in lines[v, s]]).mean() if (v, s) in lines
                    else None for s in range(2)]
            assert stats["per_sample_means"] == want, (v, m)


def test_evaluate_lists_calibrations_whose_gram_overflows(tmp_path, capsys):
    """With sigma_g 1e150 every calibrated trial's translation Gram
    overflows: evaluate exits 0 without a numpy warning, lists those
    trials in failures.log and scores every other variant's trials."""
    (tmp_path / "plan.yaml").write_text(desk_plan(sigma_g=1e150))
    out = tmp_path / "report"
    assert main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["completed"] == {"1-imu-true": 6, "2-imu-perturbed": 6,
                                   "4-imu-perturbed": 6, "9-imu-perturbed": 6,
                                   "2-imu-calibrated": 0}
    failures = (out / "failures.log").read_text().splitlines()
    assert failures == [
        f"sample={s} seq={r} variant=2-imu-calibrated: SingularNormalEquations: "
        "translation Gram is not finite: the rates overflow its products"
        for s in range(2) for r in range(3)]
    assert len((out / "trials.jsonl").read_text().splitlines()) == 24
    assert "6 trial(s) failed" in capsys.readouterr().err


def test_evaluate_lists_trials_whose_score_overflows(tmp_path, capsys):
    """An accel turn-on bias of 1e160 is finite, and so is every sample,
    but every trial's dead-reckoned position and velocity errors square
    to inf: evaluate exits 0 without a numpy warning, lists every trial
    in failures.log, and writes trials.jsonl and report.json as strict
    JSON, with null means."""
    (tmp_path / "plan.yaml").write_text(desk_plan(initial_bias_a=[1e160, 0.0, 0.0]))
    out = tmp_path / "report"
    assert main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(out)]) == 0

    def reject(token):
        raise AssertionError(f"non-strict JSON token {token}")

    variants = load_yaml(CONFIG_DIR / "plan_desk.yaml")["variants"]
    failures = (out / "failures.log").read_text().splitlines()
    assert failures == [
        f"sample={s} seq={r} variant={v}: FormatError: the position and velocity "
        "RMSE of the dead-reckoned states is not finite"
        for s in range(2) for r in range(3) for v in variants]
    assert [json.loads(line, parse_constant=reject)
            for line in (out / "trials.jsonl").read_text().splitlines()] == []
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["completed"] == {v: 0 for v in variants}
    for v in variants:
        for m in ("position", "orientation", "velocity"):
            assert report["metrics"][v][m] == {
                "mean": None, "std": None, "per_sample_means": [None, None]}
    assert "30 trial(s) failed" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["sigma_g", "sigma_a", "sigma_bg", "sigma_ba"])
def test_evaluate_rejects_noise_sigma_that_overflows(tmp_path, capsys, key):
    """A plan noise sigma of 1e200 overflows the noise: evaluate exits 1
    with a FormatError naming the noise block and the sigma, without a
    numpy warning and before any output exists."""
    (tmp_path / "plan.yaml").write_text(desk_plan(**{key: 1e200}))
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "FormatError", "message":
                       f"plan.noise.{key} 1e+200 makes the noise overflow at 200 Hz"}
    assert not (tmp_path / "report").exists()


def test_evaluate_rejects_unknown_variant(tmp_path, capsys):
    (tmp_path / "plan.yaml").write_text(PLAN_YAML)
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report"), "--variants", "bogus"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["freq", "duration"])
def test_evaluate_rejects_non_finite_sim_value(tmp_path, capsys, field, value):
    plan = PLAN_YAML.replace({"freq": "  freq: 200\n", "duration": "  duration: 1.5\n"}[field],
                             f"  {field}: {value}\n")
    assert plan != PLAN_YAML
    (tmp_path / "plan.yaml").write_text(plan)
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert f"{field} must be finite and positive" in payload["message"]


@pytest.mark.parametrize("value", NON_FINITE)
def test_evaluate_rejects_non_finite_keyframe_interval(tmp_path, capsys, value):
    (tmp_path / "plan.yaml").write_text(PLAN_YAML + f"keyframe_interval_s: {value}\n")
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert "keyframe_interval must be finite and positive" in payload["message"]


def test_evaluate_rejects_keyframe_interval_whose_sample_count_overflows(tmp_path, capsys):
    """A keyframe interval of 1e308 s is finite, but not its sample count
    at 200 Hz: one FormatError payload line names the key, and no report
    directory is made."""
    (tmp_path / "plan.yaml").write_text(plan_with("keyframe_interval_s", "1.0e+308"))
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "FormatError"
    assert "keyframe_interval * sim.freq must be finite" in payload["message"]
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("value", ["1.0e-9", "10"])
def test_evaluate_rejects_keyframe_interval_that_holds_no_window(tmp_path, capsys, value):
    """A keyframe interval below one sample period, or too long for one
    whole window of the desk plan's 3 s simulation, fails when the plan
    is read: one FormatError payload line names the file and
    keyframe_interval_s, and no report directory is made."""
    text = (CONFIG_DIR / "plan_desk.yaml").read_text()
    assert text.count("keyframe_interval_s: 0.5\n") == 1
    (tmp_path / "plan.yaml").write_text(
        text.replace("keyframe_interval_s: 0.5\n", f"keyframe_interval_s: {value}\n"))
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "FormatError"
    assert payload["message"].startswith(f"{tmp_path / 'plan.yaml'}: ")
    assert "keyframe_interval_s" in payload["message"]
    assert not (tmp_path / "report").exists()


# A value that a constructor rejects, as a plan and a simulation YAML
# hold it: (old plan text, new plan text, old simulation text, new
# simulation text or None where that YAML has no such key, the key or
# field that the message names)
BAD_IN_EITHER_FORMAT = {
    "freq": ("  freq: 200\n", "  freq: .inf\n", "freq: 200\n", "freq: .inf\n", "freq"),
    "duration": ("  duration: 1.5\n", "  duration: .nan\n",
                 "duration: 10\n", "duration: .nan\n", "duration"),
    "pitch": ("  duration: 1.5\n",
              "  duration: 1.5\n  trajectory: {euler_amplitude_rad: [0.5, 2, 0.6]}\n",
              "seed: 11\n", "seed: 11\ntrajectory: {euler_amplitude_rad: [0.5, 2, 0.6]}\n",
              "euler_amplitude"),
    "sigma_g": ("master_seed: 3\n", "master_seed: 3\nnoise: {sigma_g: -1}\n",
                "position_m: [0.05, 0, 0]\n",
                "position_m: [0.05, 0, 0]\n    noise: {sigma_g: -1}\n", "sigma_g"),
    "extrinsic_samples": ("extrinsic_samples: 1\n", "extrinsic_samples: 0\n",
                          None, None, "extrinsic_samples"),
    "keyframe_interval_s": ("master_seed: 3\n", "master_seed: 3\nkeyframe_interval_s: -1\n",
                            None, None, "keyframe_interval"),
    "variants": ("variants: [1-imu-true, 2-imu-perturbed]\n", "variants: [bogus]\n",
                 None, None, "variants"),
}


@pytest.mark.parametrize("case", sorted(BAD_IN_EITHER_FORMAT))
def test_bad_value_fails_alike_in_plan_and_simulation_yaml(tmp_path, capsys, case):
    """A value that a config type's constructor rejects exits 1 with a
    FormatError that names its key or field, before any output is
    written, in a plan and, where the key exists there, in a simulation
    YAML; each message starts with its file's path, and past the path
    and the name of the block, both read the same."""
    plan_old, plan_new, sim_old, sim_new, name = BAD_IN_EITHER_FORMAT[case]
    assert PLAN_YAML.count(plan_old) == 1
    (tmp_path / "plan.yaml").write_text(PLAN_YAML.replace(plan_old, plan_new))
    assert main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")]) == 1
    plan_error = json.loads(capsys.readouterr().err.strip())
    assert plan_error["error"] == "FormatError"
    assert name in plan_error["message"]
    assert plan_error["message"].startswith(f"{tmp_path / 'plan.yaml'}: ")
    assert not (tmp_path / "report").exists()
    if sim_old is None:
        return
    assert SIM_YAML.count(sim_old) == 1
    (tmp_path / "sim.yaml").write_text(SIM_YAML.replace(sim_old, sim_new))
    assert main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(tmp_path / "data")]) == 1
    sim_error = json.loads(capsys.readouterr().err.strip())
    assert sim_error["error"] == "FormatError"
    assert sim_error["message"].startswith(f"{tmp_path / 'sim.yaml'}: ")
    assert (sim_error["message"].split(": ", 2)[2]
            == plan_error["message"].split(": ", 2)[2])
    assert not (tmp_path / "data").exists()


def plan_with(key, value):
    """PLAN_YAML with top-level ``key`` set to the YAML text ``value``."""
    kept = [line for line in PLAN_YAML.splitlines() if not line.startswith(f"{key}:")]
    return "\n".join(kept) + f"\n{key}: {value}\n"


@pytest.mark.parametrize("key, value", [
    ("extrinsic_samples", "2.7"),
    ("extrinsic_samples", "true"),
    ("sequences_per_sample", "true"),
    ("sequences_per_sample", "\"2\""),
    ("master_seed", "1.5"),
    ("sigma_rot_rad", ".nan"),
    ("sigma_rot_rad", "-0.01"),
    ("sigma_rot_rad", "fast"),
    ("sigma_trans_m", ".inf"),
    ("sigma_trans_m", "-1e-3"),
    ("grid_pitch_m", ".nan"),
    ("grid_pitch_m", "-.inf"),
    ("grid_pitch_m", "null"),
    ("variants", "1-imu-true"),
    ("variants", "[1-imu-true, 2-imu-perturbed, 1-imu-true]"),
])
def test_evaluate_rejects_bad_plan_value(tmp_path, capsys, key, value):
    """A count or seed that is not an integer, a sigma that is not finite
    and >= 0, a pitch that is not finite, or variants that are not a list
    of distinct names fail with a FormatError naming the key, before any
    trial runs."""
    (tmp_path / "plan.yaml").write_text(plan_with(key, value))
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert key in payload["message"]
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("plan, key", [
    (PLAN_YAML + "keyframe_interval_s: abc\n", "keyframe_interval_s"),
    (PLAN_YAML.replace("  freq: 200\n", "  freq: abc\n"), "sim.freq"),
    (PLAN_YAML + "  gravity: abc\n", "sim.gravity"),
    (PLAN_YAML + "  trajectory:\n    euler_frequency_hz: [0.5, .nan, 0.45]\n",
     "euler_frequency_hz"),
    (PLAN_YAML + "noise:\n  sigma_g: abc\n", "sigma_g"),
    (PLAN_YAML + "keyframe_interval_s: true\n", "keyframe_interval_s"),
], ids=["keyframe_interval_s", "sim.freq", "sim.gravity", "euler_frequency_hz", "sigma_g",
        "keyframe_interval_s-bool"])
def test_evaluate_rejects_value_that_is_not_a_number(tmp_path, capsys, plan, key):
    """A plan value that is not a number (a YAML bool is not one), or a
    trajectory entry that is not finite, fails with a FormatError naming
    the key, before any trial runs."""
    (tmp_path / "plan.yaml").write_text(plan)
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert key in payload["message"]
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("old, new, key", [
    ("    position_m: [-0.05, 0, 0]\n",
     "    position_m: [-0.05, 0, 0]\n    noise: {sigma_g: abc}\n", "sigma_g"),
    ("seed: 11\n", "seed: 11\ntrajectory: {euler_frequency_hz: [0.5, .nan, 0.45]}\n",
     "euler_frequency_hz"),
    ("seed: 11\n", "seed: 11\ngravity: [0, .nan, -9.81]\n", "gravity"),
    ("freq: 200\n", "freq: abc\n", "freq"),
    ("    position_m: [-0.05, 0, 0]\n", "    position_m: [-0.05, .inf, 0]\n",
     "position_m"),
    ("freq: 200\n", "freq: true\n", "freq"),
    ("    position_m: [-0.05, 0, 0]\n",
     "    position_m: [-0.05, 0, 0]\n    noise: {sigma_g: true}\n", "sigma_g"),
    ("seed: 11\n", "seed: 11\ngravity: [true, 0, -9.81]\n", "gravity"),
], ids=["sigma_g", "euler_frequency_hz", "gravity", "freq", "position_m",
        "freq-bool", "sigma_g-bool", "gravity-bool"])
def test_simulate_rejects_value_that_is_not_a_number(tmp_path, capsys, old, new, key):
    """A config value that is not a number (a YAML bool is not one), or a
    list entry that is not finite, fails with a FormatError naming the
    key, before any file is written."""
    assert SIM_YAML.count(old) == 1
    (tmp_path / "sim.yaml").write_text(SIM_YAML.replace(old, new))
    code = main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(tmp_path / "data")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert key in payload["message"]
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("value", ["1.5", "true", "\"7\""])
def test_simulate_rejects_non_integral_seed(tmp_path, capsys, value):
    (tmp_path / "sim.yaml").write_text(SIM_YAML.replace("seed: 11\n", f"seed: {value}\n"))
    code = main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                 "--out", str(tmp_path / "data")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert "seed must be an integer" in payload["message"]
    assert not (tmp_path / "data").exists()


# A negative seed, in a file or as --seed: (command, config name, config
# text, extra arguments, error class, the key that the message names)
NEGATIVE_SEEDS = {
    "simulate-file": ("simulate", "sim.yaml", SIM_YAML.replace("seed: 11\n", "seed: -1\n"),
                      [], "FormatError", "seed"),
    "simulate-flag": ("simulate", "sim.yaml", SIM_YAML, ["--seed", "-1"], "ValueError", "seed"),
    "evaluate-file": ("evaluate", "plan.yaml", plan_with("master_seed", "-1"), [],
                      "FormatError", "master_seed"),
    "evaluate-flag": ("evaluate", "plan.yaml", PLAN_YAML, ["--seed", "-1"], "ValueError",
                      "master_seed"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SEEDS))
def test_negative_seed_fails_naming_its_key(tmp_path, capsys, case):
    """A negative seed exits 1, as a FormatError from a file and as a
    ValueError from --seed, with a message that names its key, before
    any output is created."""
    command, name, text, extra, error, key = NEGATIVE_SEEDS[case]
    (tmp_path / name).write_text(text)
    assert main([command, "--config", str(tmp_path / name),
                 "--out", str(tmp_path / "out"), *extra]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == error
    assert f"{key} must be >= 0" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_evaluate_rejects_repeated_variant_flag(tmp_path, capsys):
    """A variant named twice in --variants exits 1 with a ValueError
    naming variants, before any output is created, instead of scoring
    and writing every trial of it twice."""
    (tmp_path / "plan.yaml").write_text(PLAN_YAML)
    assert main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report"),
                 "--variants", "1-imu-true,1-imu-true"]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"
    assert "variants repeat a name" in payload["message"]
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("block", ["sim", "noise", "trajectory"])
def test_evaluate_rejects_null_plan_block(tmp_path, capsys, block):
    """A plan block that is present but null (``sim:``, ``noise:`` or
    ``sim.trajectory:``) fails with a FormatError naming it."""
    plan = {"sim": PLAN_YAML.split("sim:")[0] + "sim:\n",
            "noise": PLAN_YAML + "noise:\n",
            "trajectory": PLAN_YAML + "  trajectory:\n"}[block]
    (tmp_path / "plan.yaml").write_text(plan)
    code = main(["evaluate", "--config", str(tmp_path / "plan.yaml"),
                 "--out", str(tmp_path / "report")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert f"{block} block must be a mapping" in payload["message"]


@pytest.mark.parametrize("top", ["[1, 2]", "null", "\"q\"",
                                 '{"q_BA": [1, 0, 0, 0], "p_AB_m": [NaN, 0, 0]}',
                                 '{"q_BA": [1, 0, 0, 0], "p_AB_m": [0, -Infinity, 0]}'])
def test_fuse_rejects_calibration_that_is_not_a_mapping(workspace, tmp_path,
                                                       capsys, top):
    """A calib.json that is not a mapping, or whose lever arm is not
    finite, fails with a FormatError naming the file."""
    calib = tmp_path / "calib.json"
    calib.write_text(top)
    code = main(["fuse",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--calib", str(calib),
                 "--noise", str(workspace / "noise.yaml"),
                 "--out", str(tmp_path / "virtual.csv")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert str(calib) in payload["message"]
    assert not (tmp_path / "virtual.csv").exists()


@pytest.mark.parametrize("change", ["missing-q_BA", "missing-p_AB_m", "unknown-key"])
def test_fuse_reads_calibration_through_its_key_table(workspace, calibrated, tmp_path,
                                                      capsys, change):
    """calib.json's q_BA and p_AB_m are both required: a missing one is
    named, never replaced by the identity, and a key besides them and
    the stage blocks is refused, each as a FormatError naming the file.
    The calib.json that calibrate writes, stage blocks included, fuses."""
    d = read_json(calibrated)
    assert {"rotation", "translation"} <= set(d)
    if change == "unknown-key":
        d["q_AB"] = d["q_BA"]
        want = "unknown calibration keys: ['q_AB']"
    else:
        key = change.removeprefix("missing-")
        del d[key]
        want = f"calibration: missing key `{key}`"
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps(d))
    code = main(["fuse",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--calib", str(calib),
                 "--noise", str(workspace / "noise.yaml"),
                 "--out", str(tmp_path / "virtual.csv")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert payload["message"] == f"{calib}: {want}"
    assert not (tmp_path / "virtual.csv").exists()


def test_preintegrate_rejects_sidecar_off_the_accel_centroid(fused, tmp_path, capsys):
    """Moving one sensor of the fused pair's sidecar by 1 mm takes its
    virtual origin off the accel-weighted centroid: preintegrate exits 1
    with a FormatError naming the sidecar and positions_m."""
    sidecar = read_json(fused.with_suffix(".json"))
    sidecar["config"]["positions_m"][0][1] += 1e-3
    path = tmp_path / "virtual.json"
    path.write_text(json.dumps(sidecar))
    code = main(["preintegrate", "--vimu", str(fused), "--vimu-config", str(path),
                 "--out", str(tmp_path / "deltas.jsonl")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert str(path) in payload["message"] and "positions_m" in payload["message"]
    assert not (tmp_path / "deltas.jsonl").exists()


def test_preintegrate_rejects_sidecar_mixing_exact_and_noisy_sensors(fused, tmp_path,
                                                                     capsys):
    """A sidecar whose noises give sensor A an exact accelerometer
    (sigma_a 0) beside B's noisy one has no fusion weights: preintegrate
    exits 1 with a FormatError naming the sidecar and noises."""
    sidecar = read_json(fused.with_suffix(".json"))
    sidecar["config"]["noises"][0]["sigma_a"] = 0.0
    path = tmp_path / "virtual.json"
    path.write_text(json.dumps(sidecar))
    code = main(["preintegrate", "--vimu", str(fused), "--vimu-config", str(path),
                 "--out", str(tmp_path / "deltas.jsonl")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert str(path) in payload["message"] and "noises" in payload["message"]
    assert not (tmp_path / "deltas.jsonl").exists()


@pytest.mark.parametrize("spec", ["a:\n  sigma_a: 0.0\nb:\n  sigma_a: 2.0e-3\n",
                                  "sigma_g: 1.0e200\n"], ids=["mixed", "overflow"])
def test_fuse_rejects_noise_pair_without_finite_fusion(workspace, calibrated, tmp_path,
                                                       capsys, spec):
    """A noise YAML that makes one accelerometer exact and the other
    noisy, or whose sigmas give a virtual density beyond the float
    range, fails fuse with a typed error and writes nothing."""
    noise = tmp_path / "noise.yaml"
    noise.write_text(spec)
    code = main(["fuse",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--calib", str(calibrated),
                 "--noise", str(noise),
                 "--out", str(tmp_path / "virtual.csv")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "SingularFusion"
    assert not (tmp_path / "virtual.csv").exists()


@pytest.mark.parametrize("field", ["config", "noise-entry", "covariances", "negative-Q_gV"])
def test_preintegrate_rejects_sidecar_with_wrong_types(workspace, fused,
                                                       tmp_path, capsys, field):
    """A sidecar block that is null, a noises entry that is not a
    mapping, or a Q_* that is not positive semi-definite fails with a
    FormatError naming the sidecar."""
    sidecar = read_json(fused.with_suffix(".json"))
    if field == "noise-entry":
        sidecar["config"]["noises"][1] = 5
    elif field == "negative-Q_gV":
        sidecar["covariances"]["Q_gV"] = (-1e-8 * np.eye(3)).tolist()
    else:
        sidecar[field] = None
    path = tmp_path / "virtual.json"
    path.write_text(json.dumps(sidecar))
    code = main(["preintegrate", "--vimu", str(fused), "--vimu-config", str(path),
                 "--out", str(tmp_path / "deltas.jsonl")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FormatError"
    assert str(path) in payload["message"]
    assert not (tmp_path / "deltas.jsonl").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_to_missing_directory(workspace, capsys):
    code = main(["calibrate",
                 "--imu-a", str(workspace / "data" / "imu_a.csv"),
                 "--imu-b", str(workspace / "data" / "imu_b.csv"),
                 "--noise", str(workspace / "noise.yaml"),
                 "--out", str(workspace / "no_such_dir" / "calib.json")])
    assert code == 2
    assert not (workspace / "no_such_dir").exists()


@pytest.mark.parametrize("command", ["calibrate", "fuse", "preintegrate"])
def test_output_to_missing_directory_names_that_directory(workspace, calibrated, fused,
                                                          tmp_path, capsys, command):
    """--out in a directory that does not exist exits 2 with one error:
    line that names that directory, not the hidden temp file the write
    would have staged there, and makes no directory."""
    data, noise = workspace / "data", str(workspace / "noise.yaml")
    pair = ["--imu-a", str(data / "imu_a.csv"), "--imu-b", str(data / "imu_b.csv")]
    inputs = {"calibrate": pair + ["--noise", noise],
              "fuse": pair + ["--calib", str(calibrated), "--noise", noise],
              "preintegrate": ["--vimu", str(fused),
                               "--vimu-config", str(fused.with_suffix(".json"))]}
    missing = tmp_path / "no_such_dir"
    capsys.readouterr()
    code = main([command, *inputs[command], "--out", str(missing / "out")])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and line.endswith(f"'{missing}'"), line
    assert ".tmp" not in line
    assert not missing.exists()


@pytest.mark.parametrize("command, config", [("evaluate", "plan_desk.yaml"),
                                             ("simulate", "sim_pair.yaml")])
def test_out_naming_an_existing_file_exits_2(tmp_path, capsys, command, config):
    """--out naming an existing regular file, where a directory is
    wanted, exits 2 with one error: line naming it, and leaves the file
    as it was."""
    out = tmp_path / "x.json"
    out.write_text("kept\n")
    code = main([command, "--config", str(CONFIG_DIR / config), "--out", str(out)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(out) in line, line
    assert out.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [out]


def test_console_script_installed():
    import shutil

    path = shutil.which("mimu")
    if path is None:
        pytest.skip("console script not on PATH in this environment")
    import subprocess

    out = subprocess.run([path, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "simulate" in out.stdout
