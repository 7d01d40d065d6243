import dataclasses
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracle import parse_csv as oracle_parse_csv
from oracle import simulate_imu
from oracle import write_imu_csv as oracle_write_imu_csv

from mimufusion.csvio import (
    _BLOCK_ROWS,
    IMU_CSV_HEADER,
    _diagnose_csv,
    _parse_csv,
    atomic_write_text,
    load_noise_pair,
    load_sim_setup,
    load_yaml,
    read_imu_csv,
    read_json,
    read_vimu_sidecar,
    sim_setup_from_dict,
    write_imu_csv,
    write_json,
    write_vimu_sidecar,
)
from mimufusion.errors import FormatError, RateMismatch
from mimufusion.geometry import quat_from_rotvec
from mimufusion.harness import ExperimentPlan
from mimufusion.simulation import SimConfig, TrajectoryParams
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec
from mimufusion.vimu import (
    build_fusion,
    fuse_series,
    midpoint_frame,
    virtual_covariances,
)


def noisy_series(seed=0, duration=1.0):
    cfg = SimConfig(freq=200.0, duration=duration, seed=seed)
    return simulate_imu(cfg, Extrinsic(p=np.array([0.05, 0.0, 0.0])),
                        NoiseSpec())


def test_imu_csv_round_trip_bits(tmp_path):
    series = noisy_series()
    path = tmp_path / "imu.csv"
    write_imu_csv(path, series)
    back = read_imu_csv(path)
    # %.17g round-trips doubles exactly
    np.testing.assert_array_equal(back.gyro, series.gyro)
    np.testing.assert_array_equal(back.accel, series.accel)
    assert back.freq == pytest.approx(series.freq, rel=1e-9)
    assert back.start_ns == series.start_ns


def test_imu_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,0\n1,0,0,0,0,0,0\n")
    with pytest.raises(FormatError):
        read_imu_csv(path)


def test_imu_csv_column_count_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(IMU_CSV_HEADER + "\n0,1,2,3,4,5\n")
    with pytest.raises(FormatError):
        read_imu_csv(path)


def test_imu_csv_non_numeric_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(IMU_CSV_HEADER + "\n0,a,b,c,d,e,f\n")
    with pytest.raises(FormatError):
        read_imu_csv(path)


def test_imu_csv_needs_two_samples(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(IMU_CSV_HEADER + "\n0,0,0,0,0,0,9.81\n")
    with pytest.raises(FormatError):
        read_imu_csv(path)


def test_imu_csv_rejects_jitter(tmp_path):
    path = tmp_path / "jitter.csv"
    rows = [IMU_CSV_HEADER]
    t = 0
    for k in range(10):
        rows.append(f"{t},0,0,0,0,0,9.81")
        t += 5_000_000 + (300_000 if k == 4 else 0)  # 6% blip
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(RateMismatch):
        read_imu_csv(path)


def test_imu_csv_rejects_non_monotonic(tmp_path):
    path = tmp_path / "mono.csv"
    path.write_text(IMU_CSV_HEADER + "\n"
                    "0,0,0,0,0,0,9.81\n"
                    "5000000,0,0,0,0,0,9.81\n"
                    "5000000,0,0,0,0,0,9.81\n")
    with pytest.raises(FormatError):
        read_imu_csv(path)


@pytest.mark.parametrize("column, value", [
    (1, "nan"), (2, "inf"), (3, "-inf"),      # gyro
    (4, "nan"), (5, "-inf"), (6, "inf"),      # accel
])
def test_imu_csv_rejects_non_finite(tmp_path, column, value):
    series = noisy_series(duration=0.1)
    path = tmp_path / "imu.csv"
    write_imu_csv(path, series)
    lines = path.read_text().splitlines()
    # a blank line before the bad row: the error names the file line,
    # not the data row
    bad = 7
    parts = lines[bad].split(",")
    parts[column] = value
    lines[bad] = ",".join(parts)
    lines.insert(3, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"imu\.csv:{bad + 2}: non-finite"):
        read_imu_csv(path)


def test_virtual_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "virtual.csv"
    path.write_text(IMU_CSV_HEADER + "\n"
                    "0,0,0,0,0,0,9.81\n"
                    "5000000,0,0,0,0,0,9.81\n"
                    "10000000,0,NaN,0,0,0,9.81\n")
    with pytest.raises(FormatError, match=r"virtual\.csv:4: non-finite"):
        read_imu_csv(path)


def test_virtual_csv_round_trip(tmp_path):
    cfg = SimConfig(freq=200.0, duration=1.0)
    ext = Extrinsic(p=np.array([0.1, 0.0, 0.0]))
    vcfg = midpoint_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    from mimufusion.geometry import quat_from_rotation

    series = fuse_series(build_fusion(vcfg), [
        simulate_imu(cfg, Extrinsic(q=quat_from_rotation(r), p=p),
                     NoiseSpec.zero())
        for r, p in zip(vcfg.rotations, vcfg.positions)
    ])
    path = tmp_path / "virtual.csv"
    write_imu_csv(path, series)
    back = read_imu_csv(path)
    np.testing.assert_array_equal(back.gyro, series.gyro)
    np.testing.assert_array_equal(back.accel, series.accel)
    assert back.start_ns == series.start_ns


PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def imu_series(elements):
    """Series of 2 to 20 samples with any rate from 1 Hz to 10 kHz and
    any start time."""
    values = st.integers(2, 20).flatmap(
        lambda n: arrays(np.float64, (n, 6), elements=elements))
    return st.builds(lambda freq, start, v: ImuSeries(freq, start, v[:, :3], v[:, 3:]),
                     st.floats(1.0, 1e4), st.integers(0, 2**53), values)


def csv_round_trip(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "imu.csv"
        write_imu_csv(path, series)
        return read_imu_csv(path)


def assert_same_series(back, series):
    np.testing.assert_array_equal(back.gyro, series.gyro)
    np.testing.assert_array_equal(back.accel, series.accel)
    assert back.start_ns == series.start_ns
    assert abs(back.period_ns - series.period_ns) <= 1.0


@PROPERTY_SETTINGS
@given(series=imu_series(st.floats(allow_nan=False, allow_infinity=False)))
def test_property_imu_csv_round_trip(series):
    assert_same_series(csv_round_trip(series), series)


@PROPERTY_SETTINGS
@given(series=imu_series(st.floats(-50.0, 50.0)).filter(lambda s: len(s) >= 3))
def test_property_fused_csv_round_trip(series):
    """A fused stream goes through the same writer and reader as a raw
    one: one of fewer than 2 samples is refused before any file exists,
    and every longer one reads back bit for bit."""
    cfg = midpoint_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.0]),
                                   p=np.array([0.1, 0.02, 0.0])),
                         NoiseSpec(), NoiseSpec(sigma_a=4e-3))
    other = ImuSeries(series.freq, series.start_ns, series.gyro[::-1],
                      series.accel[::-1])
    fused = fuse_series(build_fusion(cfg), [series, other])
    if len(fused) >= 2:
        assert_same_series(csv_round_trip(fused), fused)
        return
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(FormatError, match="at least 2 samples"):
            write_imu_csv(Path(tmp) / "imu.csv", fused)
        assert os.listdir(tmp) == []


def codec_series(seed, n=40, start_ns=1_700_000_000_123_456_789):
    """Random series spanning 620 decades, subnormals included, with
    signed zeros and +-1e300 in its first row and an epoch-scale start."""
    rng = np.random.default_rng(seed)
    values = (rng.uniform(-1.0, 1.0, size=(n, 6))
              * 10.0 ** rng.integers(-320, 300, size=(n, 6)))
    values[0] = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300]
    return ImuSeries(rng.uniform(1.0, 1e4), start_ns, values[:, :3],
                     values[:, 3:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_imu_csv_writer_matches_oracle_bytes(tmp_path, seed):
    series = codec_series(seed)
    write_imu_csv(tmp_path / "bulk.csv", series)
    oracle_write_imu_csv(tmp_path / "oracle.csv", series)
    assert ((tmp_path / "bulk.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


@PROPERTY_SETTINGS
@given(series=imu_series(st.floats(allow_nan=False, allow_infinity=False)))
def test_property_imu_csv_writer_matches_oracle(series):
    with tempfile.TemporaryDirectory() as tmp:
        write_imu_csv(Path(tmp) / "bulk.csv", series)
        oracle_write_imu_csv(Path(tmp) / "oracle.csv", series)
        assert ((Path(tmp) / "bulk.csv").read_bytes()
                == (Path(tmp) / "oracle.csv").read_bytes())


SPELLINGS = ("{!r}", "{:.17g}", "{:.3e}", "{:+.6f}", " {:.9G} ", "{:.0f}.")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_imu_csv_reader_matches_oracle_bits(tmp_path, seed):
    """Both readers give bit-identical timestamps and values, also for
    number spellings the writer never produces."""
    series = codec_series(seed)
    rng = np.random.default_rng(seed)
    rows = [IMU_CSV_HEADER]
    values = np.hstack([series.gyro, series.accel]).tolist()
    for t, v in zip(series.times_ns(), values):
        fields = [rng.choice(SPELLINGS).format(x) for x in v]
        rows.append(f"{t}," + ",".join(fields))
    path = tmp_path / "imu.csv"
    path.write_text("\n".join(rows) + "\n")
    times, values = _parse_csv(path)
    want_times, want_values = oracle_parse_csv(path)
    assert times.dtype == np.int64 and values.dtype == np.float64
    np.testing.assert_array_equal(times, want_times)
    assert values.tobytes() == want_values.tobytes()  # -0.0 included


GOOD_ROWS = ["1700000000000000000,0.5,-0.25,0,1e-3,2,9.81",
             "1700000000005000000,0.5,-0.25,0,1e-3,2,9.81",
             "1700000000010000000,0.5,-0.25,0,1e-3,2,9.81"]


def with_row(bad, at=2):
    """GOOD_ROWS with ``bad`` at data row ``at``, after a blank line, so
    that the bad row sits on file line ``at + 3``."""
    rows = GOOD_ROWS[:at] + ["", bad] + GOOD_ROWS[at:]
    return "\n".join([IMU_CSV_HEADER] + rows) + "\n"


def non_finite(column, value):
    parts = GOOD_ROWS[1].split(",")
    parts[column] = value
    return with_row(",".join(parts))


MALFORMED = {
    "short-row": with_row("1700000000015000000,1,2,3,4,5"),
    "long-row": with_row("1700000000015000000,1,2,3,4,5,6,7"),
    "trailing-comma": with_row("1700000000015000000,1,2,3,4,5,6,"),
    "empty-field": with_row("1700000000015000000,1,,3,4,5,6"),
    "non-numeric": with_row("1700000000015000000,1,2,x,4,5,6"),
    "float-timestamp": with_row("1.0,1,2,3,4,5,6", at=0),
    "comment-line": with_row("# a comment"),
    "whitespace-only-line": with_row(" \t "),
    "whitespace-first-and-last-line": (IMU_CSV_HEADER + "\n  \n"
                                       + "\n".join(GOOD_ROWS) + "\n\t"),
    "crlf": "\r\n".join([IMU_CSV_HEADER] + GOOD_ROWS) + "\r\n",
    "no-final-newline": "\n".join([IMU_CSV_HEADER] + GOOD_ROWS),
    "header-only": IMU_CSV_HEADER + "\n",
    "one-row": IMU_CSV_HEADER + "\n" + GOOD_ROWS[0] + "\n",
    "blank-rows-only": IMU_CSV_HEADER + "\n\n \n\n",
    "bad-header": "t,wx,wy,wz,ax,ay,az\n" + "\n".join(GOOD_ROWS) + "\n",
    **{f"{value}-column-{column}": non_finite(column, value)
       for column in range(7) for value in ("nan", "inf", "-inf")},
}


def parse_outcome(parse, path):
    """(times, values) when ``parse`` accepts the file, else the error
    class and the ``file[:line]:`` prefix its message starts with."""
    try:
        return parse(path)
    except Exception as exc:
        where = re.match(rf"{re.escape(str(path))}(:\d+)?:", str(exc))
        return type(exc), where and where.group(0)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_imu_csv_reader_matches_oracle_on_malformed(tmp_path, case):
    path = tmp_path / "imu.csv"
    path.write_bytes(MALFORMED[case].encode())
    got = parse_outcome(_parse_csv, path)
    want = parse_outcome(oracle_parse_csv, path)
    if isinstance(want[0], type):
        assert want[1] is not None
        assert got == want
    else:
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_imu_csv_reader_rejects_python_literal_underscores(tmp_path):
    """The one intended difference from the oracle: int() and float()
    accept digit separators such as 1_000, the bulk parser does not."""
    path = tmp_path / "imu.csv"
    path.write_text(with_row("1700000000015000000,1_000,2,3,4,5,6"))
    oracle_parse_csv(path)
    with pytest.raises(FormatError, match=r"imu\.csv:5: "):
        _parse_csv(path)


@pytest.mark.parametrize("n", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 3])
def test_imu_csv_writer_matches_oracle_bytes_at_block_edges(tmp_path, n):
    """The writer formats _BLOCK_ROWS rows at a time; series that end
    on, just before and just after a block edge give the oracle's bytes."""
    series = codec_series(n, n=n)
    write_imu_csv(tmp_path / "bulk.csv", series)
    oracle_write_imu_csv(tmp_path / "oracle.csv", series)
    assert ((tmp_path / "bulk.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


def many_good_rows(count):
    return "".join(f"{1_600_000_000_000_000_000 + 5_000_000 * k},0.5,-0.25,0,1e-3,2,9.81\n"
                   for k in range(count))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_imu_csv_reader_matches_oracle_past_the_first_block(tmp_path, case):
    """Each MALFORMED file with more than a block of good rows put in
    right after its header line: the error and its line number still
    match the oracle's."""
    header, rest = MALFORMED[case].split("\n", 1)
    path = tmp_path / "imu.csv"
    path.write_bytes(f"{header}\n{many_good_rows(_BLOCK_ROWS + 5)}{rest}".encode())
    got = parse_outcome(_parse_csv, path)
    want = parse_outcome(oracle_parse_csv, path)
    if isinstance(want[0], type):
        assert want[1] is not None
        assert got == want
    else:
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("row", [_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS])
def test_imu_csv_rejects_invalid_utf8_past_the_first_block(tmp_path, row):
    """Byte 0xff deep in the file, well past the reader's first decoded
    chunk, still fails naming the file line it sits on."""
    path = tmp_path / "imu.csv"
    rows = many_good_rows(3 * _BLOCK_ROWS + 1).encode().split(b"\n")
    rows[row - 1] += b"\xff"
    path.write_bytes(IMU_CSV_HEADER.encode() + b"\n" + b"\n".join(rows))
    with pytest.raises(FormatError, match=rf"imu\.csv:{row + 1}: not valid UTF-8"):
        read_imu_csv(path)


def test_imu_csv_diagnosis_never_returns(tmp_path):
    """The error path re-reads the file; if the file it finds is valid
    (it changed between the two reads), it still raises."""
    path = tmp_path / "imu.csv"
    write_imu_csv(path, noisy_series(duration=0.05))
    with pytest.raises(FormatError, match=r"imu\.csv: changed while it was read"):
        _diagnose_csv(path)


def test_imu_csv_codec_peak_memory_below_file_size(tmp_path):
    """Neither the writer nor the reader holds the file's text: on a
    100,000-row series each one's traced peak stays below the size of
    the file (about 14 MB)."""
    rng = np.random.default_rng(3)
    series = ImuSeries(200.0, 1_700_000_000_000_000_000,
                       rng.standard_normal((100_000, 3)),
                       rng.standard_normal((100_000, 3)) + [0.0, 0.0, 9.81])
    path = tmp_path / "imu.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_imu_csv(path, series)
        write_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = read_imu_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 12e6
    assert write_peak < size
    assert read_peak < size
    assert_same_series(back, series)


@pytest.mark.parametrize("row, column", [(0, 0), (3, 2), (9, 5)])
def test_imu_csv_writer_refuses_non_finite(tmp_path, row, column):
    series = noisy_series(duration=0.05)
    # an ImuSeries refuses non-finite samples, so poison the built one
    bad = ImuSeries(series.freq, series.start_ns, series.gyro.copy(),
                    series.accel.copy())
    values = bad.gyro if column < 3 else bad.accel
    values[row, column % 3] = np.nan if column % 2 else -np.inf
    with pytest.raises(FormatError, match=rf"sample {row} is not finite"):
        write_imu_csv(tmp_path / "imu.csv", bad)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("row", ["first", "last"])
def test_imu_csv_rejects_invalid_utf8_with_its_line(tmp_path, row):
    """Byte 0xff, which is never valid UTF-8, at the end of the first or
    the last data row fails as FormatError naming that row's line."""
    path = tmp_path / "imu.csv"
    write_imu_csv(path, noisy_series(duration=0.05))
    lines = path.read_bytes().split(b"\n")  # header, 10 rows, ""
    at = 1 if row == "first" else len(lines) - 2
    lines[at] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match=rf"imu\.csv:{at + 1}: not valid UTF-8"):
        read_imu_csv(path)


@pytest.mark.parametrize("field", ["gyro", "accel"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_imu_series_rejects_non_finite(field, value):
    series = noisy_series(duration=0.05)
    samples = {"gyro": series.gyro.copy(), "accel": series.accel.copy()}
    samples[field][4, 1] = value
    with pytest.raises(FormatError, match=r"^sample 4 is not finite$"):
        ImuSeries(series.freq, series.start_ns, **samples)


@pytest.mark.parametrize("bounds", [(0.0, np.inf), (0.0, -np.inf), (0.0, np.nan),
                                    (np.nan, 0.02)])
def test_imu_series_window_rejects_non_finite_bounds(bounds):
    series = noisy_series(duration=0.05)
    with pytest.raises(ValueError, match="not finite"):
        series.window(*bounds)


def test_imu_series_window_clips_huge_bounds():
    series = noisy_series(duration=0.05)
    whole = series.window(-1e308, 1e308)
    assert np.array_equal(whole.gyro, series.gyro)
    assert whole.start_ns == series.start_ns
    with pytest.raises(ValueError, match="selects no samples"):
        series.window(1e308, np.finfo(float).max)


def test_sidecar_round_trip(tmp_path):
    ext = Extrinsic(p=np.array([0.12, 0.0, 0.0]))
    cfg = midpoint_frame(ext, NoiseSpec(), NoiseSpec(sigma_g=3e-4))
    noise = virtual_covariances(build_fusion(cfg), cfg.noises)
    path = tmp_path / "virtual.json"
    write_vimu_sidecar(path, cfg, noise, 200.0)
    cfg2, noise2, freq = read_vimu_sidecar(path)
    assert freq == 200.0
    assert len(cfg2.rotations) == 2
    np.testing.assert_allclose(cfg2.positions[1], cfg.positions[1])
    np.testing.assert_allclose(noise2.gyro, noise.gyro)
    np.testing.assert_allclose(noise2.accel_bias, noise.accel_bias)
    fm = build_fusion(cfg2)
    np.testing.assert_allclose(fm.gyro_solve @ np.concatenate(cfg2.rotations), np.eye(3),
                               atol=1e-12)


@pytest.mark.parametrize("key, value", [
    ("Q_gV", [[1e-8]]),
    ("Q_bgV", [1e-10, 1e-10, 1e-10]),
    ("Q_aV", [[float("nan"), 0.0, 0.0], [0.0, 1e-6, 0.0], [0.0, 0.0, 1e-6]]),
    ("Q_baV", np.diag([float("inf"), 1.0, 1.0]).tolist()),
    ("Q_aV", "abc"),
    ("Q_gV", (-1e-8 * np.eye(3)).tolist()),
    ("Q_aV", [[1e-6, 1e-7, 0.0], [0.0, 1e-6, 0.0], [0.0, 0.0, 1e-6]]),
    ("freq", float("nan")),
    ("freq", float("inf")),
    ("freq", 0.0),
    ("freq", -200.0),
    ("freq", "abc"),
])
def test_sidecar_rejects_bad_values(tmp_path, key, value):
    """A Q_* that is not a finite, symmetric positive semi-definite 3x3
    matrix, or a freq that is not finite and positive, fails with a
    FormatError naming the file and the key."""
    cfg = midpoint_frame(Extrinsic(p=np.array([0.12, 0.0, 0.0])), NoiseSpec(), NoiseSpec())
    path = tmp_path / "virtual.json"
    write_vimu_sidecar(path, cfg, virtual_covariances(build_fusion(cfg), cfg.noises),
                       200.0)
    d = read_json(path)
    (d if key == "freq" else d["covariances"])[key] = value
    path.write_text(json.dumps(d))
    with pytest.raises(FormatError) as info:
        read_vimu_sidecar(path)
    assert str(path) in str(info.value) and key in str(info.value)


@pytest.mark.parametrize("zero", [False, True], ids=["pipeline", "all-zero"])
def test_sidecar_accepts_covariances(tmp_path, zero):
    """The covariances that fuse writes, symmetric only to round-off, and
    all-zero ones (exact data) are read back as written."""
    cfg = midpoint_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.087, 0.0]),
                                   p=np.array([0.1, 0.0, 0.0])),
                         NoiseSpec(), NoiseSpec(sigma_a=5e-3))
    noise = virtual_covariances(build_fusion(cfg), cfg.noises)
    path = tmp_path / "virtual.json"
    write_vimu_sidecar(path, cfg, noise, 200.0)
    if zero:
        d = read_json(path)
        d["covariances"] = {k: np.zeros((3, 3)).tolist() for k in d["covariances"]}
        path.write_text(json.dumps(d))
    _, got, _ = read_vimu_sidecar(path)
    for f in ("gyro", "gyro_bias", "accel", "accel_bias"):
        want = np.zeros((3, 3)) if zero else getattr(noise, f)
        np.testing.assert_array_equal(getattr(got, f), want)


def test_sidecar_rejects_non_finite_position(tmp_path):
    cfg = midpoint_frame(Extrinsic(p=np.array([0.12, 0.0, 0.0])), NoiseSpec(), NoiseSpec())
    path = tmp_path / "virtual.json"
    write_vimu_sidecar(path, cfg, virtual_covariances(build_fusion(cfg), cfg.noises),
                       200.0)
    d = read_json(path)
    d["config"]["positions_m"][1][0] = float("nan")
    path.write_text(json.dumps(d))
    with pytest.raises(FormatError, match="positions_m must be finite"):
        read_vimu_sidecar(path)


def test_sidecar_rejects_missing_keys(tmp_path):
    path = tmp_path / "broken.json"
    write_json(path, {"freq": 200.0})
    with pytest.raises(FormatError):
        read_vimu_sidecar(path)


def test_load_noise_pair_flat(tmp_path):
    path = tmp_path / "noise.yaml"
    path.write_text("sigma_g: 1.0e-4\nsigma_a: 1.0e-3\n")
    na, nb = load_noise_pair(path)
    assert na.sigma_g == 1e-4
    assert nb.sigma_g == 1e-4
    assert na.sigma_a == 1e-3


def test_load_noise_pair_split(tmp_path):
    path = tmp_path / "noise.yaml"
    path.write_text(
        "a: {sigma_g: 1.0e-4}\n"
        "b: {sigma_g: 2.0e-4, sigma_a: 5.0e-3}\n")
    na, nb = load_noise_pair(path)
    assert na.sigma_g == 1e-4
    assert nb.sigma_g == 2e-4
    assert nb.sigma_a == 5e-3


def test_load_noise_pair_one_side_only_fails(tmp_path):
    """A pair with only an ``a`` or only a ``b`` block names the block
    that is missing."""
    path = tmp_path / "noise.yaml"
    path.write_text("a: {sigma_g: 1.0e-4}\n")
    with pytest.raises(FormatError, match="noise pair has no 'b' block"):
        load_noise_pair(path)
    path.write_text("b: {sigma_g: 1.0e-4}\n")
    with pytest.raises(FormatError, match="noise pair has no 'a' block"):
        load_noise_pair(path)


def test_load_noise_pair_rejects_stray_keys(tmp_path):
    path = tmp_path / "noise.yaml"
    path.write_text(
        "a: {sigma_g: 1.0e-4}\n"
        "b: {sigma_g: 2.0e-4}\n"
        "c: {sigma_g: 3.0e-4}\n"
        "sigma_a: 5\n")
    with pytest.raises(FormatError, match=r"\['c', 'sigma_a'\]"):
        load_noise_pair(path)


def _config_blocks():
    """One instance of each config type, every field away from its
    default but SimConfig's seed, which its block does not hold."""
    noise = NoiseSpec(sigma_g=3e-4, sigma_a=5e-3, sigma_bg=2e-5, sigma_ba=1e-4,
                      initial_bias_g=[0.01, -0.02, 0.03], initial_bias_a=[0.1, 0.2, -0.3])
    trajectory = TrajectoryParams(
        pos_amplitude=[0.1, 0.2, 0.3], pos_frequency=[0.2, 0.25, 0.3],
        pos_phase=[0.5, 0.0, -1.0], euler_amplitude=[0.3, -1.2, 0.1],
        euler_frequency=[0.1, 0.2, 0.3], euler_phase=[1.0, 2.0, 3.0])
    sim = SimConfig(freq=100.0, duration=2.5, gravity=[0.1, 0.0, -9.8],
                    trajectory=trajectory)
    plan = ExperimentPlan(variants=("2-imu-calibrated", "1-imu-true"), extrinsic_samples=3,
                          sequences_per_sample=4, sigma_rot=0.02, sigma_trans=0.002,
                          keyframe_interval=0.25, grid_pitch=0.04, master_seed=9,
                          sim=sim, noise=noise)
    vimu = midpoint_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.05]),
                                    p=np.array([0.1, -0.02, 0.0])), noise, NoiseSpec())
    return [noise, trajectory, sim, plan, vimu,
            virtual_covariances(build_fusion(vimu), vimu.noises)]


def _assert_same_fields(got, want):
    """got equals want field by field, into nested blocks and tuples;
    arrays equal bit for bit, and scalars in value and type."""
    assert type(got) is type(want)
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_same_fields(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_fields(g, w)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("block", _config_blocks(), ids=lambda b: type(b).__name__)
def test_config_block_round_trips_through_json(block):
    """Each config type writes exactly the keys of its table, and reads
    its JSON text back into the same fields."""
    d = block.to_dict()
    assert list(d) == list(type(block)._KEYS)
    _assert_same_fields(type(block).from_dict(json.loads(json.dumps(d))), block)


def test_noise_spec_rejects_unknown_keys():
    with pytest.raises(FormatError):
        NoiseSpec.from_dict({"sigma_gyro": 1e-4})


def test_sim_setup_parses(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text(
        "freq: 100\n"
        "duration: 2\n"
        "seed: 5\n"
        "imus:\n"
        "  - name: left\n"
        "    position_m: [-0.05, 0, 0]\n"
        "  - name: right\n"
        "    position_m: [0.05, 0, 0]\n"
        "    rotation_wxyz: [0.99904822158185775, 0, 0.04361938736533601, 0]\n"
        "    noise: {sigma_g: 3.0e-4}\n")
    cfg, imus = load_sim_setup(path)
    assert cfg.freq == 100.0
    assert cfg.seed == 5
    assert [name for name, _, _ in imus] == ["left", "right"]
    assert imus[1][2].sigma_g == 3e-4
    np.testing.assert_allclose(imus[0][1].p, [-0.05, 0, 0])


def test_sim_setup_requires_imus():
    with pytest.raises(FormatError):
        sim_setup_from_dict({"freq": 200.0})


@pytest.mark.parametrize("imus, kind", [(None, "NoneType"),
                                        ({"a": 1}, "dict"), (5, "int")])
def test_sim_setup_rejects_non_list_imus(imus, kind):
    with pytest.raises(FormatError,
                       match=f"imus block must be a list, got {kind}"):
        sim_setup_from_dict({"imus": imus})


def test_sim_setup_rejects_bad_noise_key():
    with pytest.raises(FormatError):
        sim_setup_from_dict({"imus": [{"noise": {"bogus": 1.0}}]})


def test_sim_setup_rejects_unknown_keys():
    with pytest.raises(FormatError, match="sed"):
        sim_setup_from_dict({"sed": 3, "imus": [{}]})


def test_sim_setup_rejects_unknown_imu_keys():
    with pytest.raises(FormatError, match="postion_m"):
        sim_setup_from_dict({"imus": [{"postion_m": [0.1, 0.0, 0.0]}]})


def test_atomic_write_no_partial_output(tmp_path):
    target = tmp_path / "missing_dir" / "out.txt"
    with pytest.raises(OSError):
        atomic_write_text(target, "data")
    assert not target.exists()


def test_atomic_write_replaces_and_leaves_no_temps(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "one\n")
    atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_read_json_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        read_json(path)


def test_load_yaml_parse_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [unclosed\n")
    with pytest.raises(FormatError):
        load_yaml(path)


def test_load_yaml_requires_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(FormatError):
        load_yaml(path)


def test_write_json_stable_formatting(tmp_path):
    path = tmp_path / "obj.json"
    write_json(path, {"b": 2, "a": [1.5, 2.5]})
    text = path.read_text()
    assert text == json.dumps({"a": [1.5, 2.5], "b": 2}, indent=2,
                              sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_rejects_non_finite(tmp_path, value):
    """A NaN or infinity has no strict JSON form: write_json raises and
    leaves no file."""
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        write_json(path, {"a": [1.0, value]})
    assert not path.exists()
