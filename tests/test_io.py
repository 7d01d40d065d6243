import dataclasses
import hashlib
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracle import parse_csv as oracle_parse_csv
from oracle import quat_from_rotvec, simulate_imu
from oracle import write_imu_csv as oracle_write_imu_csv

from mimufusion import csvio
from mimufusion.csvio import (
    _BLOCK_ROWS,
    IMU_CSV_HEADER,
    _parse_csv,
    _parse_whole,
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
from mimufusion.harness import ExperimentPlan
from mimufusion.simulation import SimConfig, TrajectoryParams
from mimufusion.types import Extrinsic, ImuSeries, NoiseSpec
from mimufusion.vimu import (
    VimuConfig,
    centroid_frame,
    fuse_series,
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
    vcfg = centroid_frame(ext, NoiseSpec.zero(), NoiseSpec.zero())
    from mimufusion.geometry import quat_from_rotation

    series = fuse_series(vcfg, [
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
    cfg = centroid_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.0]),
                                   p=np.array([0.1, 0.02, 0.0])),
                         NoiseSpec(), NoiseSpec(sigma_a=4e-3))
    other = ImuSeries(series.freq, series.start_ns, series.gyro[::-1],
                      series.accel[::-1])
    fused = fuse_series(cfg, [series, other])
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


def neighbours(x):
    """x and the doubles just below and above it."""
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


# values at which the writer's %.17g changes path (Python formats
# |v| <= 1e-6, |v| >= 1e17 and subnormals), notation (exponent form
# below 1e-4 and from 1e17), exponent or rounding; each case is written
# with both signs
EDGE_VALUES = {
    "zero": [0.0],
    "subnormal": [5e-324, 1e-310],
    "dbl-min-and-max": [np.finfo(float).tiny, np.finfo(float).max],
    **{f"next-to-{x:g}": neighbours(x) for x in (1e-6, 1e-5, 1e-4, 1e16, 1e17)},
    "next-to-other-powers-of-ten": [v for k in range(-3, 16) for v in neighbours(10.0**k)],
    "largest-below-1e17": [9.999999999999999e16],
    "half-even-ties": [1e15 + 0.25, 1e15 + 0.75],
    "integers": [1.0, 2.0, 10.0, 100.0, 12345678.0, 2.0**53, 2.0**53 + 2, 1e15, 1e16],
}


@pytest.mark.parametrize("case", sorted(EDGE_VALUES))
def test_imu_csv_writer_matches_oracle_bytes_on_edge_values(tmp_path, case):
    """Every value of the case, and its negative, in every column."""
    values = np.array(EDGE_VALUES[case])
    values = np.concatenate([values, -values])
    grid = np.stack([np.roll(values, j) for j in range(6)], axis=1)
    series = ImuSeries(200.0, 0, grid[:, :3], grid[:, 3:])
    write_imu_csv(tmp_path / "bulk.csv", series)
    oracle_write_imu_csv(tmp_path / "oracle.csv", series)
    assert ((tmp_path / "bulk.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


def test_imu_csv_writer_matches_oracle_bytes_on_fuzzed_values(tmp_path):
    """About 200,000 values: log-uniform magnitudes from 1e-320 to 1e300
    with random signs, and a third of them short decimals (np.round to
    0-17 places)."""
    rng = np.random.default_rng(28)
    n = 33_334
    values = (rng.choice([-1.0, 1.0], size=(n, 6))
              * 10.0 ** rng.uniform(-320.0, 300.0, size=(n, 6)))
    short = values[: n // 3]
    for places in range(18):
        rows = short[places::18]
        rows[:] = np.round(rng.uniform(-1.0, 1.0, rows.shape)
                           * 10.0 ** rng.uniform(-8.0, 17.0, rows.shape), places)
    series = ImuSeries(200.0, 1_700_000_000_000_000_000, values[:, :3], values[:, 3:])
    write_imu_csv(tmp_path / "bulk.csv", series)
    oracle_write_imu_csv(tmp_path / "oracle.csv", series)
    assert ((tmp_path / "bulk.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


@pytest.mark.parametrize("start_ns", [-1_000_000_000, 2**63 - 1 - 399 * 5_000_000],
                         ids=["negative", "near-int64-max"])
def test_imu_csv_timestamps_read_back_from_the_text(tmp_path, start_ns):
    """Timestamps that cross zero, or end at the largest int64, are
    written as the oracle writes them and parse back exactly once the
    binary twin is deleted."""
    series = dataclasses.replace(codec_series(4, n=400, start_ns=start_ns), freq=200.0)
    path = tmp_path / "imu.csv"
    write_imu_csv(path, series)
    oracle_write_imu_csv(tmp_path / "oracle.csv", series)
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    csvio._twin_path(path).unlink()
    times, values = _parse_csv(path)
    np.testing.assert_array_equal(times, series.times_ns())
    assert times[-1] == start_ns + 399 * 5_000_000
    assert values.tobytes() == np.hstack([series.gyro, series.accel]).tobytes()


def test_imu_series_refuses_stamps_past_int64():
    """A series whose last implicit stamp passes the largest int64, or
    whose first is below the smallest, is refused; one that ends at the
    largest is not."""
    zeros = np.zeros((2, 3))
    for start_ns in (2**63 - 1, 2**63, -(2**63) - 1):
        with pytest.raises(FormatError, match="do not fit int64"):
            ImuSeries(200.0, start_ns, zeros, zeros)
    assert ImuSeries(200.0, 2**63 - 1 - 5_000_000, zeros, zeros).times_ns()[-1] == 2**63 - 1


@pytest.mark.parametrize("case", ["above-1-GHz"])
def test_imu_csv_writer_refuses_stamps_that_do_not_increase(tmp_path, case):
    """A series at 2 GHz, whose stamps round to repeats, cannot be built,
    so no file is ever written for it."""
    zeros = np.zeros((3, 3))
    with pytest.raises(FormatError, match="strictly increasing"):
        write_imu_csv(tmp_path / "imu.csv", ImuSeries(2e9, 0, zeros, zeros))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["freq", "start_ns", "gyro", "accel"])
def test_imu_series_fields_cannot_be_assigned(name):
    series = ImuSeries(200.0, 0, np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(series, name, getattr(series, name))


def _vimu_pair(rotations=(np.eye(3),) * 2, positions=([-0.1, 0.0, 0.0], [0.1, 0.0, 0.0])):
    return VimuConfig(rotations=rotations, positions=positions, noises=(NoiseSpec(),) * 2)


# a validated type built from caller arrays: (its constructor over those
# arrays, the getter of one stored array, the caller's arrays, the index
# of the one it was built from, and (index, value) of a NaN or
# out-of-range write into that one)
OWNED_ARRAYS = {
    "ImuSeries.gyro": (lambda g, a: ImuSeries(200.0, 0, g, a), lambda s: s.gyro,
                       [np.zeros((3, 3)), np.zeros((3, 3))], 0, ((1, 0), np.nan)),
    "ImuSeries.accel": (lambda g, a: ImuSeries(200.0, 0, g, a), lambda s: s.accel,
                        [np.zeros((3, 3)), np.zeros((3, 3))], 1, ((2, 2), np.inf)),
    "Extrinsic.q": (lambda q: Extrinsic(q=q), lambda e: e.q,
                    [np.array([1.0, 0.0, 0.0, 0.0])], 0, ((0,), np.nan)),
    "Extrinsic.p": (lambda p: Extrinsic(p=p), lambda e: e.p,
                    [np.array([0.05, 0.0, 0.0])], 0, ((0,), np.nan)),
    "NoiseSpec.initial_bias_g": (lambda b: NoiseSpec(initial_bias_g=b),
                                 lambda n: n.initial_bias_g, [np.zeros(3)], 0, ((1,), np.nan)),
    "TrajectoryParams.euler_amplitude": (
        lambda e: TrajectoryParams(euler_amplitude=e), lambda t: t.euler_amplitude,
        [np.array([0.5, 0.4, 0.6])], 0, ((1,), 2.0)),
    "SimConfig.gravity": (lambda g: SimConfig(gravity=g), lambda c: c.gravity,
                          [np.array([0.0, 0.0, -9.81])], 0, ((2,), np.nan)),
    "VimuConfig.rotations[0]": (lambda r0, r1: _vimu_pair(rotations=(r0, r1)),
                                lambda c: c.rotations[0], [np.eye(3), np.eye(3)], 0,
                                ((0, 0), 2.0)),
    "VimuConfig.positions[0]": (lambda p0, p1: _vimu_pair(positions=(p0, p1)),
                                lambda c: c.positions[0],
                                [np.array([-0.1, 0.0, 0.0]), np.array([0.1, 0.0, 0.0])], 0,
                                ((0,), 1.0)),
}


@pytest.mark.parametrize("case", list(OWNED_ARRAYS))
def test_validated_types_keep_read_only_copies_of_the_callers_arrays(case):
    """A NaN or out-of-range write into the caller's array after
    construction leaves the built object as it was: the object keeps a
    read-only copy that shares no memory with the caller's, and the
    caller's array stays writable."""
    build, stored, given, i, (at, value) = OWNED_ARRAYS[case]
    obj = build(*given)
    before = stored(obj).copy()
    given[i][at] = value
    np.testing.assert_array_equal(stored(obj), before)
    with pytest.raises(ValueError, match="read-only"):
        stored(obj)[at] = value
    assert not np.shares_memory(stored(obj), given[i])


def test_imu_csv_ignores_writes_to_the_callers_arrays_after_construction(tmp_path):
    """A NaN written into the caller's gyro after the series is built
    reaches neither the CSV text nor what is read back."""
    gyro = np.zeros((3, 3))
    series = ImuSeries(200.0, 0, gyro, np.zeros((3, 3)))
    gyro[1, 0] = np.nan
    path = tmp_path / "x.csv"
    write_imu_csv(path, series)
    assert "nan" not in path.read_text()
    back = read_imu_csv(path)
    np.testing.assert_array_equal(back.gyro, np.zeros((3, 3)))


@pytest.mark.parametrize("twin", [True, False], ids=["twin", "text"])
def test_imu_csv_reader_returns_contiguous_arrays_of_its_own(tmp_path, twin):
    """read_imu_csv's arrays are C-contiguous and own their data, read
    from a binary twin or as text, so that no caller has to copy them
    for the kernels."""
    path = tmp_path / "imu.csv"
    write_imu_csv(path, noisy_series(duration=0.05))
    if not twin:
        csvio._twin_path(path).unlink()
    series = read_imu_csv(path)
    for x in (series.gyro, series.accel):
        assert x.flags.c_contiguous and x.flags.owndata


# a change to a built series, and the FormatError that replace raises for it
BAD_REPLACEMENTS = {
    "nan-sample": ({"gyro": [[0.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 0.0]]},
                   r"^sample 1 is not finite$"),
    "2-GHz": ({"freq": 2e9}, r"^timestamps must be strictly increasing$"),
    "start-past-int64": ({"start_ns": 2**63 - 1}, "do not fit int64"),
}


@pytest.mark.parametrize("case", sorted(BAD_REPLACEMENTS))
def test_imu_series_replace_checks_again(case):
    change, message = BAD_REPLACEMENTS[case]
    series = ImuSeries(200.0, 0, np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(FormatError, match=message):
        dataclasses.replace(series, **change)


def test_imu_series_at_1_ghz_has_increasing_stamps():
    series = dataclasses.replace(
        ImuSeries(200.0, 5, np.zeros((1000, 3)), np.zeros((1000, 3))), freq=1e9)
    np.testing.assert_array_equal(series.times_ns(), 5 + np.arange(1000))


# (stamps, the FormatError's message): the first plus 5 ms wrapped to a
# negative int64, and two increasing stamps 2**64 - 2 ns apart, whose
# spacing as an int64 difference wraps and whose series does not fit int64
WRAPPED_STAMPS = {
    "wrapped": ([2**63 - 1, 2**63 - 1 + 5_000_000 - 2**64], "strictly increasing"),
    "span-past-int64": ([-(2**63) + 1, 2**63 - 1], "do not fit int64"),
}


@pytest.mark.parametrize("twin", [True, False], ids=["twin", "text"])
@pytest.mark.parametrize("case", sorted(WRAPPED_STAMPS))
def test_imu_csv_reader_rejects_stamps_whose_difference_wraps(tmp_path, case, twin):
    """A hand-written CSV whose stamps differ by more than int64 holds
    is rejected with a FormatError naming it, read from a matching
    binary twin or as text."""
    stamps, message = WRAPPED_STAMPS[case]
    path = tmp_path / "imu.csv"
    times = np.array(stamps, dtype=np.int64)
    path.write_text(f"{IMU_CSV_HEADER}\n" + "".join(f"{t},0,0,0,0,0,9.81\n" for t in stamps))
    if twin:
        records = np.zeros(2, csvio._TWIN_DTYPE)
        records["t_ns"] = times
        records["values"][:, 5] = 9.81
        digest = hashlib.sha256(path.read_bytes() + records.tobytes()).digest()
        csvio._twin_path(path).write_bytes(
            csvio._TWIN_HEADER.pack(csvio._TWIN_MAGIC, 2, digest) + records.tobytes())
        assert csvio._read_twin(path) is not None
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{message}"):
        read_imu_csv(path)


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


def test_imu_csv_whole_file_parse_matches_oracle_bits(tmp_path):
    """_parse_whole, the parser a file with whitespace-only lines falls
    back to, returns the oracle's parse of such a file, with CRLF line
    ends, bit for bit."""
    series = codec_series(5)
    path = tmp_path / "imu.csv"
    write_imu_csv(path, series)
    lines = path.read_bytes().split(b"\n")
    lines[3:3] = [b" \t ", b""]
    lines[-1:-1] = [b"   "]
    path.write_bytes(b"\r\n".join(lines))
    rows = _parse_whole(path)
    times, values = oracle_parse_csv(path)
    np.testing.assert_array_equal(rows["t_ns"], times)
    assert rows["values"].tobytes() == values.tobytes()
    np.testing.assert_array_equal(times, series.times_ns())


def test_imu_csv_codec_peak_memory_below_file_size(tmp_path):
    """Neither the writer nor the reader holds the file's text: on a
    100,000-row series each one's traced peak stays below the size of
    the file (about 14 MB), the reader's with the binary twin and, once
    the twin is deleted, without it."""
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
        read_peaks, backs = [], []
        for twin in (True, False):
            if not twin:
                csvio._twin_path(path).unlink()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            backs.append(read_imu_csv(path))
            read_peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 12e6
    assert write_peak < size
    assert max(read_peaks) < size
    for back in backs:
        assert_same_series(back, series)


def assert_same_bits(got, want):
    assert got.freq == want.freq and got.start_ns == want.start_ns
    assert got.gyro.tobytes() == want.gyro.tobytes()
    assert got.accel.tobytes() == want.accel.tobytes()


def read_parsed(path, monkeypatch):
    """read_imu_csv of path as its text parses, whatever its twin holds."""
    with monkeypatch.context() as m:
        m.setattr(csvio, "_read_twin", lambda path: None)
        return read_imu_csv(path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_imu_csv_twin_reads_what_the_text_parses_bit_for_bit(tmp_path, seed):
    """Over codec_series, 620 decades with subnormals, plus a sample of
    -0.0 in every column, a read through the binary twin equals a read of
    the text once the twin is deleted: every bit of every value, the rate
    and the start."""
    series = codec_series(seed)
    gyro, accel = series.gyro.copy(), series.accel.copy()
    gyro[1] = accel[1] = -0.0
    series = dataclasses.replace(series, gyro=gyro, accel=accel)
    path = tmp_path / "imu.csv"
    write_imu_csv(path, series)
    twin = csvio._twin_path(path)
    assert twin.name == ".imu.csv.rows"
    assert twin.stat().st_size == csvio._TWIN_HEADER.size + 56 * len(series)
    with_twin = read_imu_csv(path)
    twin.unlink()
    assert_same_bits(with_twin, read_imu_csv(path))
    assert with_twin.gyro.tobytes() == series.gyro.tobytes()
    assert with_twin.accel.tobytes() == series.accel.tobytes()


def test_imu_csv_twin_is_read_instead_of_the_text(tmp_path, monkeypatch):
    """A CSV just written reads with the text parser broken: its records
    come from the twin."""
    series = noisy_series(duration=0.2)
    path = tmp_path / "imu.csv"
    write_imu_csv(path, series)

    def broken(lines):
        raise AssertionError("the text was parsed")

    monkeypatch.setattr(csvio, "_load_rows", broken)
    assert_same_series(read_imu_csv(path), series)


def edit_one_byte(path, other):
    text = path.read_bytes()
    at = text.rindex(b",") + 1  # the leading digit of the last value
    at += text[at:at + 1] == b"-"
    digit = b"7" if text[at:at + 1] != b"7" else b"3"
    path.write_bytes(text[:at] + digit + text[at + 1:])


def crlf_copy(path, other):
    copy = path.with_name("copy.csv")
    copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    csvio._twin_path(copy).write_bytes(csvio._twin_path(path).read_bytes())
    return copy


def truncate_twin(path, other):
    twin = csvio._twin_path(path)
    twin.write_bytes(twin.read_bytes()[:-1])


def flip_a_record_byte(path, other):
    twin = csvio._twin_path(path)
    data = bytearray(twin.read_bytes())
    data[csvio._TWIN_HEADER.size + 100] ^= 0x01
    twin.write_bytes(bytes(data))


def twin_of_another_csv(path, other):
    csvio._twin_path(path).write_bytes(csvio._twin_path(other).read_bytes())


STALE_TWINS = {f.__name__: f for f in (edit_one_byte, crlf_copy, truncate_twin,
                                       flip_a_record_byte, twin_of_another_csv)}


@pytest.mark.parametrize("case", sorted(STALE_TWINS))
def test_imu_csv_twin_that_does_not_match_is_ignored(tmp_path, monkeypatch, case):
    """A CSV edited by one byte or copied with CRLF line ends, beside its
    old twin, and a CSV whose twin is truncated, has a record byte
    flipped or is another CSV's twin: the twin is refused and the read
    gives exactly what parsing the text gives."""
    path, other = tmp_path / "imu.csv", tmp_path / "other.csv"
    series = noisy_series(duration=0.2)
    write_imu_csv(path, series)
    write_imu_csv(other, noisy_series(seed=1, duration=0.2))
    path = STALE_TWINS[case](path, other) or path
    assert csvio._read_twin(path) is None
    back = read_imu_csv(path)
    assert_same_bits(back, read_parsed(path, monkeypatch))
    if case == "edit_one_byte":
        assert back.accel[-1, 2] != series.accel[-1, 2]
    else:
        assert_same_series(back, series)


@pytest.mark.parametrize("row, column", [(0, 0), (3, 2), (9, 5)])
def test_imu_csv_writer_refuses_non_finite(tmp_path, row, column):
    """A non-finite sample cannot be built into a series, so no file is
    ever written for it."""
    series = noisy_series(duration=0.05)
    values = np.hstack([series.gyro, series.accel])
    values[row, column] = np.nan if column % 2 else -np.inf
    with pytest.raises(FormatError, match=rf"sample {row} is not finite"):
        write_imu_csv(tmp_path / "imu.csv", ImuSeries(series.freq, series.start_ns,
                                                      values[:, :3], values[:, 3:]))
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
    cfg = centroid_frame(ext, NoiseSpec(), NoiseSpec(sigma_g=3e-4))
    noise = virtual_covariances(cfg.noises)
    path = tmp_path / "virtual.json"
    write_vimu_sidecar(path, cfg, noise, 200.0)
    cfg2, noise2, freq = read_vimu_sidecar(path)
    assert freq == 200.0
    assert len(cfg2.rotations) == 2
    np.testing.assert_allclose(cfg2.positions[1], cfg.positions[1])
    np.testing.assert_allclose(noise2.gyro, noise.gyro)
    np.testing.assert_allclose(noise2.accel_bias, noise.accel_bias)
    np.testing.assert_array_equal(np.stack(cfg2.rotations), np.stack(cfg.rotations))


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
    cfg = centroid_frame(Extrinsic(p=np.array([0.12, 0.0, 0.0])), NoiseSpec(), NoiseSpec())
    path = tmp_path / "virtual.json"
    write_vimu_sidecar(path, cfg, virtual_covariances(cfg.noises),
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
    cfg = centroid_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.087, 0.0]),
                                   p=np.array([0.1, 0.0, 0.0])),
                         NoiseSpec(), NoiseSpec(sigma_a=5e-3))
    noise = virtual_covariances(cfg.noises)
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
    cfg = centroid_frame(Extrinsic(p=np.array([0.12, 0.0, 0.0])), NoiseSpec(), NoiseSpec())
    path = tmp_path / "virtual.json"
    write_vimu_sidecar(path, cfg, virtual_covariances(cfg.noises),
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
    vimu = centroid_frame(Extrinsic(q=quat_from_rotvec([0.0, 0.1, 0.05]),
                                    p=np.array([0.1, -0.02, 0.0])), noise, NoiseSpec())
    return [noise, trajectory, sim, plan, vimu,
            virtual_covariances(vimu.noises)]


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


def test_load_yaml_loaders_agree(tmp_path, monkeypatch):
    """load_yaml parses with libyaml's CSafeLoader when PyYAML was built
    with it, and with SafeLoader otherwise. Forced to each, it loads every
    file under configs/ to the same dict, and a malformed file fails
    with a FormatError naming its path."""
    assert csvio._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    broken = tmp_path / "broken.yaml"
    broken.write_text("a: [unclosed\n")
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert len(configs) >= 3
    loaded = []
    for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        monkeypatch.setattr(csvio, "_YAML_LOADER", loader)
        loaded.append([load_yaml(path) for path in configs])
        with pytest.raises(FormatError, match=re.escape(str(broken))):
            load_yaml(broken)
    assert loaded[0] == loaded[1]


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
