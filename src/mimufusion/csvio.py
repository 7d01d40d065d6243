"""File formats: IMU CSV (raw and fused streams alike), JSON results,
YAML configs.

All writers go through an atomic temp-file + rename (``_atomic_open``)
so a failing invocation never leaves partial output behind.

The IMU CSV codec streams. The writer formats ``_BLOCK_ROWS`` rows per
``%`` operation straight into the temp file. The reader checks the
header line and hands the remaining lines to one ``np.loadtxt`` call.
Neither holds the file's text, so the memory either needs is about that
of the samples. Only a rejected file is read whole, by ``_diagnose_csv``,
to name the line at fault.
"""
from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np
import yaml

from .errors import FormatError, RateMismatch
from .simulation import SimConfig
from .types import (Extrinsic, ImuSeries, NoiseSpec, _check_keys, _finite_floats, _integral,
                    _number, _read, non_finite_sample)
from .vimu import VimuConfig, VimuNoise

IMU_CSV_HEADER = "t_ns,wx,wy,wz,ax,ay,az"
# one CSV row: an exact integer timestamp, then 6 values that round-trip
_ROW_FORMAT = "%d," + ",".join(["%.17g"] * 6) + "\n"
_ROW_DTYPE = np.dtype([("t_ns", np.int64), ("values", np.float64, (6,))])
# rows that write_imu_csv formats per % operation
_BLOCK_ROWS = 1024
# a line that str.strip() would empty, with the newline before it (so
# never the first line, the header)
_WHITESPACE_LINE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")
# fraction of the nominal period that timestamps may deviate on ingest
RATE_JITTER_TOL = 0.01
# the top-level entries of a virtual-IMU sidecar JSON
_SIDECAR_KEYS = ("freq", "config", "covariances")
# a simulation YAML: SimConfig's block plus the seed of its streams, and
# the keys of an imus[i] entry that place the sensor
_SIM_KEYS = {**SimConfig._KEYS, "seed": ("seed", _integral)}
_MOUNT_KEYS = {"rotation_wxyz": ("q", _finite_floats), "position_m": ("p", _finite_floats)}


@contextlib.contextmanager
def _atomic_open(path):
    """A text file open for writing on a temp file in path's directory.
    A clean exit renames it to path; an exception removes it."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    """Write text to path via a temp file in the same directory."""
    with _atomic_open(path) as fh:
        fh.write(text)


def write_json(path, obj):
    """Write obj as strict JSON: a NaN or infinity raises ValueError."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def read_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def load_yaml(path) -> dict:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a mapping at the top level")
    return data


def write_imu_csv(path, series: ImuSeries, fh=None):
    """Write a raw or fused series, one row per sample at its implicit
    timestamp, every value to 17 significant digits so that it reads
    back bit for bit. A series that read_imu_csv would reject, with
    fewer than 2 samples or a non-finite one, raises FormatError before
    any file is created. Given ``fh``, an open text file, the rows go
    there instead and ``path`` only names the file in errors."""
    if len(series) < 2:
        raise FormatError(f"{path}: need at least 2 samples to derive a rate")
    bad = non_finite_sample(series.gyro, series.accel)
    if bad is not None:
        raise FormatError(f"{path}: sample {bad} is not finite")
    times = series.times_ns()
    rows = np.empty((min(len(series), _BLOCK_ROWS), 7), dtype=object)
    with _atomic_open(path) if fh is None else contextlib.nullcontext(fh) as out:
        out.write(f"{IMU_CSV_HEADER}\n")
        for start in range(0, len(series), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            n = len(times[block])
            rows[:n, 0] = times[block].tolist()
            rows[:n, 1:4] = series.gyro[block]
            rows[:n, 4:] = series.accel[block]
            out.write((_ROW_FORMAT * n) % tuple(rows[:n].ravel()))


def _load_rows(lines) -> np.ndarray:
    """Parse CSV data lines into _ROW_DTYPE records; empty lines are
    skipped, any other line that is not an integer and 6 numbers raises
    ValueError."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",",
                          comments=None, ndmin=1)


def _first_bad_line(lines) -> int:
    """Index of the first of ``lines`` that _load_rows rejects, found by
    bisection. Only the error path calls this, so the parse itself need
    not go line by line."""
    lo, hi = 0, len(lines)  # lines[:lo] parse; lines[lo:hi] hold a bad one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_rows(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _parse_csv(path):
    """Timestamps and values of an IMU CSV's data rows, parsed as the
    file streams past. A file that fails the header, UTF-8 decoding,
    the parse or the finiteness check goes to _diagnose_csv, which
    raises the error that names its line."""
    try:  # universal newlines: CRLF reads as LF
        with open(path, encoding="utf-8") as fh:
            if fh.readline().removesuffix("\n") != IMU_CSV_HEADER:
                _diagnose_csv(path)
            # a whitespace-only line is a blank line, which np.loadtxt skips
            rows = _load_rows("" if line.isspace() else line for line in fh)
    except ValueError:  # UnicodeDecodeError included
        _diagnose_csv(path)
    if len(rows) < 2:
        raise FormatError(f"{path}: need at least 2 samples to derive a rate")
    values = rows["values"]
    if not np.isfinite(values).all():
        _diagnose_csv(path)
    return rows["t_ns"], values


def _diagnose_csv(path) -> NoReturn:
    """Raise the FormatError that says why the IMU CSV at path is
    rejected and, where it applies, on which line. It reads the whole
    file, so only the error path calls it, and it never returns."""
    try:  # universal newlines: CRLF reads as LF
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
    # Emptied whitespace-only lines are blank lines, which np.loadtxt
    # skips. lines[k] is line k + 1 of the file.
    lines = _WHITESPACE_LINE.sub("\n", text).split("\n")
    if lines[0] != IMU_CSV_HEADER:
        raise FormatError(
            f"{path}: bad header {lines[0]!r}, expected {IMU_CSV_HEADER!r}")
    lines[0] = ""
    try:
        rows = _load_rows(lines)
    except ValueError:
        bad = _first_bad_line(lines)
        reason = ("expected 7 columns" if lines[bad].count(",") != 6 else
                  f"expected an integer and 6 numbers, got {lines[bad]!r}")
        raise FormatError(f"{path}:{bad + 1}: {reason}") from None
    finite = np.isfinite(rows["values"]).all(axis=1)
    if not finite.all():
        data_lines = [k for k, line in enumerate(lines) if line]
        lineno = data_lines[int(np.argmin(finite))] + 1
        raise FormatError(f"{path}:{lineno}: non-finite sample value")
    raise FormatError(f"{path}: changed while it was read")


def read_imu_csv(path) -> ImuSeries:
    """Parse and validate one IMU CSV; the rate comes from the median
    timestamp spacing and every spacing must agree within 1%."""
    times, values = _parse_csv(path)
    diffs = np.diff(times)
    if np.any(diffs <= 0):
        raise FormatError(f"{path}: timestamps must be strictly increasing")
    period = float(np.median(diffs))
    if np.max(np.abs(diffs - period)) > RATE_JITTER_TOL * period:
        raise RateMismatch(
            f"{path}: timestamp jitter exceeds {RATE_JITTER_TOL:.0%} of the "
            f"nominal period {period:.0f} ns")
    return ImuSeries(freq=1e9 / period, start_ns=int(times[0]),
                     gyro=values[:, :3], accel=values[:, 3:])


def write_vimu_sidecar(path, cfg: VimuConfig, noise: VimuNoise, freq: float):
    write_json(path, {
        "freq": freq,
        "config": cfg.to_dict(),
        "covariances": noise.to_dict(),
    })


def read_vimu_sidecar(path):
    """The (VimuConfig, VimuNoise, freq) of a sidecar JSON; a missing or
    malformed entry, a Q_* that is not a finite, symmetric positive
    semi-definite 3x3 matrix or a freq that is not finite and positive
    raises FormatError naming path and key."""
    d = read_json(path)
    try:
        _check_keys(d, _SIDECAR_KEYS, "sidecar")
        missing = [k for k in _SIDECAR_KEYS if k not in d]
        if missing:
            raise FormatError(f"sidecar has no {missing[0]!r} entry")
        freq = _number("freq", d["freq"])
        if not (np.isfinite(freq) and freq > 0):
            raise FormatError(f"freq must be finite and positive, got {freq}")
        return (VimuConfig.from_dict(d["config"]),
                VimuNoise.from_dict(d["covariances"]), freq)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_noise_pair(path) -> tuple:
    """Noise config for a calibration pair: either separate ``a``/``b``
    blocks (both, and no other key) or one flat spec applied to both. A
    pair that lacks ``a`` or ``b`` raises FormatError naming the missing
    block; any other error is NoiseSpec.from_dict's, with path."""
    d = load_yaml(path)
    try:
        if "a" not in d and "b" not in d:
            spec = NoiseSpec.from_dict(d)
            return spec, spec
        _check_keys(d, ("a", "b"), "noise pair")
        missing = "b" if "a" in d else "a"
        if missing not in d:
            raise FormatError(f"noise pair has no {missing!r} block; give both "
                              "'a' and 'b', or one flat spec")
        return _read(NoiseSpec, d["a"], "a"), _read(NoiseSpec, d["b"], "b")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def sim_setup_from_dict(d: dict):
    """Parse a simulation config mapping into (SimConfig, imu definitions).

    The mapping is SimConfig's block plus a ``seed`` and an ``imus``
    list, read key by key as SimConfig.from_dict reads its block. Returns
    the config plus a list of (name, mount Extrinsic, NoiseSpec) tuples,
    one per configured sensor. An unknown key, a value that is not of
    its key's kind or that SimConfig, Extrinsic or NoiseSpec rejects, an
    ``imus`` that is not a non-empty list, and a name that cannot name
    the sensor's CSV file (empty, ``.``, ``..``, with a path separator,
    or repeated) raise FormatError naming the key.
    """
    _check_keys(d, (*_SIM_KEYS, "imus"), "simulation")
    cfg = _read(SimConfig, {k: v for k, v in d.items() if k != "imus"}, "simulation",
                table=_SIM_KEYS)
    entries = d.get("imus", [])
    if not isinstance(entries, list):
        raise FormatError("simulation config: imus block must be a list, got "
                          f"{type(entries).__name__}")
    imus = []
    for i, entry in enumerate(entries):
        what = f"simulation.imus[{i}]"
        _check_keys(entry, (*_MOUNT_KEYS, "name", "noise"), what)
        name = str(entry.get("name", f"imu_{i:02d}"))
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise FormatError(
                f"simulation config: imus[{i}].name {name!r} is not a plain file name")
        if name in (n for n, _, _ in imus):
            raise FormatError(
                f"simulation config: imus[{i}].name {name!r} repeats an earlier name")
        mount = _read(Extrinsic, {k: v for k, v in entry.items() if k in _MOUNT_KEYS},
                      what, table=_MOUNT_KEYS)
        imus.append((name, mount, _read(NoiseSpec, entry.get("noise", {}), f"{what}.noise")))
    if not imus:
        raise FormatError("simulation config lists no imus")
    return cfg, imus


def load_sim_setup(path):
    return sim_setup_from_dict(load_yaml(path))
