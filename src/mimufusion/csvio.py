"""File formats: IMU CSV (raw and fused streams alike), JSON results,
YAML configs.

All writers go through an atomic temp-file + rename (``_atomic_open``)
so a failing invocation never leaves partial output behind.

The IMU CSV codec streams. The writer forms the text of ``_BLOCK_ROWS``
rows at a time with whole-array operations (``_RowText``) and writes it
straight into the temp file. The bytes are exactly those of ``%d`` for a
timestamp and ``%.17g`` for a value: Dekker's error-free product gives
each value's 17 correctly rounded digits, and only values outside
1e-6 < |v| < 1e17 and negative timestamps are left to Python's own
formatting, one by one. The reader checks the header line and hands the
open file to one ``np.loadtxt`` call. Neither holds the file's text, so
the memory either needs is about that of the samples. A file that call
or the checks after it refuse is read whole once, by ``_parse_whole``,
which returns its rows if it is good after all (one with whitespace-only
lines) and otherwise names the line at fault.

Beside each CSV the writer puts its binary twin, ``.<name>.rows``: the
same samples as little-endian records, headed by a SHA-256 over the
CSV's bytes followed by the records. Parsing 17-digit decimals costs
most of a read, so the reader takes the records from the twin instead,
but only while that digest still matches the CSV on disk. A CSV that
was edited, converted or copied, or whose twin is missing, truncated
or corrupt, is parsed as text, and either way the same checks follow.
The twin is a cache, as a hash-checked ``.pyc`` is (PEP 552): deleting
it costs only speed.
"""
from __future__ import annotations

import contextlib
import errno
import functools
import io
import json
import os
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import yaml

from .errors import FormatError, RateMismatch, SingularFusion, _naming
from .simulation import SimConfig
from .types import (Extrinsic, ImuSeries, NoiseSpec, _check_keys, _finite_floats, _integral,
                    _number, _read)
from .vimu import VimuConfig, VimuNoise

IMU_CSV_HEADER = "t_ns,wx,wy,wz,ax,ay,az"
_ROW_DTYPE = np.dtype([("t_ns", np.int64), ("values", np.float64, (6,))])
# rows that write_imu_csv formats per block
_BLOCK_ROWS = 1024
# an IMU CSV's binary twin: this header (magic, record count, SHA-256 of
# the CSV's bytes followed by the records), then the records
_TWIN_HEADER = struct.Struct("<8sQ32s")
_TWIN_MAGIC = b"MIMUROW1"
_TWIN_DTYPE = _ROW_DTYPE.newbyteorder("<")
# bytes of the CSV that _read_twin hashes per read
_HASH_CHUNK = 1 << 20
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
def _atomic_open(path, mode="w"):
    """A file open for writing, in text or (mode "wb") binary mode, on a
    temp file in path's directory. A clean exit renames it to path; an
    exception removes it. The temp file is created with mode 0o666, so
    that the file gets the mode the umask gives, as a plain open would.
    A path that is a directory raises IsADirectoryError before any file
    is created, a parent of path that is missing or is not a directory
    raises FileNotFoundError or NotADirectoryError naming that parent,
    and a failed rename raises its error naming path, never the temp
    file."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except (FileNotFoundError, NotADirectoryError) as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path.parent)) from None
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
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


def _read_text(path) -> str:
    """The text of the file at path, decoded as UTF-8 with universal
    newlines (CRLF reads as LF). Bytes that are not UTF-8 raise
    FormatError naming path and the line they are on."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None


def read_json(path) -> dict:
    text = _read_text(path)
    with _naming(f"{path}: ", kinds=(json.JSONDecodeError,)):
        return json.loads(text)


# libyaml's parser when PyYAML was built with it, about 8 times faster on
# the configs; the pure-Python SafeLoader otherwise
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path) -> dict:
    stream = io.StringIO(_read_text(path))
    stream.name = str(path)  # the name the parser's error marks give
    with _naming(f"{path}: ", kinds=(yaml.YAMLError,)):
        data = yaml.load(stream, Loader=_YAML_LOADER)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a mapping at the top level")
    return data


def _twin_path(path) -> Path:
    """Where the binary twin of the IMU CSV at path lives."""
    path = Path(path)
    return path.with_name(f".{path.name}.rows")


def _sha256():
    """A new SHA-256 hash. hashlib is imported on first use: its import
    costs about 4 ms, and only the twin of an IMU CSV needs it."""
    import hashlib

    return hashlib.sha256()


def write_imu_csv(path, series: ImuSeries, stage=None):
    """Write a raw or fused series, one row per sample at its implicit
    timestamp, every value to 17 significant digits so that it reads
    back bit for bit, and its binary twin beside it (see the module
    docstring). ImuSeries guarantees finite samples and increasing
    stamps; one with fewer than 2 samples, which read_imu_csv would
    reject, raises FormatError before any file is created. Given ``stage``, a
    contextlib.ExitStack, both files stay in temp files until the stack
    closes, which renames them into place, or removes them if it closes
    on an exception."""
    if len(series) < 2:
        raise FormatError(f"{path}: need at least 2 samples to derive a rate")
    records = np.empty(len(series), _TWIN_DTYPE)
    records["t_ns"] = series.times_ns()
    records["values"][:, :3] = series.gyro
    records["values"][:, 3:] = series.accel
    digest = _sha256()
    with contextlib.ExitStack() if stage is None else contextlib.nullcontext(stage) as staged:
        # the stack renames last in first out: the CSV before its twin, so
        # a CSV that cannot take its place leaves no twin behind
        twin = staged.enter_context(_atomic_open(_twin_path(path), "wb"))
        out = staged.enter_context(_atomic_open(path, "wb"))
        for data in _csv_text(records):
            digest.update(data)
            out.write(data)
        digest.update(records)
        twin.write(_TWIN_HEADER.pack(_TWIN_MAGIC, len(records), digest.digest()))
        twin.write(records)


# The IMU CSV text: exact "%d" timestamps and "%.17g" values, formed by
# whole-array operations on blocks of _BLOCK_ROWS records (see _RowText).
# Each field of a row fills a 24-byte slot padded with NULs, and one
# bytes.translate per block deletes the NULs. A slot opens with the
# separator that comes before its field: the newline that ends the line
# above for a timestamp, a comma for a value.

# the first 4-byte group of each slot of a row: a newline, then "0000"
_FIRST_GROUPS = np.frombuffer(b"\n\0\0\0" + b"0000" * 6, "<u4")
# the decimal exponents E = floor(log10|v|) of the values that _RowText
# formats itself, those of 1e-6 < |v| < 1e17: for them 10**(16 - E) is
# an exact double. Python formats the others one by one.
_EXP_MIN, _EXP_MAX = -6, 16
_SPLITTER = 2.0**27 + 1
# 10**1 to 10**18: a timestamp t >= 0 has 1 + searchsorted(..., t, "right") digits
_TS_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# the byte that stands in a slot for a field that Python formats
_SPLICE = b"\x01"


def _split(a):
    """Dekker's split of doubles: hi + lo == a, each of hi and lo with at
    most 26 significant bits, so that their products are exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(_EXP_MAX - _EXP_MIN + 1)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(mag, exp10):
    """Dekker's two-product: p + e == mag * 10**(16 - exp10) exactly,
    with p the product rounded to a double."""
    j = 16 - exp10
    a_hi, a_lo = _split(mag)
    b_hi, b_lo = np.take(_POW10_HI, j), np.take(_POW10_LO, j)
    p = mag * np.take(_POW10, j)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


@functools.cache
def _text_tables():
    """The read-only tables of _RowText, built on first use: they take a
    few ms, and only a CSV write needs them.

    - digits: the 4-byte ASCII groups "0000" to "9999" read as
      little-endian uint32;
    - trailing_zeros: of each 4-digit group, 4 for "0000";
    - moved, in_place, const: for the key (sign, E, kept digits k) of a
      value, 24-byte slots as (keys, 3) little-endian uint64: the mask of
      the digit text moved down one byte, the mask of the digit text in
      place, and the bytes every such value has (the comma, the sign,
      the decimal point and an exponent suffix);
    - ts_masks: for a timestamp of w digits, the mask that keeps the
      newline and the last w bytes of its slot."""
    k = np.arange(10_000)
    groups = (np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], 1)
              + ord("0")).astype(np.uint8)
    trailing_zeros = (k[:, None] % [10, 100, 1000, 10_000] == 0).sum(axis=1)

    neg, exp10, kept = (a.ravel() for a in np.meshgrid(
        [0, 1], np.arange(_EXP_MIN, _EXP_MAX + 1), np.arange(1, 18), indexing="ij"))
    sci = exp10 < -4  # %g's exponent notation
    point = np.where(sci, 3, 7 + exp10)[:, None]
    first = np.where(sci, 2, 6 + np.minimum(exp10, 0))[:, None]
    last = (np.where(sci, 2, 6) + kept)[:, None]
    frac = (kept > np.where(sci, 1, exp10 + 1))[:, None]
    j = np.arange(24)
    const = np.where(frac & (j == point), ord("."), 0)
    const[:, 0] = ord(",")
    const[:, 1] = np.where(neg, ord("-"), 0)
    for i in np.flatnonzero(sci):
        const[i, 20:] = list(f"e{exp10[i]:+03d}".encode())
    width = np.arange(21)[:, None]
    slots = [((first <= j) & (j < point)) * 0xFF, (frac & (point < j) & (j <= last)) * 0xFF,
             const, ((j == 0) | (j >= 24 - width)) * 0xFF]
    tables = [groups.view("<u4")[:, 0], trailing_zeros,
              *(np.ascontiguousarray(t, np.uint8).view("<u8") for t in slots)]
    for t in tables:
        t.flags.writeable = False
    return tuple(tables)


class _RowText:
    """The CSV rows of blocks of up to ``size`` records, each row as
    ``"\\n%d" % t`` followed by ``",%.17g" % v`` per value, in arrays
    allocated once.

    A value with 1e-6 < |v| < 1e17 is formatted here. Its decimal
    exponent E is floor(log10|v|), corrected by one where the exact
    product |v| * 10**(16 - E) (Dekker) falls outside [1e16, 1e17). That
    product rounds half to even to the 17-digit significand N, which %g
    shows with its trailing zeros stripped, keeping k digits. N's digits
    d0..d16 are written as 4-digit groups, "0000" then d0 as "000d"
    (d_i lands in byte 7 + i), or, for %g's exponent notation
    (E = -5, -6), one group earlier (byte 3 + i). A slot takes the bytes
    before the decimal point from that text moved down one byte and the
    rest from the text in place, so the point costs no shuffle: the key
    (sign, E, k) picks two masks and the constant bytes. Zeros take the
    same path with N = 0 and E = 0. Other values and negative timestamps
    are marked with _SPLICE and spliced in after Python formats them."""

    def __init__(self, size):
        (self.digits, self.trailing_zeros, self.moved_mask, self.in_place_mask,
         self.const, self.ts_masks) = _text_tables()
        self.numbers = np.empty((size, 7), np.int64)
        self.slots = np.empty((size, 7, 3), "<u8")
        self.moved = np.empty(size * 21, "<u8")
        self.mask = np.empty((size, 6, 3), "<u8")

    def __call__(self, block) -> bytes:
        n = len(block)
        t, x = block["t_ns"], block["values"]
        numbers, slots, mask = self.numbers[:n], self.slots[:n], self.mask[:n]
        splice = np.empty((n, 7), bool)
        splice[:, 0] = t < 0
        np.maximum(t, 0, out=numbers[:, 0])
        width = np.searchsorted(_TS_POW10, numbers[:, 0], side="right") + 1

        mag = np.abs(x)
        zero = mag == 0
        fast = (1e-6 < mag) & (mag < 1e17)
        np.logical_not(fast | zero, out=splice[:, 1:])
        mag[~fast] = 1.0  # keeps the arithmetic below in range
        exp10 = np.floor(np.log10(mag)).astype(np.intp)
        np.maximum(exp10, _EXP_MIN, out=exp10)
        np.minimum(exp10, _EXP_MAX, out=exp10)
        p, e = _scaled(mag, exp10)
        below = (p < 1e16) | ((p == 1e16) & (e < 0))
        above = (p > 1e17) | ((p == 1e17) & (e >= 0))
        wrong = below | above
        if wrong.any():
            exp10 += above
            exp10 -= below
            p[wrong], e[wrong] = _scaled(mag[wrong], exp10[wrong])
        # p >= 2**53 is an integer, so rounding e rounds p + e half to even.
        # N never rounds up to 10**17: no double in range lies within
        # 5e-18 (relative) below a power of ten.
        digits = numbers[:, 1:]
        np.copyto(digits, p, casting="unsafe")
        digits += np.rint(e).astype(np.int64)
        digits[zero] = 0
        exp10[zero] = 0

        # every number as 4-digit groups, the slot's first group fixed
        quads = slots.view("<u4")
        quads[:, :, 0] = _FIRST_GROUPS
        groups = []
        for i, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
            groups.append(numbers // scale)
            numbers -= scale * groups[-1]
            quads[..., i + 1] = np.take(self.digits, groups[-1])
        quads[..., 5] = np.take(self.digits, numbers)
        groups.append(numbers)
        # the trailing zeros of N, counted on to the left past groups of "0000"
        zeros = np.take(self.trailing_zeros, groups[4][:, 1:])
        at = np.nonzero(zeros == 4)
        for g in groups[3:0:-1]:
            more = np.take(self.trailing_zeros, g[:, 1:][at])
            zeros[at] += more
            at = tuple(i[more == 4] for i in at)
        # exponent notation: the digits move one group down
        row, col = np.nonzero(exp10 < -4)
        shifted = quads[:, 1:]
        shifted[row, col, :5] = shifted[row, col, 1:]
        shifted[row, col, 5] = 0
        key = np.signbit(x) * (17 * (_EXP_MAX - _EXP_MIN + 1))
        key += 17 * (exp10 - _EXP_MIN) + 16
        key -= zeros

        flat = slots.view(np.uint8).reshape(-1)
        self.moved.view(np.uint8)[:len(flat) - 1] = flat[1:]
        moved = self.moved[:n * 21].reshape(n, 7, 3)[:, 1:]
        values = slots[:, 1:]
        moved &= np.take(self.moved_mask, key, axis=0, out=mask, mode="clip")
        values &= np.take(self.in_place_mask, key, axis=0, out=mask, mode="clip")
        values |= moved
        values |= np.take(self.const, key, axis=0, out=mask, mode="clip")
        slots[:, 0] &= np.take(self.ts_masks, width, axis=0)

        fields = np.flatnonzero(splice)
        if len(fields):
            marked = slots.reshape(n * 7, 3).view(np.uint8)
            marked[fields, 1:] = 0
            marked[fields, 1] = _SPLICE[0]
        text = slots.tobytes().translate(None, b"\0")
        if not len(fields):
            return text
        row, col = np.divmod(fields, 7)
        stamps, floats = t[row].tolist(), x[row, col - 1].tolist()
        pieces = [None] * (2 * len(fields) + 1)
        pieces[::2] = text.split(_SPLICE)
        pieces[1::2] = [b"%.17g" % v if c else b"%d" % s
                        for s, v, c in zip(stamps, floats, col.tolist())]
        return b"".join(pieces)


def _csv_text(records):
    """The IMU CSV of _ROW_DTYPE records in pieces: the header without
    its newline, the rows of _BLOCK_ROWS records per piece, each row
    opening with the newline that ends the line before it, and the last
    newline."""
    yield IMU_CSV_HEADER.encode()
    row_text = _RowText(min(len(records), _BLOCK_ROWS))
    for start in range(0, len(records), _BLOCK_ROWS):
        yield row_text(records[start:start + _BLOCK_ROWS])
    yield b"\n"


def _read_twin(path):
    """The _ROW_DTYPE records of the binary twin of the IMU CSV at path,
    or None unless the twin holds whole records and its digest matches
    the CSV's bytes on disk followed by those records. A missing twin
    costs one failed open; any OSError gives None too."""
    try:
        with open(_twin_path(path), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _TWIN_HEADER.size:
                return None
            magic, count, want = _TWIN_HEADER.unpack(fh.read(_TWIN_HEADER.size))
            body = size - _TWIN_HEADER.size
            if magic != _TWIN_MAGIC or body != count * _TWIN_DTYPE.itemsize:
                return None
            records = np.empty(count, _TWIN_DTYPE)
            if fh.readinto(records.view(np.uint8)) != records.nbytes:
                return None
        digest = _sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(_HASH_CHUNK):
                digest.update(chunk)
    except OSError:
        return None
    digest.update(records)
    return records.astype(_ROW_DTYPE, copy=False) if digest.digest() == want else None


def _load_rows(lines) -> np.ndarray:
    """Parse CSV data lines, or an open text file's remaining lines, into
    _ROW_DTYPE records; empty lines are skipped, any other line that is
    not an integer and 6 numbers raises ValueError."""
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


def _parse_text(path) -> np.ndarray:
    """The _ROW_DTYPE records of an IMU CSV's data rows, parsed as the
    file streams past. A file that fails the header, UTF-8 decoding or
    the parse goes to _parse_whole."""
    try:  # universal newlines: CRLF reads as LF
        with open(path, encoding="utf-8") as fh:
            if fh.readline().removesuffix("\n") == IMU_CSV_HEADER:
                return _load_rows(fh)
    except ValueError:  # UnicodeDecodeError included
        pass
    return _parse_whole(path)


def _parse_csv(path):
    """Timestamps and values of an IMU CSV's data rows: its binary
    twin's records when they match the CSV (see _read_twin), else its
    text parsed. Rows that are fewer than 2 or hold a non-finite value
    go to _parse_whole, which raises the FormatError that says why."""
    rows = _read_twin(path)
    if rows is None:
        rows = _parse_text(path)
    if len(rows) < 2 or not np.isfinite(rows["values"]).all():
        rows = _parse_whole(path)
    return rows["t_ns"], rows["values"]


def _parse_whole(path) -> np.ndarray:
    """The _ROW_DTYPE records of the IMU CSV at path, read whole: the one
    parser that says why a file is rejected and, where it applies, on
    which line. A whitespace-only line is a blank line, which is
    skipped. Text that is not UTF-8, a bad header, a line that is not an
    integer and 6 numbers, fewer than 2 rows and a non-finite value raise
    FormatError."""
    text = _read_text(path)
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
    if len(rows) < 2:
        raise FormatError(f"{path}: need at least 2 samples to derive a rate")
    finite = np.isfinite(rows["values"]).all(axis=1)
    if not finite.all():
        data_lines = [k for k, line in enumerate(lines) if line]
        lineno = data_lines[int(np.argmin(finite))] + 1
        raise FormatError(f"{path}:{lineno}: non-finite sample value")
    return rows


def read_imu_csv(path) -> ImuSeries:
    """Parse and validate one IMU CSV; the rate comes from the median
    timestamp spacing and every spacing must agree within 1%."""
    times, values = _parse_csv(path)
    # compared, not subtracted: a difference of int64 stamps can wrap
    if np.any(times[1:] <= times[:-1]):
        raise FormatError(f"{path}: timestamps must be strictly increasing")
    # the spacings of increasing int64 stamps, exact as uint64
    diffs = np.diff(times).view(np.uint64)
    period = float(np.median(diffs))
    if np.max(np.abs(diffs - period)) > RATE_JITTER_TOL * period:
        raise RateMismatch(
            f"{path}: timestamp jitter exceeds {RATE_JITTER_TOL:.0%} of the "
            f"nominal period {period:.0f} ns")
    with _naming(f"{path}: "):
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
    semi-definite 3x3 matrix, a freq that is not finite and positive or
    noises that mix exact and noisy sensors raise FormatError naming path
    and key."""
    d = read_json(path)
    with _naming(f"{path}: "), _naming("config.noises: ", kinds=(SingularFusion,)):
        _check_keys(d, _SIDECAR_KEYS, "sidecar")
        missing = [k for k in _SIDECAR_KEYS if k not in d]
        if missing:
            raise FormatError(f"sidecar has no {missing[0]!r} entry")
        freq = _number("freq", d["freq"])
        if not (np.isfinite(freq) and freq > 0):
            raise FormatError(f"freq must be finite and positive, got {freq}")
        return (VimuConfig.from_dict(d["config"]),
                VimuNoise.from_dict(d["covariances"]), freq)


def load_noise_pair(path) -> tuple:
    """Noise config for a calibration pair: either separate ``a``/``b``
    blocks (both, and no other key) or one flat spec applied to both. A
    pair that lacks ``a`` or ``b`` raises FormatError naming the missing
    block; any other error is NoiseSpec.from_dict's, with path."""
    d = load_yaml(path)
    with _naming(f"{path}: "):
        if "a" not in d and "b" not in d:
            spec = NoiseSpec.from_dict(d)
            return spec, spec
        _check_keys(d, ("a", "b"), "noise pair")
        missing = "b" if "a" in d else "a"
        if missing not in d:
            raise FormatError(f"noise pair has no {missing!r} block; give both "
                              "'a' and 'b', or one flat spec")
        return _read(NoiseSpec, d["a"], "a"), _read(NoiseSpec, d["b"], "b")


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
    """sim_setup_from_dict of the YAML file at path; its FormatError
    names the path."""
    d = load_yaml(path)
    with _naming(f"{path}: "):
        return sim_setup_from_dict(d)
