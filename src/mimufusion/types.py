"""Shared data carriers: sensor noise model, rigid extrinsics, and raw
IMU sample series."""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError, LengthMismatch, RateMismatch
from .geometry import quat_conjugate, rotation_from_quat


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3-vector, got shape {v.shape}")
    return v


def non_finite_sample(gyro, accel):
    """Index of the first NaN or infinite sample (row), or None."""
    finite = np.isfinite(gyro).all(axis=-1) & np.isfinite(accel).all(axis=-1)
    return None if finite.all() else int(np.argmin(finite))


def check_synchronized(series) -> None:
    """Raise RateMismatch or LengthMismatch unless every series shares
    the first one's rate (to 1e-9 relative), start time and sample
    count, and that count is at least 3."""
    base = series[0]
    for s in series[1:]:
        if abs(s.freq - base.freq) > 1e-9 * base.freq:
            raise RateMismatch(f"sample rates differ: {base.freq} vs {s.freq}")
        if s.start_ns != base.start_ns:
            raise LengthMismatch(
                f"start times differ: {base.start_ns} ns vs {s.start_ns} ns")
        if len(s) != len(base):
            raise LengthMismatch(f"sample counts differ: {len(base)} vs {len(s)}")
    if len(base) < 3:
        raise LengthMismatch(f"need at least 3 samples, got {len(base)}")


def _check_keys(d: dict, known, what: str):
    """Reject a config block that is not a mapping, or that has keys
    outside ``known``, with a FormatError naming the block, so that a
    misspelt key fails instead of silently taking its default."""
    if not isinstance(d, dict):
        raise FormatError(f"{what} block must be a mapping, got {type(d).__name__}")
    unknown = set(d) - set(known)
    if unknown:
        raise FormatError(f"unknown {what} keys: {sorted(unknown)}")


def _read(cls, d, what: str, base=None, table=None):
    """A ``cls`` read from the config block ``d``, which messages call
    ``what``, through its key table (``table``, by default ``cls._KEYS``):
    file key -> (field, reader). Each key present is read by
    ``reader(f"{what}.{key}", value)``; each absent one keeps its field
    of ``base``, or its default when there is no base. A block that is
    not a mapping, an unknown key, and a value that a reader refuses or
    that the constructor rejects with ValueError or TypeError raise
    FormatError naming the block or the key."""
    table = cls._KEYS if table is None else table
    _check_keys(d, table, what)
    try:
        fields = {table[k][0]: table[k][1](f"{what}.{k}", v) for k, v in d.items()}
        return cls(**fields) if base is None else replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


def _plain(value):
    """A field value as JSON data: arrays and tuples as lists, and a
    config block as its mapping."""
    if isinstance(value, _Block):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class _Block:
    """A config type declared once as a block of a YAML or JSON file:
    ``_KEYS`` maps each file key to (field, reader of the key's name and
    value), and ``_NAME`` names the block in messages. The table both
    reads the block (from_dict) and writes it (to_dict)."""

    @classmethod
    def from_dict(cls, d: dict):
        """Read a block as to_dict writes it. Each key that is present is
        read and checked, and each absent one keeps its field's default.
        A block that is not a mapping, an unknown key, or a value that
        its reader or the constructor rejects raises FormatError naming
        the block or the key."""
        return _read(cls, d, cls._NAME)

    def to_dict(self) -> dict:
        """The block as JSON data, one entry per key of the table."""
        return {key: _plain(getattr(self, name)) for key, (name, _) in self._KEYS.items()}


def _integral(key: str, value) -> int:
    """A config value as an int: an integer, or a float with no fraction.
    A bool, a fraction or anything else raises FormatError naming key."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise FormatError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    """A config value as a float; a bool or one that float() refuses
    raises FormatError naming key. Range checks are the caller's."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise FormatError(f"{key} must be a number, got {value!r}")


def _finite_floats(key: str, value) -> np.ndarray:
    """A config list of numbers as a float array; an entry that is a bool
    or not a finite number raises FormatError naming key. Shape checks
    are the caller's."""
    try:
        if any(isinstance(x, bool) for x in np.ravel(np.asarray(value, dtype=object))):
            raise TypeError
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        v = np.array(np.nan)
    if not np.isfinite(v).all():
        raise FormatError(f"{key} must be finite numbers, got {value!r}")
    return v


@dataclass(frozen=True)
class NoiseSpec(_Block):
    """Continuous-time IMU noise densities (SI units per sqrt(Hz)) plus
    bias random-walk densities and initial bias values.

    Defaults are typical consumer MEMS figures.
    """

    sigma_g: float = 1.7e-4
    sigma_a: float = 2.0e-3
    sigma_bg: float = 1.0e-5
    sigma_ba: float = 3.0e-4
    initial_bias_g: np.ndarray = field(default_factory=lambda: np.zeros(3))
    initial_bias_a: np.ndarray = field(default_factory=lambda: np.zeros(3))

    _NAME = "noise"
    # each key is its field's name
    _KEYS = {name: (name, _number if name.startswith("sigma") else _finite_floats)
             for name in ("sigma_g", "sigma_a", "sigma_bg", "sigma_ba",
                          "initial_bias_g", "initial_bias_a")}

    def __post_init__(self):
        for name in self._KEYS:
            if name.startswith("sigma"):
                v = float(getattr(self, name))
                if not np.isfinite(v) or v < 0.0:
                    raise ValueError(f"{name} must be finite and >= 0, got {v}")
            else:
                v = _vec3(getattr(self, name))
            object.__setattr__(self, name, v)

    @classmethod
    def zero(cls) -> "NoiseSpec":
        """Noise-free spec (used for ideal-data tests and baselines)."""
        return cls(sigma_g=0.0, sigma_a=0.0, sigma_bg=0.0, sigma_ba=0.0)


@dataclass(frozen=True)
class Extrinsic:
    """Rigid transform between two sensor frames.

    ``q`` is the unit quaternion (w, x, y, z) rotating source-frame (A)
    coordinates into the target frame (B); ``p`` is the target origin
    expressed in the source frame, in meters.
    """

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))
    p: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        norm = float(np.linalg.norm(q))
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {norm} too far from 1")
        q = q / norm
        if q[0] < 0.0:
            q = -q
        p = _vec3(self.p)
        if not np.isfinite(p).all():
            raise ValueError(f"lever arm must be finite, got {p.tolist()}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @classmethod
    def identity(cls) -> "Extrinsic":
        return cls()

    def rotation(self) -> np.ndarray:
        """Rotation matrix R_BA mapping source coords into the target frame."""
        return rotation_from_quat(self.q)

    def inverse(self) -> "Extrinsic":
        """The same transform seen from the target frame."""
        R = self.rotation()
        return Extrinsic(q=quat_conjugate(self.q), p=-(R @ self.p))


@dataclass
class ImuSeries:
    """Fixed-rate gyro + accelerometer samples.

    Timestamps are implicit: sample k is at ``start_ns + round(k * 1e9 / freq)``.
    Gyro in rad/s, specific force in m/s^2, both (n, 3) and finite: a NaN
    or infinite sample raises FormatError.
    """

    freq: float
    start_ns: int
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        self.freq = float(self.freq)
        if not np.isfinite(self.freq) or self.freq <= 0.0:
            raise ValueError(f"freq must be positive, got {self.freq}")
        self.start_ns = int(self.start_ns)
        self.gyro = np.asarray(self.gyro, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        if self.gyro.ndim != 2 or self.gyro.shape[1] != 3:
            raise ValueError(f"gyro must be (n, 3), got {self.gyro.shape}")
        if self.accel.shape != self.gyro.shape:
            raise ValueError("gyro and accel must have matching shapes")
        bad = non_finite_sample(self.gyro, self.accel)
        if bad is not None:
            raise FormatError(f"sample {bad} is not finite")

    def __len__(self) -> int:
        return self.gyro.shape[0]

    @property
    def period_ns(self) -> float:
        return 1e9 / self.freq

    def times_ns(self) -> np.ndarray:
        k = np.arange(len(self), dtype=float)
        return self.start_ns + np.rint(k * self.period_ns).astype(np.int64)

    @property
    def duration(self) -> float:
        """Span covered by the samples, in seconds (n / freq)."""
        return len(self) / self.freq

    def window(self, t0: float, t1: float) -> "ImuSeries":
        """Sub-series covering [t0, t1) seconds relative to the series start."""
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise ValueError(f"window [{t0}, {t1}) has a bound that is not finite")
        # clipped to the series in seconds, so no bound overflows a sample index
        k0, k1 = (int(np.ceil(np.clip(t, 0.0, self.duration) * self.freq - 1e-9))
                  for t in (t0, t1))
        if k1 <= k0:
            raise ValueError(f"window [{t0}, {t1}) selects no samples")
        return ImuSeries(
            freq=self.freq,
            start_ns=self.start_ns + int(np.rint(k0 * self.period_ns)),
            gyro=self.gyro[k0:k1].copy(),
            accel=self.accel[k0:k1].copy(),
        )
