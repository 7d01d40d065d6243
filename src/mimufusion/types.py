"""Shared data carriers: sensor noise model, rigid extrinsics, and raw
IMU sample series."""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
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


def _check_keys(d: dict, known, what: str):
    """Reject a config block that is not a mapping (TypeError), or that
    has keys outside ``known`` (ValueError), so that a misspelt key fails
    instead of silently taking its default."""
    if not isinstance(d, dict):
        raise TypeError(f"{what} block must be a mapping, got {type(d).__name__}")
    unknown = set(d) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


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
class NoiseSpec:
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

    def __post_init__(self):
        for name in ("sigma_g", "sigma_a", "sigma_bg", "sigma_ba"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "initial_bias_g", _vec3(self.initial_bias_g))
        object.__setattr__(self, "initial_bias_a", _vec3(self.initial_bias_a))

    @classmethod
    def zero(cls) -> "NoiseSpec":
        """Noise-free spec (used for ideal-data tests and baselines)."""
        return cls(sigma_g=0.0, sigma_a=0.0, sigma_bg=0.0, sigma_ba=0.0)

    def to_dict(self) -> dict:
        return {
            "sigma_g": self.sigma_g,
            "sigma_a": self.sigma_a,
            "sigma_bg": self.sigma_bg,
            "sigma_ba": self.sigma_ba,
            "initial_bias_g": self.initial_bias_g.tolist(),
            "initial_bias_a": self.initial_bias_a.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSpec":
        _check_keys(d, ("sigma_g", "sigma_a", "sigma_bg", "sigma_ba",
                        "initial_bias_g", "initial_bias_a"), "noise")
        return cls(**{k: _number(k, v) if k.startswith("sigma") else _finite_floats(k, v)
                      for k, v in d.items()})


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
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", _vec3(self.p))

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
