"""File formats: IMU CSV (raw and fused streams alike), JSON results,
YAML configs.

All writers go through an atomic temp-file + rename so a failing
invocation never leaves partial output behind.
"""
from __future__ import annotations

import itertools
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import yaml

from .errors import FormatError, RateMismatch
from .types import Extrinsic, ImuSeries, NoiseSpec, _check_keys
from .vimu import VimuConfig, VimuNoise

IMU_CSV_HEADER = "t_ns,wx,wy,wz,ax,ay,az"
# fraction of the nominal period that timestamps may deviate on ingest
RATE_JITTER_TOL = 0.01


def atomic_write_text(path, text: str):
    """Write text to path via a temp file in the same directory."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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


def write_imu_csv(path, series: ImuSeries):
    """Write a raw or fused series, one row per sample at its implicit
    timestamp."""
    lines = [IMU_CSV_HEADER]
    for t, w, a in zip(series.times_ns(), series.gyro, series.accel):
        vals = ",".join(f"{x:.17g}" for x in (*w, *a))
        lines.append(f"{int(t)},{vals}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != IMU_CSV_HEADER:
            raise FormatError(
                f"{path}: bad header {header!r}, expected {IMU_CSV_HEADER!r}")
        times = []
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise FormatError(f"{path}:{lineno}: expected 7 columns")
            try:
                times.append(int(parts[0]))
                values.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if len(times) < 2:
        raise FormatError(f"{path}: need at least 2 samples to derive a rate")
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = _line_of_row(path, int(np.argmin(finite)))
        raise FormatError(f"{path}:{lineno}: non-finite sample value")
    return np.asarray(times, dtype=np.int64), values


def _line_of_row(path, row: int) -> int:
    """File line number of data row ``row`` (0-based, blank lines
    skipped). Only the error path calls this, so the parse loop need
    not track line numbers."""
    with open(path) as fh:
        data_lines = (n for n, line in enumerate(fh, start=1)
                      if n > 1 and line.strip())
        return next(itertools.islice(data_lines, row, None))


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
    d = read_json(path)
    try:
        return (VimuConfig.from_dict(d["config"]),
                VimuNoise.from_dict(d["covariances"]),
                float(d["freq"]))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_noise_pair(path) -> tuple:
    """Noise config for a calibration pair: either separate ``a``/``b``
    mappings (and no other key) or one flat spec applied to both."""
    d = load_yaml(path)
    try:
        if "a" in d or "b" in d:
            _check_keys(d, ("a", "b"), "noise pair")
            return NoiseSpec.from_dict(d["a"]), NoiseSpec.from_dict(d["b"])
        spec = NoiseSpec.from_dict(d)
        return spec, spec
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def sim_setup_from_dict(d: dict):
    """Parse a simulation config mapping into (SimConfig, imu definitions).

    Returns the config plus a list of (name, mount Extrinsic, NoiseSpec)
    tuples, one per configured sensor.
    """
    from .simulation import SimConfig, TrajectoryParams

    try:
        _check_keys(d, ("freq", "duration", "gravity", "seed", "trajectory",
                        "imus"), "simulation")
        cfg = SimConfig(
            freq=float(d.get("freq", 200.0)),
            duration=float(d.get("duration", 60.0)),
            gravity=np.asarray(d.get("gravity", [0.0, 0.0, -9.81]), dtype=float),
            seed=int(d.get("seed", 0)),
            trajectory=TrajectoryParams.from_dict(d.get("trajectory", {})),
        )
        imus = []
        for i, entry in enumerate(d.get("imus", [])):
            _check_keys(entry, ("name", "rotation_wxyz", "position_m", "noise"),
                        f"imus[{i}]")
            name = str(entry.get("name", f"imu_{i:02d}"))
            mount = Extrinsic(
                q=np.asarray(entry.get("rotation_wxyz", [1, 0, 0, 0]), dtype=float),
                p=np.asarray(entry.get("position_m", [0, 0, 0]), dtype=float),
            )
            noise = NoiseSpec.from_dict(entry.get("noise", {}))
            imus.append((name, mount, noise))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"simulation config: {exc}") from exc
    if not imus:
        raise FormatError("simulation config lists no imus")
    return cfg, imus


def load_sim_setup(path):
    return sim_setup_from_dict(load_yaml(path))
