"""Command-line pipeline: simulate -> calibrate -> fuse -> preintegrate,
plus the Monte-Carlo evaluation harness.

Exit codes: 0 on success, 1 when a domain error is raised (a JSON
payload describing it goes to stderr), 2 for usage problems such as bad
arguments or missing input files. Set MIMU_LOG=INFO (or DEBUG) for
progress logging.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import csvio
from .calibration import CalibrationInput, _extrinsic_from_dict, calibrate
from .errors import MimuError, RateMismatch, _naming
from .geometry import geodesic_angle
from .harness import (
    VARIANTS,
    ExperimentPlan,
    emit_report,
    ingest_csv,
    run_experiment,
)
from .preintegration import VimuState, preintegrate_windows
from .simulation import apply_measurement_noise, ideal_imu_series_stack
from .types import ImuSeries
from .vimu import centroid_frame, fuse_series, virtual_covariances

log = logging.getLogger(__name__)


def _configure_logging():
    name = os.environ.get("MIMU_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")


def cmd_simulate(args) -> int:
    cfg, imus = csvio.load_sim_setup(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.freq is not None:
        overrides["freq"] = args.freq
    if args.duration is not None:
        overrides["duration"] = args.duration
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    out = Path(args.out)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(imus))
    ideal = ideal_imu_series_stack(cfg, np.array([m.rotation() for _, m, _ in imus]),
                                   np.array([m.p for _, m, _ in imus]))
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        # write_imu_csv stages each CSV; all are renamed into place only
        # once every IMU has been written
        with contextlib.ExitStack() as staged:
            for i, ((name, _, noise), (w, a), seq) in enumerate(zip(imus, ideal, streams)):
                path = out / f"{name}.csv"
                # a sigma whose noise overflows raises FormatError; a huge
                # initial bias overflows to inf, which ImuSeries rejects
                with (_naming(f"{args.config}: imus[{i}].noise."),
                      np.errstate(over="ignore", invalid="ignore")):
                    noisy = apply_measurement_noise(w, a, noise, cfg.freq,
                                                    np.random.default_rng(seq))
                with _naming(f"{path}: "):
                    series = ImuSeries(cfg.freq, 0, *noisy)
                csvio.write_imu_csv(path, series, stage=staged)
                log.info("wrote %s.csv (%d samples)", name, len(series))
    except BaseException:
        for d in created:  # deepest first; rmdir keeps any that is not empty
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    csvio.write_json(out / "manifest.json", {
        "freq": cfg.freq,
        "duration": cfg.duration,
        "seed": cfg.seed,
        "imus": [name for name, _, _ in imus],
    })
    print(f"simulated {len(imus)} imu(s), {cfg.duration:g} s at "
          f"{cfg.freq:g} Hz -> {out}")
    return 0


def cmd_calibrate(args) -> int:
    noise_a, noise_b = csvio.load_noise_pair(args.noise)
    series_a, series_b = ingest_csv([args.imu_a, args.imu_b])
    if args.window_secs is not None:
        try:
            series_a = series_a.window(0.0, args.window_secs)
            series_b = series_b.window(0.0, args.window_secs)
        except ValueError as exc:
            raise ValueError(f"--window-secs: {exc}") from exc
    result = calibrate(CalibrationInput(series_a=series_a, series_b=series_b,
                                        noise_a=noise_a, noise_b=noise_b))
    csvio.write_json(args.out, result.to_dict())
    ext = result.extrinsic
    angle = geodesic_angle(np.eye(3), ext.rotation())
    print(f"calibrated: rotation {np.degrees(angle):.4f} deg, lever "
          f"{np.linalg.norm(ext.p) * 1e3:.3f} mm -> {args.out}")
    return 0


def cmd_fuse(args) -> int:
    calib = csvio.read_json(args.calib)
    with _naming(f"{args.calib}: "):
        ext = _extrinsic_from_dict(calib)
    noise_a, noise_b = csvio.load_noise_pair(args.noise)
    series = ingest_csv([args.imu_a, args.imu_b])
    cfg = centroid_frame(ext, noise_a, noise_b)
    fused = fuse_series(cfg, series)
    noise = virtual_covariances(cfg.noises)
    out = Path(args.out)
    csvio.write_imu_csv(out, fused)
    sidecar = out.with_suffix(".json")
    csvio.write_vimu_sidecar(sidecar, cfg, noise, fused.freq)
    print(f"fused {len(fused)} samples at {fused.freq:g} Hz -> {out} "
          f"(+ {sidecar.name})")
    return 0


def cmd_preintegrate(args) -> int:
    series = csvio.read_imu_csv(args.vimu)
    # reading the sidecar checks its array, the virtual origin included
    _, noise, freq = csvio.read_vimu_sidecar(args.vimu_config)
    if abs(series.freq - freq) > 0.01 * freq:
        raise RateMismatch(
            f"{args.vimu}: rate {series.freq:.3f} Hz does not match the "
            f"sidecar's {freq:.3f} Hz")
    if not (np.isfinite(args.interval) and args.interval > 0):
        raise ValueError(
            f"--interval must be finite and positive, got {args.interval}")
    # a window longer than the series gives no delta, however long it is
    step = int(round(min(args.interval * series.freq, len(series) + 1)))
    if step < 1:
        raise ValueError("interval below one sample period")
    with _naming(f"{args.vimu}: "):
        deltas = preintegrate_windows(series, VimuState.identity(), step, noise)
    if not deltas:
        raise ValueError("series shorter than one keyframe interval")
    with csvio._atomic_open(args.out) as fh:
        for j, delta in enumerate(deltas):
            fh.write(json.dumps({
                "window": j,
                "t_start_s": j * step / series.freq,
                "duration_s": delta.duration,
                "count": delta.count,
                "dR": delta.rotation.tolist(),
                "dv": delta.velocity.tolist(),
                "dp": delta.position.tolist(),
                "cov_diag": np.diag(delta.covariance).tolist(),
            }) + "\n")
    print(f"preintegrated {len(deltas)} window(s) of {args.interval:g} s "
          f"-> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    d = csvio.load_yaml(args.config)
    with _naming(f"{args.config}: "):
        plan = ExperimentPlan.from_dict(d)
    overrides = {}
    if args.variants is not None:
        overrides["variants"] = tuple(v.strip() for v in args.variants.split(",")
                                      if v.strip())
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.full_scale:
        overrides["extrinsic_samples"] = 100
        overrides["sequences_per_sample"] = 5000
    if overrides:
        plan = dataclasses.replace(plan, **overrides)
    report = run_experiment(plan, out_dir=args.out)
    emit_report(report, args.out)
    for v in plan.variants:
        m = report.metrics[v]
        print(f"{v}: pos {m['position']['mean']:.6g} m, "
              f"rot {m['orientation']['mean']:.6g} rad, "
              f"vel {m['velocity']['mean']:.6g} m/s "
              f"({report.completed[v]} trials)")
    if report.failures:
        print(f"{len(report.failures)} trial(s) failed; see failures.log",
              file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The mimu argument parser, built once per process. It parses the
    command's name, and main picks the cmd_* function that runs it."""
    parser = argparse.ArgumentParser(
        prog="mimu",
        description="Multi-IMU calibration, fusion, and preintegration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize IMU CSVs from a config")
    p.add_argument("--config", required=True, help="simulation YAML")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--freq", type=float, help="override the sample rate (Hz)")
    p.add_argument("--duration", type=float, help="override the span (s)")

    p = sub.add_parser("calibrate",
                       help="estimate the extrinsic between two IMU CSVs")
    p.add_argument("--imu-a", required=True)
    p.add_argument("--imu-b", required=True)
    p.add_argument("--noise", required=True, help="noise YAML (flat or a/b)")
    p.add_argument("--out", required=True, help="calibration JSON path")
    p.add_argument("--window-secs", type=float,
                   help="use only the first N seconds")

    p = sub.add_parser("fuse",
                       help="fuse two IMU CSVs into a virtual-IMU CSV")
    p.add_argument("--imu-a", required=True)
    p.add_argument("--imu-b", required=True)
    p.add_argument("--calib", required=True, help="calibration JSON")
    p.add_argument("--noise", required=True)
    p.add_argument("--out", required=True,
                   help="virtual CSV path (sidecar JSON written alongside)")

    p = sub.add_parser("preintegrate",
                       help="integrate a virtual-IMU CSV into keyframe deltas")
    p.add_argument("--vimu", required=True, help="virtual CSV")
    p.add_argument("--vimu-config", required=True, help="sidecar JSON")
    p.add_argument("--interval", type=float, default=0.5,
                   help="keyframe interval in seconds (default 0.5)")
    p.add_argument("--out", required=True, help="deltas JSONL path")

    p = sub.add_parser("evaluate",
                       help="run the Monte-Carlo variant comparison")
    p.add_argument("--config", required=True, help="experiment plan YAML")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--variants",
                   help=f"comma-separated subset of {', '.join(VARIANTS)}")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--full-scale", action="store_true",
                   help="100 extrinsic samples x 5000 sequences")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    # looked up per call, so that a cmd_* that was wrapped or replaced
    # after the parser was built still runs
    command = {"simulate": cmd_simulate, "calibrate": cmd_calibrate, "fuse": cmd_fuse,
               "preintegrate": cmd_preintegrate, "evaluate": cmd_evaluate}[args.command]
    try:
        return command(args)
    except MimuError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 1
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
