"""Command-line entry point wiring the pipeline:

    simulate -> render -> train -> eval -> compare; plus music, track, gridinfo.

Every subcommand derives all randomness from --seed. A command that succeeds
gets its resolved flags recorded beside its output: run.json in the directory
of simulate and render, <file>.run.json next to any other file written. Exit
codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .acoustics import load_scenes, sample_scenes, save_scenes
from .estimator import (
    Formulation,
    NetworkConfig,
    TrainConfig,
    load_model,
    param_count,
    predict,
    save_model,
    train,
)
from .evaluate import (
    RenderConfig,
    angular_error,
    check_receiver_clearance,
    comparison_csv,
    comparison_table,
    compare_methods,
    load_dataset,
    load_manifest,
    net_window_predictor,
    music_window_predictor,
    propagate,
    render_dataset,
    sample_rng,
    tolerance_accuracy,
    track,
)
from .foa import encode_srir, read_wav, write_wav
from .geometry import COVERAGE_PROBES, build_grid, to_cartesian, to_spherical
from .music import WINDOW as MUSIC_WINDOW, music_estimate
from .plots import svg_line_chart

FORMULATIONS = ("categorical", "cartesian", "spherical")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PRESETS = {"paper": NetworkConfig.paper, "desk": NetworkConfig.desk}


def _workers():
    raw = os.environ.get("AMBIDOA_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"AMBIDOA_THREADS must be a positive integer, got {raw!r}")
    return workers


def _environment(workers):
    """What a run ran on: interpreter, numeric libraries, the BLAS and its
    thread settings (None where unset), the resolved AMBIDOA_THREADS
    ``workers``, and CPU count. No timings, so a rerun records the same block.
    The BLAS name and version are None where numpy's build record lacks them
    (``show_config(mode=...)`` is numpy >= 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "ambidoa_threads": workers,
        "cpu_count": os.cpu_count(),
    }


def _write_run_json(written, args, env):
    """Record the resolved flags and the environment ``env`` beside
    ``written``: ``run.json`` inside an output directory, ``<file>.run.json``
    next to an output file."""
    path = (os.path.join(written, "run.json") if os.path.isdir(written)
            else written + ".run.json")
    payload = {
        "env": env,
        "subcommand": args.subcommand,
        # the worker count is recorded in env as ambidoa_threads
        "resolved": {k: v for k, v in vars(args).items()
                     if k not in ("func", "workers")},
        "version": __version__,
    }
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _formulation(name, resolution):
    if name == "categorical":
        return Formulation("categorical", build_grid(resolution))
    return Formulation(name)


def _feature_geometry(config):
    """``(frames, window)`` of the features that a network of ``config`` takes."""
    return config.frames, (config.freq_bins - 1) * 2


def _load_records(manifest, config, consumer):
    """Records and directory of a manifest, refused unless its features have
    the shape that ``config`` takes; ``consumer`` names the network. Only the
    first sample is read, so a mismatch stops before the rest is loaded."""
    records = load_manifest(manifest)
    if not records:
        raise ValueError(f"{manifest}: the manifest lists no samples")
    base = os.path.dirname(os.path.abspath(manifest))
    shape = load_dataset(records[:1], base)[0].shape[1:]
    expected = (6, config.frames, config.freq_bins)
    if shape != expected:
        raise ValueError(f"{manifest}: features of shape {shape} do not fit "
                         f"{consumer}, which takes {expected}")
    return records, base


def _load_data(manifest, config, consumer):
    """Records, features and labels of a manifest checked by :func:`_load_records`."""
    records, base = _load_records(manifest, config, consumer)
    return records, *load_dataset(records, base)


def _train_config(args, **fields):
    """TrainConfig from the training flags that train and compare share."""
    return TrainConfig(batch_size=args.batch_size, epochs=args.epochs, seed=args.seed,
                       **fields)


def _render_config(args, **fields):
    """RenderConfig from the propagation flags that simulate and render share."""
    return RenderConfig(method=args.method, max_order=args.max_order, n_rays=args.rays,
                        max_bounces=args.max_bounces,
                        receiver_radius=args.receiver_radius, **fields)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    scenes = sample_scenes(
        args.count,
        seed=args.seed,
        pairs_per_room=args.pairs,
        absorption=args.absorption,
        scattering=args.scattering,
    )
    cfg = _render_config(args, ir_seconds=args.ir_seconds)
    if args.write_irs:
        check_receiver_clearance(scenes, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_scenes(scenes, os.path.join(args.out, "scenes.json"), seed=args.seed)
    if args.write_irs:
        for i, scene in enumerate(scenes):
            paths = propagate(scene, cfg, sample_rng(args.seed, i))
            ir = encode_srir(paths, cfg.sample_rate, cfg.ir_length)
            write_wav(os.path.join(args.out, f"ir_{i:06d}.wav"), ir)
    print(f"wrote {len(scenes)} scenes to {args.out}/scenes.json")
    return args.out


def cmd_render(args):
    scenes = load_scenes(args.scenes)
    frames, window = _feature_geometry(PRESETS[args.preset]())
    cfg = _render_config(args, window=window, frames=frames)
    records = render_dataset(scenes, args.out, cfg, seed=args.seed,
                             speech_dir=args.speech_dir, workers=args.workers)
    print(f"rendered {len(records)} samples into {args.out}")
    return args.out


def cmd_gridinfo(args):
    grid = build_grid(args.resolution)
    coverage = grid.coverage_radius_deg(seed=args.seed)
    print(f"resolution: {args.resolution} deg")
    print(f"classes: {len(grid)}")
    print(f"coverage radius over {COVERAGE_PROBES} probes: {coverage:.3f} deg")
    if args.csv:
        grid.to_csv(args.csv)
        print(f"class centers written to {args.csv}")
    return args.csv


def _epoch_line(e, epochs):
    val = (f", val loss {e['val_loss']:.5f}, val error {e['val_error_deg']:.2f} deg"
           if "val_loss" in e else "")
    return (f"epoch {e['epoch'] + 1}/{epochs}: train loss {e['train_loss']:.5f}{val}, grad "
            f"norm mean {e['grad_norm_mean']:.3f} max {e['grad_norm_max']:.3f}, "
            f"clip fraction {e['clip_fraction']:.2f}")


def cmd_train(args):
    config = PRESETS[args.preset]()
    _, x, y = _load_data(args.manifest, config, f"the {args.preset} preset")
    formulation = _formulation(args.formulation, args.resolution)
    cfg = _train_config(args, learning_rate=args.learning_rate)
    net, history = train(x, y, formulation, cfg, config=config,
                         on_epoch=lambda e: print(_epoch_line(e, cfg.epochs), flush=True))
    save_model(args.out, net)
    with open(args.out + ".history.json", "w", encoding="ascii") as f:
        json.dump(history, f, sort_keys=True)
        f.write("\n")
    print(f"trained {args.formulation} ({param_count(net)} parameters)")
    return args.out


def cmd_eval(args):
    net = load_model(args.model)
    records, x, y = _load_data(args.manifest, net.config, f"model {args.model}")
    errors = angular_error(predict(net, x), y)
    acc = tolerance_accuracy(errors)
    with open(args.report, "w", encoding="ascii") as f:
        f.write("scene_id,error_deg\n")
        for rec, e in zip(records, errors):
            f.write(f"{rec.scene_id},{e:.4f}\n")
    print(f"samples: {len(errors)}")
    print(f"mean error: {errors.mean():.2f} deg, median: {np.median(errors):.2f} deg")
    print(f"accuracy <5/<10/<15 deg: {acc[0]:.1f}% / {acc[1]:.1f}% / {acc[2]:.1f}%")
    print(f"per-sample errors written to {args.report}")
    return args.report


def cmd_compare(args):
    config = PRESETS[args.preset]()
    image, trace = (_load_records(manifest, config, f"the {args.preset} preset")
                    for manifest in (args.image_manifest, args.trace_manifest))
    formulations = [_formulation(name, args.resolution) for name in args.formulations]
    rows = compare_methods(*image, *trace, formulations, _train_config(args),
                           net_config=config)
    print(comparison_table(rows))
    if args.report:
        comparison_csv(rows, args.report)
        print(f"report written to {args.report}")
    return args.report


def cmd_music(args):
    signal = read_wav(args.input)
    grid = build_grid(args.resolution)
    direction, scores = music_estimate(signal, grid)
    az, el = np.degrees(to_spherical(direction))
    print(f"estimated azimuth {az:.2f} deg, elevation {el:.2f} deg")
    top = np.argsort(scores)[::-1][:5]
    print("top classes:")
    for idx in top:
        caz, cel = np.degrees(to_spherical(grid.directions[idx]))
        print(f"  class {idx}: az {caz:7.2f} el {cel:7.2f}  score {scores[idx]:.4f}")


def cmd_track(args):
    signal = read_wav(args.input)
    with np.errstate(invalid="ignore"):  # track refuses a non-finite truth by name
        truth = to_cartesian(np.radians(args.truth_azimuth),
                             np.radians(args.truth_elevation))
    if args.model:
        if signal.sample_rate != RenderConfig.sample_rate:
            raise ValueError(f"{args.input}: sample rate {signal.sample_rate} Hz; a model "
                             f"takes features rendered at {RenderConfig.sample_rate} Hz")
        net = load_model(args.model)
        predictor = net_window_predictor(net)
        frames, window = _feature_geometry(net.config)
    else:
        grid = build_grid(args.resolution)
        predictor = music_window_predictor(grid)
        frames, window = 25, MUSIC_WINDOW
    result = track(predictor, signal, truth, hop_frames=args.hop,
                   frames=frames, window=window)
    result.to_csv(args.out)
    if args.svg:
        svg_line_chart(args.svg, result.timestamps,
                       {"model" if args.model else "music": result.errors},
                       title="angular tracking error", x_label="time [s]",
                       y_label="error [deg]")
        print(f"curve written to {args.svg}")
    print(
        f"{len(result.errors)} predictions, mean error "
        f"{result.errors.mean():.2f} deg; track written to {args.out}"
    )
    return args.out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_propagation_flags(p):
    p.add_argument("--method", choices=("image", "trace"), default=RenderConfig.method)
    p.add_argument("--max-order", type=int, default=RenderConfig.max_order)
    p.add_argument("--rays", type=int, default=RenderConfig.n_rays)
    p.add_argument("--max-bounces", type=int, default=RenderConfig.max_bounces)
    p.add_argument("--receiver-radius", type=float, default=RenderConfig.receiver_radius)


def _add_training_flags(p):
    p.add_argument("--preset", choices=PRESETS, default="desk")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--resolution", type=float, default=10.0,
                   help="grid resolution for the categorical head")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ambidoa",
        description="Ambisonic DOA workbench: simulation, features, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="sample shoebox scenes (and optional SRIRs)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--absorption", type=float, default=None)
    p.add_argument("--scattering", type=float, default=None)
    _add_propagation_flags(p)
    p.add_argument("--ir-seconds", type=float, default=RenderConfig.ir_seconds)
    p.add_argument("--write-irs", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="render features from a scene manifest")
    p.add_argument("--scenes", required=True)
    _add_propagation_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=PRESETS, default="desk")
    p.add_argument("--speech-dir", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gridinfo", help="report sphere-grid statistics")
    p.add_argument("--resolution", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_gridinfo)

    p = sub.add_parser("train", help="train a DOA estimator")
    p.add_argument("--manifest", required=True)
    p.add_argument("--formulation", choices=FORMULATIONS, required=True)
    _add_training_flags(p)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="image-vs-trace training comparison")
    p.add_argument("--image-manifest", required=True)
    p.add_argument("--trace-manifest", required=True)
    p.add_argument("--formulations", nargs="+", choices=FORMULATIONS,
                   default=list(FORMULATIONS))
    _add_training_flags(p)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("music", help="MUSIC estimate for a 4-channel WAV")
    p.add_argument("--input", required=True)
    p.add_argument("--resolution", type=float, default=10.0)
    p.set_defaults(func=cmd_music)

    p = sub.add_parser("track", help="sliding-window tracking over a recording")
    p.add_argument("--input", required=True)
    p.add_argument("--model", default=None, help="model checkpoint; MUSIC if omitted")
    p.add_argument("--resolution", type=float, default=10.0)
    p.add_argument("--truth-azimuth", type=float, required=True)
    p.add_argument("--truth-elevation", type=float, required=True)
    p.add_argument("--hop", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.workers = _workers()  # a bad AMBIDOA_THREADS stops any command
        env = _environment(args.workers)
        written = args.func(args)
        if written is not None:
            _write_run_json(written, args, env)
    except Exception as exc:  # surface runtime failures as exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
