"""Command-line entry point wiring the pipeline:

    simulate -> render -> train -> eval -> compare; plus music, track, gridinfo.

Every subcommand derives all randomness from --seed and writes a run.json
capturing the resolved configuration next to its outputs. Exit codes: 0 on
success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

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
from .foa import encode_srir, read_wav, write_wav, direction_angles
from .geometry import COVERAGE_PROBES, build_grid, to_cartesian
from .music import WINDOW as MUSIC_WINDOW, music_estimate
from .plots import svg_line_chart

FORMULATIONS = ("categorical", "cartesian", "spherical")


def _workers():
    raw = os.environ.get("AMBIDOA_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"AMBIDOA_THREADS must be a positive integer, got {raw!r}")
    return workers


def _write_run_json(out_dir, subcommand, resolved):
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "subcommand": subcommand,
        "resolved": {k: v for k, v in resolved.items() if k != "func"},
        "version": __version__,
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="ascii") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _formulation(name, resolution):
    if name == "categorical":
        return Formulation("categorical", build_grid(resolution))
    return Formulation(name)


def _net_config(preset):
    return NetworkConfig.paper() if preset == "paper" else NetworkConfig.desk()


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
    _write_run_json(args.out, "simulate", vars(args))
    print(f"wrote {len(scenes)} scenes to {args.out}/scenes.json")
    return 0


def cmd_render(args):
    scenes = load_scenes(args.scenes)
    records = render_dataset(
        scenes,
        args.out,
        _render_config(args, window=args.window, frames=args.frames),
        seed=args.seed,
        speech_dir=args.speech_dir,
        allow_synthetic_speech=not args.no_synthetic_speech,
        workers=_workers(),
    )
    _write_run_json(args.out, "render", vars(args))
    print(f"rendered {len(records)} samples into {args.out}")
    return 0


def cmd_gridinfo(args):
    grid = build_grid(args.resolution)
    coverage = grid.coverage_radius_deg(seed=args.seed)
    print(f"resolution: {args.resolution} deg")
    print(f"classes: {len(grid)}")
    print(f"coverage radius over {COVERAGE_PROBES} probes: {coverage:.3f} deg")
    if args.csv:
        grid.to_csv(args.csv)
        print(f"class centers written to {args.csv}")
    return 0


def cmd_train(args):
    records = load_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    x, y = load_dataset(records, base)
    formulation = _formulation(args.formulation, args.resolution)
    cfg = TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
    )
    net, history = train(x, y, formulation, cfg, config=_net_config(args.preset))
    save_model(args.out, net)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    _write_run_json(out_dir, "train", vars(args))
    with open(args.out + ".history.json", "w", encoding="ascii") as f:
        json.dump(history, f, sort_keys=True)
        f.write("\n")
    last = history[-1]
    print(
        f"trained {args.formulation} ({param_count(net)} parameters): "
        f"train loss {last['train_loss']:.5f}"
        + (f", val error {last['val_error_deg']:.2f} deg" if "val_error_deg" in last else "")
    )
    return 0


def cmd_eval(args):
    net = load_model(args.model)
    records = load_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    x, y = load_dataset(records, base)
    errors = angular_error(predict(net, x), y)
    acc = tolerance_accuracy(errors)
    with open(args.report, "w", encoding="ascii") as f:
        f.write("scene_id,error_deg\n")
        for rec, e in zip(records, errors):
            f.write(f"{rec.scene_id},{e:.4f}\n")
    out_dir = os.path.dirname(os.path.abspath(args.report)) or "."
    _write_run_json(out_dir, "eval", vars(args))
    print(f"samples: {len(errors)}")
    print(f"mean error: {errors.mean():.2f} deg, median: {np.median(errors):.2f} deg")
    print(f"accuracy <5/<10/<15 deg: {acc[0]:.1f}% / {acc[1]:.1f}% / {acc[2]:.1f}%")
    print(f"per-sample errors written to {args.report}")
    return 0


def cmd_compare(args):
    records_image = load_manifest(args.image_manifest)
    records_trace = load_manifest(args.trace_manifest)
    dir_image = os.path.dirname(os.path.abspath(args.image_manifest))
    dir_trace = os.path.dirname(os.path.abspath(args.trace_manifest))
    formulations = [
        _formulation(name, args.resolution) for name in args.formulations
    ]
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed, batch_size=args.batch_size)
    rows = compare_methods(
        records_image, dir_image, records_trace, dir_trace, formulations, cfg,
        net_config=_net_config(args.preset),
    )
    print(comparison_table(rows))
    if args.report:
        comparison_csv(rows, args.report)
        out_dir = os.path.dirname(os.path.abspath(args.report)) or "."
        _write_run_json(out_dir, "compare", vars(args))
        print(f"report written to {args.report}")
    return 0


def cmd_music(args):
    signal = read_wav(args.input)
    grid = build_grid(args.resolution)
    direction, scores = music_estimate(signal, grid)
    az, el = direction_angles(direction)
    print(f"estimated azimuth {az:.2f} deg, elevation {el:.2f} deg")
    top = np.argsort(scores)[::-1][:5]
    print("top classes:")
    for idx in top:
        caz, cel = direction_angles(grid.directions[idx])
        print(f"  class {idx}: az {caz:7.2f} el {cel:7.2f}  score {scores[idx]:.4f}")
    return 0


def cmd_track(args):
    signal = read_wav(args.input)
    truth = to_cartesian(np.radians(args.truth_azimuth), np.radians(args.truth_elevation))
    if args.model:
        net = load_model(args.model)
        predictor = net_window_predictor(net)
        frames, window = net.config.frames, (net.config.freq_bins - 1) * 2
        label = "model"
    else:
        grid = build_grid(args.resolution)
        predictor = music_window_predictor(grid)
        frames, window = 25, MUSIC_WINDOW
        label = "music"
    result = track(predictor, signal, truth, hop_frames=args.hop,
                   frames=frames, window=window)
    result.to_csv(args.out)
    if args.svg:
        svg_line_chart(
            args.svg,
            result.timestamps,
            {label: result.errors},
            title="angular tracking error",
            x_label="time [s]",
            y_label="error [deg]",
        )
        print(f"curve written to {args.svg}")
    print(
        f"{len(result.errors)} predictions, mean error "
        f"{result.errors.mean():.2f} deg; track written to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_propagation_flags(p):
    p.add_argument("--method", choices=("image", "trace"), default=RenderConfig.method)
    p.add_argument("--max-order", type=int, default=RenderConfig.max_order)
    p.add_argument("--rays", type=int, default=RenderConfig.n_rays)
    p.add_argument("--max-bounces", type=int, default=RenderConfig.max_bounces)
    p.add_argument("--receiver-radius", type=float, default=RenderConfig.receiver_radius)


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
    p.add_argument("--window", type=int, default=RenderConfig.window)
    p.add_argument("--frames", type=int, default=RenderConfig.frames)
    p.add_argument("--speech-dir", default=None)
    p.add_argument("--no-synthetic-speech", action="store_true")
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
    p.add_argument("--preset", choices=("paper", "desk"), default="desk")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--resolution", type=float, default=10.0,
                   help="grid resolution for the categorical head")
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
    p.add_argument("--preset", choices=("paper", "desk"), default="desk")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--resolution", type=float, default=10.0)
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
        return args.func(args)
    except Exception as exc:  # surface runtime failures as exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
