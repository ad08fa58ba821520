"""Per-layer metrics derived from the spans of the traced rounds.

Only spans inside a traced ``bench.round`` count; set-up and checks are
stages of the wall time but not layer samples. A layer that a workload never
calls reads 0. Times are the median per call in ms unless the name says
otherwise; ratios are sums over calls (useful / attempted).
"""

from __future__ import annotations

import numpy as np

from .tracer import self_times

LAYERS = ("Conv2d", "BatchNorm2d", "MaxPoolFreq", "BiLSTM", "TimeDense")
PRESETS = ("desk", "paper")

UNITS = {
    "acoustics.image_source_paths.ms": "ms",
    "acoustics.trace_paths.ms": "ms",
    "acoustics.trace_paths.arrivals": "count",
    "acoustics.trace_paths.useful_arrival_ratio": "ratio",
    "foa.encode_srir.ms": "ms",
    "foa.encode_srir.samples": "count",
    "features.synthetic_speech.ms": "ms",
    "features.convolve_foa.ms": "ms",
    "features.noise.ms": "ms",
    "features.mix_noise.ms": "ms",
    "features.stft.ms": "ms",
    "features.intensity_features.ms": "ms",
    "features.write_features.ms": "ms",
    "features.read_features.ms": "ms",
    "features.rendered_sample_use_ratio": "ratio",
    **{f"nn.{p}.{layer}.{d}_ms": "ms"
       for p in PRESETS for layer in LAYERS for d in ("forward", "backward")},
    **{f"nn.{p}.Conv2d.forward_gflops": "GFLOP/s" for p in PRESETS},
    **{f"estimator.{p}.{m}": "ms" for p in PRESETS for m in ("step_ms", "optimizer_ms")},
    "estimator.predict_sample.ms": "ms",
    "estimator.predict_window.ms": "ms",
    "estimator.predict_window.frame_use_ratio": "ratio",
    "estimator.load_model.ms": "ms",
    "music.spatial_covariance.ms": "ms",
    "music.music_spectrum.ms": "ms",
    "music.music_spectrum.bins": "count",
    "evaluate.render_dataset.ms_per_sample": "ms",
    "evaluate.load_dataset.ms_per_sample": "ms",
    "evaluate.track.self_ms": "ms",
    "trace.overhead_pct": "%",
}
# the rate of each stage of a round (untraced rounds), named as in the README
STAGE_UNITS = {
    "render_samples_per_s": "samples/s",
    "train_desk_samples_per_s": "samples/s",
    "train_paper_samples_per_s": "samples/s",
    "desk_val_error_deg": "deg",
    "eval_samples_per_s": "samples/s",
    "track_model_windows_per_s": "windows/s",
    "track_music_windows_per_s": "windows/s",
}
UNITS.update({f"stage.{k}": unit for k, unit in STAGE_UNITS.items()})


class _Index:
    """Spans of the traced rounds, each tagged with its preset and with the
    training step or forward pass it belongs to."""

    def __init__(self, spans):
        n = len(spans)
        self.spans = spans
        self.self_s = self_times(spans)
        in_round = [False] * n
        preset = [None] * n
        step = [None] * n
        fwd = [None] * n
        for sid, up, name, _, _, fields in spans:  # parents precede children
            if up is None:
                in_round[sid] = name == "bench.round" and fields.get("traced", False)
                preset[sid] = fields.get("preset")
                continue
            in_round[sid] = in_round[up]
            preset[sid] = fields.get("preset") or preset[up]
            step[sid] = sid if name == "estimator.step" else step[up]
            fwd[sid] = sid if name == "estimator.forward" else fwd[up]
        self.preset, self.step, self.fwd = preset, step, fwd
        self.by_name = {}
        for sid, _, name, _, _, _ in spans:
            if in_round[sid]:
                self.by_name.setdefault(name, []).append(sid)

    def ids(self, name, where=None):
        return [s for s in self.by_name.get(name, []) if where is None or where(s)]

    def dur(self, sid):
        return self.spans[sid][4] - self.spans[sid][3]

    def field(self, sid, key):
        return self.spans[sid][5][key]

    def parent_name(self, sid):
        parent = self.spans[sid][1]
        return None if parent is None else self.spans[parent][2]


def _median_ms(ix, ids):
    return float(np.median([ix.dur(s) for s in ids])) * 1e3 if ids else 0.0


def _ratio(ix, ids, num, den):
    total = sum(ix.field(s, den) for s in ids)
    return sum(ix.field(s, num) for s in ids) / total if total else 0.0


def _median_field(ix, ids, key):
    return float(np.median([ix.field(s, key) for s in ids])) if ids else 0.0


def _nn(ix, out, preset):
    """Per-batch layer times summed over a layer's instances: per training
    step where the workload trains, else per forward pass (inference)."""
    steps = ix.ids("estimator.step", lambda s: ix.preset[s] == preset)
    if steps:
        group, passes = ix.step, steps
    else:
        passes = ix.ids("estimator.forward", lambda s: ix.preset[s] == preset)
        group = ix.fwd
    members = set(passes)
    for layer in LAYERS:
        for direction in ("forward", "backward"):
            per_pass = dict.fromkeys(passes, 0.0)
            ids = ix.ids(f"nn.{layer}.{direction}", lambda s: group[s] in members)
            for s in ids:
                per_pass[group[s]] += ix.dur(s)
            value = float(np.median(list(per_pass.values()))) * 1e3 if ids else 0.0
            out[f"nn.{preset}.{layer}.{direction}_ms"] = value
            if layer == "Conv2d" and direction == "forward":
                seconds = sum(ix.dur(s) for s in ids)
                flops = sum(ix.field(s, "flops") for s in ids)
                out[f"nn.{preset}.Conv2d.forward_gflops"] = flops / seconds / 1e9 if ids else 0.0
    trains = ix.ids("estimator.train", lambda s: ix.preset[s] == preset)
    out[f"estimator.{preset}.step_ms"] = _median_ms(ix, steps)
    out[f"estimator.{preset}.optimizer_ms"] = (
        sum(ix.self_s[s] for s in trains) / len(steps) * 1e3 if steps else 0.0)


def per_layer(spans, overhead_pct, stage_metrics):
    """Every per-layer metric; ``stage_metrics`` are the workload's stage
    rates, and a stage the workload does not run reads 0."""
    ix = _Index(spans)
    out = {}
    for name in ("acoustics.image_source_paths", "acoustics.trace_paths",
                 "foa.encode_srir", "features.synthetic_speech", "features.convolve_foa",
                 "features.mix_noise", "features.stft", "features.intensity_features",
                 "features.write_features", "features.read_features",
                 "estimator.predict_window", "estimator.load_model",
                 "music.spatial_covariance", "music.music_spectrum"):
        out[f"{name}.ms"] = _median_ms(ix, ix.ids(name))
    # speech-shaped (12 streams) and babble (72 streams) noise are drawn half
    # and half, so the per-call median would jump between the two; use the mean
    noise = ix.ids("features.noise")
    out["features.noise.ms"] = (
        float(np.mean([ix.dur(s) for s in noise])) * 1e3 if noise else 0.0)
    traces = ix.ids("acoustics.trace_paths")
    out["acoustics.trace_paths.arrivals"] = _median_field(ix, traces, "arrivals")
    out["acoustics.trace_paths.useful_arrival_ratio"] = _ratio(ix, traces, "useful", "arrivals")
    out["foa.encode_srir.samples"] = _median_field(ix, ix.ids("foa.encode_srir"), "samples")
    render_stft = ix.ids("features.stft",
                         lambda s: ix.parent_name(s) == "evaluate.render_dataset")
    out["features.rendered_sample_use_ratio"] = _ratio(ix, render_stft, "read", "rendered")
    for preset in PRESETS:
        _nn(ix, out, preset)
    out["estimator.predict_sample.ms"] = _median_ms(ix, ix.ids(
        "estimator.predict_sample",
        lambda s: ix.parent_name(s) != "estimator.predict_window"))
    out["estimator.predict_window.frame_use_ratio"] = _ratio(
        ix, ix.ids("estimator.predict_window"), "read", "featurised")
    out["music.music_spectrum.bins"] = _median_field(ix, ix.ids("music.music_spectrum"), "bins")
    for name, key in (("evaluate.render_dataset", "samples"),
                      ("evaluate.load_dataset", "samples")):
        ids = ix.ids(name)
        count = sum(ix.field(s, key) for s in ids)
        out[f"{name}.ms_per_sample"] = sum(ix.dur(s) for s in ids) / count * 1e3 if count else 0.0
    tracks = ix.ids("evaluate.track")
    windows = sum(ix.field(s, "windows") for s in tracks)
    out["evaluate.track.self_ms"] = (
        sum(ix.self_s[s] for s in tracks) / windows * 1e3 if windows else 0.0)
    out["trace.overhead_pct"] = overhead_pct
    for k in STAGE_UNITS:
        out[f"stage.{k}"] = stage_metrics.get(k, 0.0)
    return {k: {"value": out[k], "unit": unit} for k, unit in UNITS.items()}


def self_ms_by_name(spans):
    """Total self time per span name over the traced rounds, in ms: the
    stage-by-stage account of where a round's wall time went."""
    ix = _Index(spans)
    totals = {}
    for name, ids in ix.by_name.items():
        totals[name] = sum(ix.self_s[s] for s in ids) * 1e3
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
