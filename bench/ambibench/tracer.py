"""In-memory span recorder and the wrappers that put spans around ambidoa calls.

A span is (id, parent, name, start, end, fields). Spans are kept in a list
while the benchmark runs and written as JSON lines when it ends. The wrappers
replace a public function or layer method at the name its caller looks up
(for example ``ambidoa.evaluate.stft``, which is what ``render_dataset`` and
``track`` call), so no file under ``src/`` changes. A wrapper records only
while ``Tracer.active`` is true; the untraced runs install no wrapper at all.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, fields]
        self.active = False
        self._stack = []
        self._originals = []
        self._t0 = time.perf_counter()

    def _open(self, name, fields):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter() - self._t0, None, fields])
        self._stack.append(sid)
        return self.spans[sid]

    def _close(self, span):
        span[4] = time.perf_counter() - self._t0
        self._stack.pop()

    @contextmanager
    def span(self, name, **fields):
        """A benchmark stage; recorded whether or not the wrappers are active."""
        span = self._open(name, fields)
        try:
            yield span[5]
        finally:
            self._close(span)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``count(args, kwargs, result)`` may return extra span fields (sizes,
        arrival counts); it runs after the span closes, so its own cost is not
        charged to the wrapped call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer._open(name, {})
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span[5].update(count(args, kwargs, result))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as f:
            for sid, parent, name, start, end, fields in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end, **fields}))
                f.write("\n")


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover
    (children never overlap: everything runs on one thread)."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, _, start, end, _ in spans]


def install(tracer, feature_span_s):
    """Wrap every call the per-layer metrics are derived from.

    ``feature_span_s`` is the length of the rendered signal the features
    read, ((frames - 1) * hop + window) / sample_rate; an arrival later than
    that cannot reach any feature and is counted as not useful.
    """
    from ambidoa import estimator, evaluate, music, nn

    def arrivals(args, kwargs, paths):
        return {"arrivals": len(paths),
                "useful": int((paths.delays < feature_span_s).sum())}

    def ir_samples(args, kwargs, ir):
        return {"samples": ir.channels.shape[1]}

    def stft_reads(args, kwargs, spec):
        window = kwargs.get("window", args[2] if len(args) > 2 else 1024)
        frames = kwargs.get("frames", args[1] if len(args) > 1 else None)
        return {"read": (frames - 1) * (window // 2) + window,
                "rendered": args[0].channels.shape[1]}

    def window_frames(args, kwargs, _):
        net, spec = args[0], args[1]
        return {"read": net.config.frames, "featurised": spec.n_frames}

    def conv_flops(args, kwargs, _):
        layer, x = args[0], args[1]
        b, c, t, f = x.shape
        return {"flops": 2 * b * layer.c_out * c * 9 * t * f}

    def bins(args, kwargs, _):
        return {"bins": len(args[0].matrices)}

    def records(args, kwargs, result):
        return {"samples": len(result)}

    def loaded(args, kwargs, result):
        return {"samples": len(result[0])}

    def windows(args, kwargs, result):
        return {"windows": len(result.predictions)}

    wraps = [
        (evaluate, "image_source_paths", "acoustics.image_source_paths", None),
        (evaluate, "trace_paths", "acoustics.trace_paths", arrivals),
        (evaluate, "encode_srir", "foa.encode_srir", ir_samples),
        (evaluate, "synthetic_speech", "features.synthetic_speech", None),
        (evaluate, "convolve_foa", "features.convolve_foa", None),
        (evaluate, "speech_shaped_noise", "features.noise", None),
        (evaluate, "babble_noise", "features.noise", None),
        (evaluate, "mix_noise", "features.mix_noise", None),
        (evaluate, "stft", "features.stft", stft_reads),
        (evaluate, "intensity_features", "features.intensity_features", None),
        (estimator, "intensity_features", "features.intensity_features", None),
        (evaluate, "write_features", "features.write_features", None),
        (evaluate, "read_features", "features.read_features", None),
        (evaluate, "render_dataset", "evaluate.render_dataset", records),
        (evaluate, "load_dataset", "evaluate.load_dataset", loaded),
        (evaluate, "track", "evaluate.track", windows),
        (estimator, "train", "estimator.train", None),
        (estimator, "backward", "estimator.step", None),
        (estimator.Network, "forward", "estimator.forward", None),
        (estimator, "predict_sample", "estimator.predict_sample", None),
        (estimator, "predict_window", "estimator.predict_window", window_frames),
        (estimator, "load_model", "estimator.load_model", None),
        (music, "spatial_covariance", "music.spatial_covariance", None),
        (music, "music_spectrum", "music.music_spectrum", bins),
    ]
    for layer in ("Conv2d", "BatchNorm2d", "MaxPoolFreq", "BiLSTM", "TimeDense"):
        cls = getattr(nn, layer)
        wraps.append((cls, "forward", f"nn.{layer}.forward",
                      conv_flops if layer == "Conv2d" else None))
        wraps.append((cls, "backward", f"nn.{layer}.backward", None))
    for owner, attr, name, count in wraps:
        tracer.wrap(owner, attr, name, count)
