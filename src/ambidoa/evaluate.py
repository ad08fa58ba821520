"""Dataset rendering, angular metrics, sliding-window tracking, and the
image-vs-trace training-data comparison.

Rendering follows the synthetic pipeline end to end: propagate a scene,
encode the arrival set as an FOA impulse response, convolve with a one-second
speech clip, add speech-shaped or babble noise at an SNR drawn from
Normal(15 dB, 1 dB), then extract intensity features from the first frames of
the STFT. The ground-truth label is always the direct-path direction from the
listener to the source, reverberation notwithstanding.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .acoustics import _check_count, image_source_paths, trace_paths
from .estimator import (NetworkConfig, TrainConfig, _is_finite, decode_outputs,
                        predict, train)
from .features import (
    babble_noise,
    convolve_foa,
    intensity_features,
    mix_noise,
    read_features,
    sample_snr,
    speech_shaped_noise,
    stft,
    synthetic_speech,
    write_features,
)
from .foa import encode_srir, read_pcm
from .geometry import great_circle, to_cartesian, to_spherical

__all__ = [
    "RenderConfig",
    "SampleRecord",
    "TrackResult",
    "sample_rng",
    "propagate",
    "check_receiver_clearance",
    "render_dataset",
    "load_manifest",
    "load_dataset",
    "angular_error",
    "tolerance_accuracy",
    "track",
    "compare_methods",
]

THRESHOLDS_DEG = (5.0, 10.0, 15.0)  # tolerance-accuracy columns of every report
TEST_FRACTION = 0.2  # held-out share of the scenes in compare_methods


@dataclass(frozen=True)
class RenderConfig:
    """Controls one rendering run; ``method`` picks the propagation model."""

    method: str = "image"  # "image" | "trace"
    sample_rate: int = 16000
    window: int = 256
    frames: int = 25
    max_order: int = 3
    n_rays: int = 20000
    max_bounces: int = 40
    receiver_radius: float = 0.3
    ir_seconds: float = 1.0

    def __post_init__(self):
        if self.method not in ("image", "trace"):
            raise ValueError(f"unknown render method {self.method!r}")
        for name, least in (("sample_rate", 1), ("window", 2), ("frames", 1),
                            ("max_order", 0), ("n_rays", 1), ("max_bounces", 0)):
            _check_count(name, getattr(self, name), least)
        for name in ("receiver_radius", "ir_seconds"):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not _is_finite(self.ir_seconds * self.sample_rate) or self.ir_length < 1:
            raise ValueError(f"ir_seconds {self.ir_seconds} at {self.sample_rate} Hz must "
                             "give a finite buffer of at least one sample")

    @property
    def ir_length(self):
        """Impulse-response buffer length in samples."""
        return int(round(self.ir_seconds * self.sample_rate))

    @property
    def feature_span(self):
        """The features read samples [0, feature_span) of a rendered sample."""
        return (self.frames - 1) * (self.window // 2) + self.window


@dataclass(frozen=True)
class SampleRecord:
    features_path: str
    label: np.ndarray  # unit 3-vector, listener toward source
    scene_id: int
    snr_db: float
    method: str

    def to_json(self):
        az, el = to_spherical(self.label)
        return json.dumps(
            {
                "features_path": self.features_path,
                "azimuth_deg": round(float(np.degrees(az)), 10),
                "elevation_deg": round(float(np.degrees(el)), 10),
                "scene_id": self.scene_id,
                "snr_db": round(float(self.snr_db), 10),
                "method": self.method,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(line):
        d = json.loads(line)
        for key in ("azimuth_deg", "elevation_deg", "snr_db"):
            if not _is_finite(d[key]):
                raise ValueError(f"{key} must be a finite number, got {d[key]!r}")
        _check_count("scene_id", d["scene_id"], 0)
        if not isinstance(d["features_path"], str):
            raise ValueError(f"features_path must be a string, got {d['features_path']!r}")
        if d["method"] not in ("image", "trace"):
            raise ValueError(f"method must be 'image' or 'trace', got {d['method']!r}")
        label = to_cartesian(
            np.radians(d["azimuth_deg"]), np.radians(d["elevation_deg"])
        )
        return SampleRecord(
            features_path=d["features_path"],
            label=label,
            scene_id=d["scene_id"],
            snr_db=float(d["snr_db"]),
            method=d["method"],
        )


def sample_rng(seed, i):
    """Generator of sample ``i`` of a run; it depends on (seed, i) only, so no
    result depends on worker scheduling or on the command that renders it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def propagate(scene, cfg: RenderConfig, rng, max_delay=np.inf):
    """Arrivals of one sample with delay below ``max_delay`` seconds (the tracer
    stops there) that round, as in :func:`encode_srir`, to a sample inside the
    ``cfg.ir_length`` buffer. The tracer seed is always the first draw from
    ``rng``, the sample's generator, whatever the method."""
    trace_seed = int(rng.integers(1 << 62))
    if cfg.method == "image":
        paths = image_source_paths(scene, cfg.max_order)
    else:
        paths = trace_paths(
            scene,
            n_rays=cfg.n_rays,
            max_bounces=cfg.max_bounces,
            receiver_radius=cfg.receiver_radius,
            rng_seed=trace_seed,
            max_delay=max_delay,
        )
    # arrivals come sorted by delay, so the ones kept are a prefix
    count = np.count_nonzero((np.rint(paths.delays * cfg.sample_rate) < cfg.ir_length)
                             & (paths.delays < max_delay))
    return paths.select(slice(0, count))


def check_receiver_clearance(scenes, cfg: RenderConfig):
    """Refuse, before any scene is traced, every scene whose smallest room
    dimension is not above four receiver radii or whose source lies inside the
    tracer's receiver sphere, naming each with that dimension or distance."""
    if cfg.method != "trace":
        return
    small = [f"{i} ({s.room.dims.min():.3f} m)" for i, s in enumerate(scenes)
             if not cfg.receiver_radius < s.room.dims.min() / 4.0]
    if small:
        raise ValueError(f"receiver_radius {cfg.receiver_radius} m is not below a quarter"
                         f" of the smallest room dimension in scene {', '.join(small)}")
    distances = [float(np.linalg.norm(s.source - s.listener)) for s in scenes]
    close = [f"{i} ({d:.3f} m)" for i, d in enumerate(distances)
             if d <= cfg.receiver_radius]
    if close:
        raise ValueError(f"source inside the {cfg.receiver_radius} m receiver sphere "
                         f"in scene {', '.join(close)}")


def _speech_clips(speech_dir, sample_rate):
    if speech_dir is None:
        return None
    paths = sorted(
        os.path.join(speech_dir, f)
        for f in os.listdir(speech_dir)
        if f.lower().endswith(".wav")
    )
    if not paths:
        raise ValueError(f"no WAV files found in {speech_dir}")
    clips = []
    for p in paths:
        rate, data = read_pcm(p)
        if rate != sample_rate:
            raise ValueError(f"{p}: sample rate {rate} != {sample_rate}")
        clips.append(data[:, 0] if data.ndim > 1 else data)
    return clips


def _render_one(i, scene, cfg: RenderConfig, root_entropy, clips, out_dir):
    """Render one sample from its own generator, ``sample_rng(root, i)``."""
    rng = sample_rng(root_entropy, i)
    fs = cfg.sample_rate
    clip_len = fs  # the one-second speech clip
    ir = encode_srir(propagate(scene, cfg, rng, cfg.feature_span / fs), fs, cfg.ir_length)

    if clips is None:
        dry = synthetic_speech(clip_len, seed=int(rng.integers(1 << 62)), sample_rate=fs)
    else:
        clip = clips[int(rng.integers(len(clips)))]
        if clip.size < clip_len:
            reps = -(-clip_len // clip.size)
            clip = np.tile(clip, reps)
        start = int(rng.integers(max(clip.size - clip_len, 0) + 1))
        dry = clip[start : start + clip_len]

    wet = convolve_foa(dry, ir)
    noise_seed = int(rng.integers(1 << 62))
    noise_len = wet.channels.shape[1]
    if rng.uniform() < 0.5:
        noise = speech_shaped_noise(noise_len, noise_seed, fs)
    else:
        noise = babble_noise(noise_len, noise_seed, fs)
    snr = sample_snr(rng)
    noisy = mix_noise(wet, noise, snr)

    spec = stft(noisy, frames=cfg.frames, window=cfg.window)
    feats = intensity_features(spec)
    rel = f"sample_{i:06d}.adoa"
    write_features(os.path.join(out_dir, rel), feats)

    offset = scene.source - scene.listener
    label = offset / np.linalg.norm(offset)
    return SampleRecord(
        features_path=rel,
        label=label,
        scene_id=i,
        snr_db=snr,
        method=cfg.method,
    )


def render_dataset(scenes, out_dir, cfg: RenderConfig, seed=0, speech_dir=None,
                   workers=1):
    """Render every scene into a feature file plus a JSON-lines manifest.

    Speech comes from ``speech_dir`` (mono 16 kHz WAVs) when given; otherwise
    a synthetic speech-like burst signal stands in. Samples
    are independent and seeded per index, so ``workers > 1`` changes nothing
    but wall time. Returns the record list; the manifest is written to
    out_dir/manifest.jsonl.
    """
    _check_count("workers", workers, 1)
    check_receiver_clearance(scenes, cfg)
    clips = _speech_clips(speech_dir, cfg.sample_rate)
    os.makedirs(out_dir, exist_ok=True)
    root_entropy = np.random.SeedSequence(seed).entropy
    render = partial(_render_one, cfg=cfg, root_entropy=root_entropy, clips=clips,
                     out_dir=out_dir)
    if workers == 1:
        # in the calling thread: a pool thread renders into its own glibc malloc
        # arena, which kept up to 50 MB more resident on traced renders
        records = list(map(render, range(len(scenes)), scenes))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(render, range(len(scenes)), scenes))
    with open(os.path.join(out_dir, "manifest.jsonl"), "w", encoding="ascii") as f:
        for rec in records:
            f.write(rec.to_json())
            f.write("\n")
    return records


def load_manifest(path):
    """Records of a JSON-lines manifest; errors name the file and line number."""
    records = []
    with open(path, "r", encoding="ascii") as f:
        for number, line in enumerate(f, 1):
            try:
                if line.strip():
                    records.append(SampleRecord.from_json(line))
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}: line {number}: {reason}") from exc
    return records


def load_dataset(records, base_dir):
    """Stack feature tensors and labels from manifest records, whose feature
    paths are relative to ``base_dir``; an empty record list is refused."""
    if not records:
        raise ValueError(f"no manifest records to load features from {base_dir}")
    feats, labels = [], []
    for rec in records:
        feats.append(read_features(os.path.join(base_dir, rec.features_path)).values)
        labels.append(rec.label)
    return np.stack(feats), np.stack(labels)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def angular_error(pred, truth):
    """Great-circle distance in degrees between unit directions (or stacks)."""
    return np.degrees(great_circle(pred, truth))


def tolerance_accuracy(errors):
    """Percentage of errors strictly below each of ``THRESHOLDS_DEG``."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("tolerance accuracy of an empty error list")
    return tuple(100.0 * float(np.mean(errors < th)) for th in THRESHOLDS_DEG)


# ---------------------------------------------------------------------------
# sliding-window tracking
# ---------------------------------------------------------------------------

@dataclass
class TrackResult:
    timestamps: np.ndarray  # seconds, center-frame times
    predictions: np.ndarray  # (n, 3) unit vectors
    errors: np.ndarray  # degrees

    def __post_init__(self):
        if not (len(self.timestamps) == len(self.predictions) == len(self.errors)):
            raise ValueError("track arrays must share a length")
        if not np.all((self.errors >= 0.0) & (self.errors <= 180.0)):
            raise ValueError("angular errors must lie in [0, 180] degrees")

    def to_csv(self, path):
        with open(path, "w", encoding="ascii") as f:
            f.write("time_s,azimuth_deg,elevation_deg,error_deg\n")
            for t, p, e in zip(self.timestamps, self.predictions, self.errors):
                az, el = to_spherical(p)
                f.write(
                    f"{t:.6f},{np.degrees(az):.4f},{np.degrees(el):.4f},{e:.4f}\n"
                )


def track(window_predictor, signal, truth, hop_frames, frames=25, window=1024):
    """Slide a ``frames``-long window over the signal's STFT, ``hop_frames``
    frames at a time. ``window_predictor(spec, frames, hop_frames)`` gets the
    whole recording's spectrogram and returns one unit direction per window,
    for windows starting at frames 0, ``hop_frames``, 2 * ``hop_frames``, ...;
    timestamps mark each window's center-frame time."""
    for name, value, least in (("hop_frames", hop_frames, 1), ("frames", frames, 1),
                               ("window", window, 2)):
        _check_count(name, value, least)
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != (3,) or not (np.isfinite(truth).all() and truth.any()):
        raise ValueError(f"truth must be a finite, nonzero 3-vector, got {truth}")
    hop = window // 2
    total_frames = (signal.channels.shape[1] - window) // hop + 1
    if total_frames < frames:
        raise ValueError(
            f"signal holds {total_frames} frames; need at least {frames}"
        )
    spec = stft(signal, frames=total_frames, window=window)
    starts = np.arange(0, total_frames - frames + 1, hop_frames)
    preds = window_predictor(spec, frames, hop_frames)
    errors = angular_error(preds, np.broadcast_to(truth, preds.shape))
    return TrackResult(
        timestamps=((starts + frames // 2) * hop + window / 2) / signal.sample_rate,
        predictions=preds,
        errors=errors,
    )


def _window_outputs(net, feats, hop_frames):
    """Inference-mode per-frame outputs (n, frames, d) of the windows
    ``feats[:, s : s + frames]``, s = 0, ``hop_frames``, ..., of a recording's
    features (6, total, bins), without running every window through the trunk.

    In inference mode only the trunk's L 3x3 convolutions mix frames, one
    either side each, so frame p of a window sees the window's zero padding
    only when p < L or p >= frames - L: an interior frame has the same trunk
    output in every window that holds it. Every m-th window, m = max(1,
    (frames - 2L) // hop_frames), and the last run whole, and their interiors
    cover all others'. The others take their first and last L frames from
    2L-frame pieces ``feats[:, u : u + 2L]``, one per u, each serving the left
    edge of window u and the right edge of window u - (frames - 2L). The
    head runs on the passes :func:`predict` makes, as BiLSTM GEMMs of other
    row counts can change bits, and only the trunk outputs that a later pass
    reads outlive a pass. OpenBLAS computes a GEMM's last columns with kernels
    picked by its width, so an edge frame from a piece can differ from the
    whole window's in the last bits: predictions equal :func:`predict`'s at
    the desk preset and lie within a few ulp of them at the paper preset.
    """
    cfg = net.config
    frames, edge = cfg.frames, len(cfg.conv_channels)
    inner = frames - 2 * edge
    n = (feats.shape[1] - frames) // hop_frames + 1
    m = max(1, inner // hop_frames)
    trunk = {}  # (start, length) -> trunk output (length, flat_width)

    def run_trunk(starts, length):
        todo = [s for s in dict.fromkeys(starts) if (s, length) not in trunk]
        if todo:
            trunk.update(zip([(s, length) for s in todo],
                             net.trunk(np.stack([feats[:, s : s + length] for s in todo]))))

    def window(k):
        s, j = k * hop_frames, k // m * m
        if k == j or k == n - 1:
            return trunk[s, frames]
        d, e = s - j * hop_frames, min(j + m, n - 1) * hop_frames - s
        lo, hi = trunk[s - d, frames], trunk[s + e, frames]  # the whole windows either side
        return np.concatenate([trunk[s, 2 * edge][:edge],
                               lo[edge + d : frames - edge],
                               hi[frames - edge - d - e : frames - edge - e],
                               trunk[s + inner, 2 * edge][edge:]])

    per, outputs = net.head_pass(frames), []
    for a in range(0, n, per):
        ks = range(a, min(a + per, n))
        run_trunk([min(j, n - 1) * hop_frames for j in range(a // m * m, ks[-1] + m, m)],
                  frames)
        run_trunk([k * hop_frames + d for k in ks if k % m and k != n - 1
                   for d in (0, inner)], 2 * edge)
        outputs.append(net.head(np.stack([window(k) for k in ks])))
        # no later window reads a start before the next pass's first whole window
        trunk = {sl: y for sl, y in trunk.items() if sl[0] >= ks.stop // m * m * hop_frames}
    return np.concatenate(outputs)


def net_window_predictor(net):
    """Featurise the recording once and run its windows through the network,
    only every few of them whole through the conv trunk
    (:func:`_window_outputs`). Intensity features are
    pointwise per time-frequency bin, so each window of the whole-recording
    features holds the bits of that window featurised alone."""

    def predictor(spec, frames, hop_frames):
        for name, got in (("frames", frames), ("freq_bins", spec.bins.shape[2])):
            if got != getattr(net.config, name):
                raise ValueError(f"{name} is {got}; the model takes "
                                 f"config.{name} = {getattr(net.config, name)}")
        feats = intensity_features(spec).values  # (6, total_frames, bins)
        return decode_outputs(_window_outputs(net, feats, hop_frames), net.formulation)

    return predictor


def music_window_predictor(grid):
    """The MUSIC peak of each window (:func:`ambidoa.music.window_spectra`)."""
    from .music import window_spectra

    def predictor(spec, frames, hop_frames):
        return grid.directions[[np.argmax(scores) for scores
                                in window_spectra(spec, grid, frames, hop_frames)]]

    return predictor


# ---------------------------------------------------------------------------
# image-vs-trace comparison protocol
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    method: str
    formulation: str
    mean_error_deg: float
    accuracies: tuple
    improvement_pct: float | None = None


def compare_methods(records_image, dir_image, records_trace, dir_trace,
                    formulations, train_cfg: TrainConfig,
                    net_config: NetworkConfig = None):
    """Train per (propagation method x formulation) and evaluate all models on
    the shared held-out scenes from the trace renders.

    Both manifests must describe the same scenes in the same order (labels and
    scene ids must match); the held-out rows then form a matched test set.
    The improvement column is the percent reduction in mean error of the
    trace-trained model relative to the image-trained one per formulation.
    """
    if len(records_image) != len(records_trace):
        raise ValueError("manifests differ in length; test sets cannot match")
    for a, b in zip(records_image, records_trace):
        if a.scene_id != b.scene_id or not np.allclose(a.label, b.label, atol=1e-9):
            raise ValueError(
                f"scene {a.scene_id}: labels differ between manifests; "
                "test sets cannot match"
            )
    net_config = net_config or NetworkConfig.desk()

    order = np.random.default_rng(train_cfg.seed).permutation(len(records_trace))
    n_test = max(1, int(round(len(records_trace) * TEST_FRACTION)))
    test, train_ = order[:n_test], order[n_test:]
    x_test, y_test = load_dataset([records_trace[i] for i in test], dir_trace)

    rows = []
    for method, recs, base in (
        ("image", records_image, dir_image),
        ("trace", records_trace, dir_trace),
    ):
        x_train, y_train = load_dataset([recs[i] for i in train_], base)
        for formulation in formulations:
            net, _ = train(x_train, y_train, formulation, train_cfg,
                           config=net_config)
            errs = angular_error(predict(net, x_test), y_test)
            rows.append(
                ComparisonRow(
                    method=method,
                    formulation=formulation.kind,
                    mean_error_deg=float(errs.mean()),
                    accuracies=tolerance_accuracy(errs),
                )
            )
    n = len(formulations)
    for base, row in zip(rows[:n], rows[n:]):  # image rows come first, in the same order
        if base.mean_error_deg > 0:
            row.improvement_pct = 100.0 * (
                base.mean_error_deg - row.mean_error_deg
            ) / base.mean_error_deg
        else:
            row.improvement_pct = 0.0
    return rows


def comparison_csv(rows, path):
    with open(path, "w", encoding="ascii") as f:
        f.write("method,formulation,mean_error_deg,acc5,acc10,acc15,improvement_pct\n")
        for r in rows:
            imp = "" if r.improvement_pct is None else f"{r.improvement_pct:.2f}"
            a5, a10, a15 = r.accuracies
            f.write(
                f"{r.method},{r.formulation},{r.mean_error_deg:.4f},"
                f"{a5:.2f},{a10:.2f},{a15:.2f},{imp}\n"
            )


def comparison_table(rows):
    lines = [
        f"{'method':<8} {'formulation':<12} {'mean err':>9} "
        f"{'<5deg':>7} {'<10deg':>7} {'<15deg':>7} {'improv':>7}"
    ]
    for r in rows:
        imp = "-" if r.improvement_pct is None else f"{r.improvement_pct:+.1f}%"
        a5, a10, a15 = r.accuracies
        lines.append(
            f"{r.method:<8} {r.formulation:<12} {r.mean_error_deg:>8.2f}deg "
            f"{a5:>6.1f}% {a10:>6.1f}% {a15:>6.1f}% {imp:>7}"
        )
    return "\n".join(lines)
