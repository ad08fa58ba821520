"""Trainable DOA estimator with three interchangeable output heads.

One convolutional-recurrent trunk (conv/ReLU/batch-norm/max-pool stages, a
two-layer bidirectional LSTM, and a shared per-frame dense layer) feeds a
formulation-specific head:

* categorical - one logit per sphere-grid class, sigmoid binary cross-entropy
* cartesian   - unconstrained 3-vector, mean squared error against the unit label
* spherical   - (azimuth, elevation) pair, haversine distance loss

Trunk parameters are drawn before head parameters from one seeded generator,
so the three formulations share bit-identical initial trunks.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from .features import intensity_features
from .geometry import (
    SphereGrid,
    great_circle,
    nearest_class,
    to_cartesian,
    to_spherical,
)

__all__ = [
    "Formulation",
    "NetworkConfig",
    "TrainConfig",
    "Network",
    "build_network",
    "loss_categorical",
    "loss_cartesian",
    "loss_haversine",
    "backward",
    "grad_check",
    "train",
    "predict",
    "predict_window",
    "predict_sample",
    "param_count",
    "save_model",
    "load_model",
    "TrainingDiverged",
]

HAVERSINE_CLAMP = 1e-12
GRAD_CHECK_STEP = 1e-4
CLIP_NORM = 5.0  # global gradient-norm ceiling of every optimizer step
PREDICT_ELEMENTS = 1 << 18  # input elements per inference forward pass
MODEL_MAGIC = b"ADOM"
MODEL_VERSION = 1


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class Formulation:
    """Output-head selector; ``grid`` is required for the categorical kind."""

    kind: str  # "categorical" | "cartesian" | "spherical"
    grid: SphereGrid | None = None

    def __post_init__(self):
        if self.kind not in ("categorical", "cartesian", "spherical"):
            raise ValueError(f"unknown formulation kind {self.kind!r}")
        if self.kind == "categorical" and self.grid is None:
            raise ValueError("categorical formulation needs a sphere grid")

    @property
    def out_dim(self):
        if self.kind == "categorical":
            return len(self.grid)
        return 3 if self.kind == "cartesian" else 2


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class NetworkConfig:
    """Topology knobs. ``conv_channels[i]`` and ``pool_factors[i]`` describe
    conv stage i (3x3 conv, ReLU, batch norm, frequency max-pool)."""

    conv_channels: tuple = (64, 64, 64)
    pool_factors: tuple = (8, 8, 4)
    hidden: int = 64
    lstm_layers: int = 2
    fc_width: int = 128
    frames: int = 25
    freq_bins: int = 513

    def __post_init__(self):
        for name in ("hidden", "lstm_layers", "fc_width", "frames", "freq_bins"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("hidden", "fc_width", "frames", "freq_bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lstm_layers < 0:
            raise ValueError(f"lstm_layers must be >= 0, got {self.lstm_layers}")
        for name in ("conv_channels", "pool_factors"):
            values = getattr(self, name)
            if not isinstance(values, tuple) or not all(_is_int(v) for v in values):
                raise ValueError(f"{name} must be a tuple of integers, got {values!r}")
            if not values or min(values) < 1:
                raise ValueError(f"{name} must hold positive values, got {values}")
        if len(self.conv_channels) != len(self.pool_factors):
            raise ValueError("conv_channels and pool_factors must have equal length")
        if self.flat_width < 1:
            raise ValueError(f"pool_factors {self.pool_factors} leave no bin of "
                             f"freq_bins={self.freq_bins}")

    @staticmethod
    def paper():
        """Full-scale topology: stage outputs 64x25x64, 64x25x8, 64x25x2 on a
        6x25x513 input, flattening to 128 per frame."""
        return NetworkConfig()

    @staticmethod
    def desk():
        """Laptop-scale topology with the same structure (window-256 features)."""
        return NetworkConfig(
            conv_channels=(8, 8, 8),
            pool_factors=(4, 4, 4),
            hidden=16,
            fc_width=16,
            frames=25,
            freq_bins=129,
        )

    @staticmethod
    def tiny():
        """Gradient-check scale: 2 conv channels, hidden 8, 3 frames, 16 bins."""
        return NetworkConfig(
            conv_channels=(2, 2, 2),
            pool_factors=(2, 2, 2),
            hidden=8,
            fc_width=8,
            frames=3,
            freq_bins=16,
        )

    def stage_shapes(self):
        """Per-stage output shapes (channels, frames, bins) of the conv stack."""
        bins = self.freq_bins
        shapes = []
        for ch, pool in zip(self.conv_channels, self.pool_factors):
            bins //= pool
            shapes.append((ch, self.frames, bins))
        return shapes

    @property
    def flat_width(self):
        ch, _, bins = self.stage_shapes()[-1]
        return ch * bins


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0 and self.learning_rate != 0.0:
            raise ValueError("learning rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


class Network:
    """The CRNN's layers, with the topology and output head they were built for.

    ``params``, ``grads`` and ``buffers`` are flat maps from
    ``"{index}.{LayerType}.{name}"`` to every layer's arrays, in layer order:
    the one registry that the optimizer, the gradient check and checkpoints
    read.
    """

    def __init__(self, config, formulation, layers):
        self.config = config
        self.formulation = formulation
        self.layers = layers
        self.params, self.grads, self.buffers = (
            {f"{k}.{type(layer).__name__}.{name}": arr
             for k, layer in enumerate(layers)
             for name, arr in getattr(layer, field).items()}
            for field in ("params", "grads", "buffers"))

    def forward(self, x, train=False):
        """Per-frame outputs (n, frames, d) for a batch (n, 6, frames, bins)."""
        x = np.asarray(x, dtype=np.float64)
        expected = (6, self.config.frames, self.config.freq_bins)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ValueError(f"input shape {x.shape} does not match "
                             f"(n, {', '.join(map(str, expected))})")
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x


def build_network(config: NetworkConfig, formulation: Formulation, seed=0):
    """Assemble the CRNN; the trunk is drawn before the head so that all three
    formulations built from one seed start from the same trunk parameters."""
    rng = np.random.default_rng(seed)
    layers = []
    c_in = 6
    for ch, pool in zip(config.conv_channels, config.pool_factors):
        layers.append(nn.Conv2d(c_in, ch, rng))
        layers.append(nn.ReLU())
        layers.append(nn.BatchNorm2d(ch))
        layers.append(nn.MaxPoolFreq(pool))
        c_in = ch
    layers.append(nn.FrameFlatten())
    d = config.flat_width
    for _ in range(config.lstm_layers):
        layers.append(nn.BiLSTM(d, config.hidden, rng))
        d = 2 * config.hidden
    layers.append(nn.TimeDense(d, config.fc_width, rng))
    layers.append(nn.ReLU())
    layers.append(nn.TimeDense(config.fc_width, formulation.out_dim, rng))
    return Network(config, formulation, layers)


# ---------------------------------------------------------------------------
# losses (value + gradient with respect to the network output)
# ---------------------------------------------------------------------------

def loss_categorical(outputs, class_index, with_grad=False):
    """Per-frame binary cross-entropy of sigmoid(z) against the one-hot class,
    summed over classes and averaged over frames (and batch). ``outputs`` are
    the logits z; the fused form log(1 + e^z) - y z stays finite at any z, and
    its gradient sigmoid(z) - y never vanishes on a confidently wrong class."""
    z = np.asarray(outputs, dtype=np.float64)
    b, t, c = z.shape
    idx = np.asarray(class_index, dtype=np.int64)
    y = np.zeros((b, 1, c))
    y[np.arange(b), 0, idx] = 1.0
    loss = (np.logaddexp(0.0, z) - y * z).sum() / (b * t)
    if not with_grad:
        return loss
    return loss, (nn._sigmoid(z) - y) / (b * t)


def loss_cartesian(outputs, label, with_grad=False):
    """Mean over frames and components of the squared difference from the
    unit-vector label; outputs are not renormalized."""
    o = np.asarray(outputs, dtype=np.float64)
    b, t, _ = o.shape
    lab = np.asarray(label, dtype=np.float64)[:, None, :]
    diff = o - lab
    loss = (diff**2).sum() / (b * t * 3)
    if not with_grad:
        return loss
    return loss, 2.0 * diff / (b * t * 3)


def loss_haversine(outputs, label, with_grad=False):
    """Mean over frames of the great-circle distance between predicted and
    label (azimuth, elevation), with the haversine intermediate clamped to
    [1e-12, 1 - 1e-12] so the arcsin stays differentiable at the endpoints."""
    o = np.asarray(outputs, dtype=np.float64)
    b, t, _ = o.shape
    lab = np.asarray(label, dtype=np.float64)
    az1, el1 = lab[:, None, 0], lab[:, None, 1]
    az2, el2 = o[:, :, 0], o[:, :, 1]
    h_raw = (
        np.sin((el2 - el1) / 2.0) ** 2
        + np.cos(el1) * np.cos(el2) * np.sin((az2 - az1) / 2.0) ** 2
    )
    h = np.clip(h_raw, HAVERSINE_CLAMP, 1.0 - HAVERSINE_CLAMP)
    d = 2.0 * np.arcsin(np.sqrt(h))
    loss = d.sum() / (b * t)
    if not with_grad:
        return loss
    active = (h_raw > HAVERSINE_CLAMP) & (h_raw < 1.0 - HAVERSINE_CLAMP)
    dd_dh = np.where(active, 1.0 / np.sqrt(h * (1.0 - h)), 0.0) / (b * t)
    dh_daz2 = 0.5 * np.cos(el1) * np.cos(el2) * np.sin(az2 - az1)
    dh_del2 = (
        0.5 * np.sin(el2 - el1)
        - np.cos(el1) * np.sin(el2) * np.sin((az2 - az1) / 2.0) ** 2
    )
    grad = np.stack([dd_dh * dh_daz2, dd_dh * dh_del2], axis=2)
    return loss, grad


def _loss_for(formulation: Formulation):
    return {
        "categorical": loss_categorical,
        "cartesian": loss_cartesian,
        "spherical": loss_haversine,
    }[formulation.kind]


def labels_for(formulation: Formulation, unit_vectors):
    """Convert unit-vector ground truth into the formulation's label space."""
    u = np.atleast_2d(np.asarray(unit_vectors, dtype=np.float64))
    if formulation.kind == "cartesian":
        return u
    if formulation.kind == "spherical":
        az, el = to_spherical(u)
        return np.stack([az, el], axis=-1)
    return np.asarray(nearest_class(formulation.grid, u), dtype=np.int64)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def backward(net: Network, x, target):
    """Loss and analytic parameter gradients for a batch of inputs; raises if
    any gradient turns non-finite, naming the parameter."""
    for g in net.grads.values():
        g[...] = 0.0
    out = net.forward(x, train=True)
    loss, dout = _loss_for(net.formulation)(out, target, with_grad=True)
    for layer in reversed(net.layers):
        dout = layer.backward(dout)
    for name, g in net.grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return loss, net.grads


def _activation_signature(net):
    """Active-piece fingerprint of the last forward pass: ReLU sign masks and
    max-pool argmax choices. Central differences estimate the derivative only
    while both endpoint evaluations stay on the same piece."""
    parts = []
    for layer in net.layers:
        if isinstance(layer, nn.ReLU):
            parts.append(layer._mask.tobytes())
        elif isinstance(layer, nn.MaxPoolFreq):
            parts.append(layer._argmax.tobytes())
    return b"".join(parts)


def grad_check(net: Network, x, target, return_skipped=False):
    """Max over parameter tensors of the relative error between analytic
    gradients and central finite differences:

        ||g_analytic - g_numeric|| / max(||g_analytic|| + ||g_numeric||, 1e-12)

    Every scalar parameter is perturbed by +/-``GRAD_CHECK_STEP`` (practical
    at the tiny preset only). Scalars whose +/-step interval crosses a ReLU or
    max-pool kink are excluded from the comparison, because the two-point
    difference does not estimate the derivative across a kink; their count is
    available via ``return_skipped``. The analytic value replaces the numeric
    one in the norm so skipping can only be neutral, never flattering.
    """
    x = np.asarray(x, dtype=np.float64)
    loss_fn = _loss_for(net.formulation)

    def eval_loss():
        out = net.forward(x, train=True)
        return loss_fn(out, target), _activation_signature(net)

    _, analytic = backward(net, x, target)
    worst = 0.0
    skipped = 0
    for name, param in net.params.items():
        ga = analytic[name]
        numeric = ga.copy()  # skipped entries contribute zero error
        flat = param.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRAD_CHECK_STEP
            lp, sig_p = eval_loss()
            flat[i] = orig - GRAD_CHECK_STEP
            lm, sig_m = eval_loss()
            flat[i] = orig
            if sig_p != sig_m:
                skipped += 1
                continue
            nflat[i] = (lp - lm) / (2.0 * GRAD_CHECK_STEP)
        denom = max(np.linalg.norm(ga) + np.linalg.norm(numeric), 1e-12)
        worst = max(worst, np.linalg.norm(ga - numeric) / denom)
    if return_skipped:
        return worst, skipped
    return worst


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _AdamState:
    """Moment estimates and step count of one :func:`train` call."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def _adam_step(net: Network, state: _AdamState, lr):
    grads = net.grads
    total = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        for g in grads.values():
            g *= scale
    state.t += 1
    t = state.t
    for name, p in net.params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g**2
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(features, unit_labels, formulation: Formulation, cfg: TrainConfig,
          config: NetworkConfig = None):
    """Mini-batch adaptive-moment training; deterministic for a fixed seed.

    ``features`` is an (n, 6, frames, bins) array, ``unit_labels`` (n, 3).
    Returns the trained network and a per-epoch history with train loss,
    validation loss, and mean validation angular error in degrees.
    """
    features = np.asarray(features, dtype=np.float64)
    unit_labels = np.asarray(unit_labels, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if config is None:
        config = NetworkConfig.desk()
    net = build_network(config, formulation, seed=cfg.seed)
    labels = labels_for(formulation, unit_labels)

    rng = np.random.default_rng(cfg.seed + 0x5EED)
    order = rng.permutation(n)
    n_val = int(round(n * cfg.val_fraction))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    if train_idx.size == 0:
        raise ValueError("no training samples left after validation split")

    loss_fn = _loss_for(formulation)
    adam = _AdamState(net.params)
    history = []
    for epoch in range(cfg.epochs):
        perm = train_idx[rng.permutation(train_idx.size)]
        running, batches = 0.0, 0
        for start in range(0, perm.size, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            try:
                loss, _ = backward(net, features[sel], labels[sel])
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"{exc} at epoch {epoch}, batch {batches}"
                ) from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch {batches}"
                )
            if cfg.learning_rate > 0:
                _adam_step(net, adam, cfg.learning_rate)
            running += float(loss)
            batches += 1
        entry = {"epoch": epoch, "train_loss": running / batches}
        if val_idx.size:
            val_out = _outputs(net, features[val_idx])
            entry["val_loss"] = float(loss_fn(val_out, labels[val_idx]))
            preds = decode_outputs(val_out, formulation)
            errs = np.degrees(great_circle(preds, unit_labels[val_idx]))
            entry["val_error_deg"] = float(errs.mean())
        history.append(entry)
    return net, history


# ---------------------------------------------------------------------------
# decoding and inference
# ---------------------------------------------------------------------------

def decode_outputs(outputs, formulation: Formulation):
    """Aggregate per-frame outputs (n, frames, d) into n unit directions.

    Cartesian: normalized mean vector. Spherical: circular-mean azimuth and
    arithmetic-mean elevation. Categorical: sigmoid scores of the logits
    summed over frames, argmax class center.
    """
    o = np.asarray(outputs, dtype=np.float64)
    if formulation.kind == "cartesian":
        mean = o.mean(axis=1)
        # a dot product per row, the bits np.linalg.norm gives one vector
        norm = np.sqrt(mean[:, None] @ mean[:, :, None])[:, 0]
        ambiguous = np.flatnonzero(norm < 1e-6)
        if ambiguous.size:
            raise ValueError(f"ambiguous prediction for samples {ambiguous.tolist()}: "
                             "mean output vector is near zero")
        return mean / norm
    if formulation.kind == "spherical":
        az = np.arctan2(np.sin(o[:, :, 0]).mean(axis=1), np.cos(o[:, :, 0]).mean(axis=1))
        el = o[:, :, 1].mean(axis=1)
        return to_cartesian(az, el)
    scores = nn._sigmoid(o).sum(axis=1)
    return formulation.grid.directions[np.argmax(scores, axis=1)]


def _outputs(net: Network, x):
    """Inference-mode per-frame outputs of a batch, run in chunks of as many
    samples as fit ``PREDICT_ELEMENTS`` input elements."""
    chunk = max(1, PREDICT_ELEMENTS // (6 * net.config.frames * net.config.freq_bins))
    return np.concatenate([net.forward(x[s : s + chunk]) for s in range(0, len(x), chunk)])


def predict(net: Network, x):
    """Unit directions (n, 3) for a batch of feature tensors (n, 6, frames, bins)."""
    return decode_outputs(_outputs(net, x), net.formulation)


def predict_sample(net: Network, feature_tensor):
    """Direction estimate for one feature tensor (6, frames, bins)."""
    return predict(net, np.asarray(feature_tensor)[None])[0]


def predict_window(net: Network, window):
    """Direction estimate from a spectrogram of exactly ``config.frames``
    frames: the single-window case. :func:`ambidoa.evaluate.track` featurises
    a whole recording once and batches its windows through :func:`predict`."""
    return predict_sample(net, intensity_features(window).values)


def param_count(net: Network):
    """Exact number of trainable scalars."""
    return int(sum(p.size for p in net.params.values()))


# ---------------------------------------------------------------------------
# checkpoints: magic "ADOM", config JSON, little-endian float64 blob
# ---------------------------------------------------------------------------

def save_model(path, net: Network):
    params, buffers = net.params, net.buffers
    meta = {
        "config": asdict(net.config),
        "formulation": net.formulation.kind,
        "grid_resolution": (
            net.formulation.grid.resolution
            if net.formulation.kind == "categorical"
            else None
        ),
        "params": [[k, list(v.shape)] for k, v in params.items()],
        "buffers": [[k, list(v.shape)] for k, v in buffers.items()],
    }
    blob = json.dumps(meta, sort_keys=True).encode("ascii")
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", MODEL_VERSION, len(blob)))
        f.write(blob)
        for v in params.values():
            f.write(v.astype("<f8").tobytes(order="C"))
        for v in buffers.values():
            f.write(v.astype("<f8").tobytes(order="C"))


def load_model(path):
    """The network :func:`save_model` wrote to ``path``. A malformed header,
    config blob or payload raises ValueError naming the file."""
    from .geometry import build_grid

    with open(path, "rb") as f:
        header = f.read(12)
        if header[:4] != MODEL_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint (bad magic)")
        if len(header) < 12:
            raise ValueError(f"{path}: header holds {len(header)} bytes, not 12")
        version, blob_len = struct.unpack("<II", header[4:])
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        blob = f.read(blob_len)
        if len(blob) < blob_len:
            raise ValueError(f"{path}: config blob holds {len(blob)} bytes, "
                             f"not the declared {blob_len}")
        payload = f.read()

    try:
        meta = json.loads(blob.decode("ascii"))
        saved = meta["config"]
        names = sorted(f.name for f in fields(NetworkConfig))
        if not isinstance(saved, dict) or sorted(saved) != names:
            raise ValueError(f"config keys are not {names}")
        # JSON holds the tuple fields as lists
        config = NetworkConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in saved.items()})
        kind = meta["formulation"]
        grid = build_grid(meta["grid_resolution"]) if kind == "categorical" else None
        net = build_network(config, Formulation(kind, grid), seed=0)
        shapes = {field: meta[field] for field in ("params", "buffers")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad config blob: {exc!r}") from exc

    for field, named in (("params", net.params), ("buffers", net.buffers)):
        if shapes[field] != [[k, list(v.shape)] for k, v in named.items()]:
            raise ValueError(f"{path}: saved {field} shapes do not match its config")
    arrays = list(net.params.values()) + list(net.buffers.values())
    expected = 8 * sum(v.size for v in arrays)
    if len(payload) != expected:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, not {expected}")
    data = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for v in arrays:
        v[...] = data[offset : offset + v.size].reshape(v.shape)
        offset += v.size
    return net
