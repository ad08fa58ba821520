"""Reverberant-signal rendering and intensity-vector feature extraction.

The network input is a 6 x frames x bins tensor holding the active and
reactive intensity vectors per time-frequency bin:

    I(t, f)  = conj(W) * (X, Y, Z)
    Ia = Re{I},  Ir = Im{I}

both divided by |W|^2 + (|X|^2 + |Y|^2 + |Z|^2) / 3 (+ eps). The conjugate
sits on W so that a plane wave from direction u yields Ia = (sqrt(3)/2) u,
pointing at the source; by Cauchy-Schwarz every entry lies in
[-sqrt(3)/2, sqrt(3)/2].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.signal import fftconvolve

from .foa import FoaIR, FoaSignal, foa_gains

__all__ = [
    "Spectrogram",
    "FeatureTensor",
    "convolve_foa",
    "sample_snr",
    "mix_noise",
    "speech_shaped_noise",
    "babble_noise",
    "synthetic_speech",
    "stft",
    "intensity_features",
    "write_features",
    "read_features",
]

SNR_MEAN_DB = 15.0
SNR_STD_DB = 1.0
FEATURE_EPS = 1e-12
FEATURE_MAGIC = b"ADOA"
FEATURE_VERSION = 1

SPEECH_SHELF_HZ = 500.0  # spectral envelope corner: flat below, -6 dB/oct above


@dataclass
class Spectrogram:
    """Complex 4 x frames x bins tensor; bins = window // 2 + 1."""

    bins: np.ndarray
    sample_rate: int
    window: int = 1024
    hop: int = 512

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        expected = self.window // 2 + 1
        if self.bins.ndim != 3 or self.bins.shape[0] != 4:
            raise ValueError(f"expected 4 x frames x bins, got {self.bins.shape}")
        if self.bins.shape[2] != expected:
            raise ValueError(
                f"bin count {self.bins.shape[2]} does not match window "
                f"{self.window} (expected {expected})"
            )
        if not np.all(np.isfinite(self.bins)):
            raise ValueError("spectrogram contains non-finite values")

    @property
    def n_frames(self):
        return self.bins.shape[1]

    def frequencies(self):
        return np.fft.rfftfreq(self.window, d=1.0 / self.sample_rate)


@dataclass
class FeatureTensor:
    """Real 6 x frames x bins tensor, rows (Ia_x, Ia_y, Ia_z, Ir_x, Ir_y, Ir_z)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[0] != 6:
            raise ValueError(f"expected 6 x frames x bins, got {self.values.shape}")
        bound = np.sqrt(3.0) / 2.0 + 1e-9
        if np.abs(self.values).max(initial=0.0) > bound:
            raise ValueError("intensity features exceed the sqrt(3)/2 bound")


def convolve_foa(dry, ir: FoaIR, dry_sample_rate=None):
    """Channel-wise full convolution of a dry mono signal with a 4-channel IR."""
    if dry_sample_rate is not None and dry_sample_rate != ir.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: dry {dry_sample_rate} vs IR {ir.sample_rate}"
        )
    dry = np.asarray(dry, dtype=np.float64)
    out = fftconvolve(ir.channels, dry[None, :], mode="full", axes=1)
    return FoaSignal(channels=out, sample_rate=ir.sample_rate)


def sample_snr(rng):
    """One SNR draw in dB ~ Normal(15, 1)."""
    return float(rng.normal(SNR_MEAN_DB, SNR_STD_DB))


def mix_noise(signal: FoaSignal, noise: FoaSignal, snr_db):
    """Add noise scaled so the W-channel power ratio equals ``snr_db``.

    The noise must be at least as long as the signal; it is truncated to fit
    and the same scale is applied to all four channels.
    """
    n_sig = signal.channels.shape[1]
    if noise.channels.shape[1] < n_sig:
        raise ValueError("noise must be at least as long as the signal")
    p_signal = np.mean(signal.channels[0] ** 2)
    noise_cut = noise.channels[:, :n_sig]
    p_noise = np.mean(noise_cut[0] ** 2)
    if p_signal <= 0.0:
        raise ValueError("signal has zero power on the W channel")
    if p_noise <= 0.0:
        raise ValueError("noise has zero power on the W channel")
    scale = np.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    return FoaSignal(
        channels=signal.channels + scale * noise_cut,
        sample_rate=signal.sample_rate,
    )


def _speech_envelope_gain(freqs):
    """Amplitude response: unity below the shelf, -6 dB/octave above."""
    return 1.0 / np.sqrt(1.0 + (freqs / SPEECH_SHELF_HZ) ** 2)


def _shaped_noise(rng, n_streams, length, sample_rate):
    """(n_streams, length) independent noise rows with the speech envelope.
    Shaping happens at an FFT-friendly padded length, then truncates."""
    fast = int(sp_fft.next_fast_len(length))
    white = rng.standard_normal((n_streams, fast))
    spectrum = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(fast, d=1.0 / sample_rate)
    spectrum *= _speech_envelope_gain(freqs)[None, :]
    return np.fft.irfft(spectrum, n=fast, axis=1)[:, :length]


# 12 uniformly spread directions: icosahedron vertices
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICOSAHEDRON = np.array(
    [
        [0, 1, _PHI], [0, -1, _PHI], [0, 1, -_PHI], [0, -1, -_PHI],
        [1, _PHI, 0], [-1, _PHI, 0], [1, -_PHI, 0], [-1, -_PHI, 0],
        [_PHI, 0, 1], [-_PHI, 0, 1], [_PHI, 0, -1], [-_PHI, 0, -1],
    ],
    dtype=np.float64,
)
_ICOSAHEDRON /= np.linalg.norm(_ICOSAHEDRON, axis=1, keepdims=True)


def speech_shaped_noise(length, seed, sample_rate=16000):
    """Diffuse FOA noise with a long-term speech-like spectral envelope.

    Twelve independent shaped-noise streams arrive from the icosahedron
    directions; their FOA encodings superpose into an approximately isotropic
    field. Deterministic for a fixed seed.
    """
    if length < 1024:
        raise ValueError("length must be at least 1024 samples")
    rng = np.random.default_rng(seed)
    streams = _shaped_noise(rng, len(_ICOSAHEDRON), length, sample_rate)
    gains = foa_gains(_ICOSAHEDRON)  # (12, 4)
    channels = gains.T @ streams / np.sqrt(len(_ICOSAHEDRON))
    return FoaSignal(channels=channels, sample_rate=sample_rate)


def babble_noise(length, seed, sample_rate=16000, n_talkers=6):
    """Babble stand-in: the sum of independent speech-shaped noise fields."""
    rng = np.random.default_rng(seed)
    streams = _shaped_noise(rng, n_talkers * len(_ICOSAHEDRON), length, sample_rate)
    streams = streams.reshape(n_talkers, len(_ICOSAHEDRON), length)
    gains = foa_gains(_ICOSAHEDRON)
    channels = np.einsum("dc,tdn->cn", gains, streams, optimize=True)
    return FoaSignal(
        channels=channels / np.sqrt(n_talkers * len(_ICOSAHEDRON)),
        sample_rate=sample_rate,
    )


def synthetic_speech(length, seed, sample_rate=16000):
    """Mono speech stand-in: shaped noise gated by a syllabic burst envelope.

    Used when no speech corpus is supplied; bursts at a few Hz give the
    signal speech-like on/off structure without redistributing any corpus.
    """
    rng = np.random.default_rng(seed)
    carrier = _shaped_noise(rng, 1, length, sample_rate)[0]
    t = np.arange(length) / sample_rate
    envelope = np.zeros(length)
    pos = 0.0
    duration = length / sample_rate
    while pos < duration:
        burst = rng.uniform(0.08, 0.25)
        gap = rng.uniform(0.02, 0.12)
        amp = rng.uniform(0.5, 1.0)
        envelope += amp * np.exp(-0.5 * ((t - pos - burst / 2) / (burst / 3)) ** 2)
        pos += burst + gap
    out = carrier * envelope
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out


def stft(signal: FoaSignal, frames, window=1024):
    """Hann-windowed one-sided STFT of the first ``frames`` frames.

    Frame t covers samples [t*hop, t*hop + window) with hop = window // 2
    (50% overlap); no padding or centering, so the signal must be long enough.
    """
    hop = window // 2
    needed = (frames - 1) * hop + window
    n = signal.channels.shape[1]
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if n < needed:
        raise ValueError(
            f"signal too short: {n} samples < {needed} needed for {frames} frames"
        )
    win = np.hanning(window + 1)[:-1]  # periodic Hann
    starts = np.arange(frames) * hop
    idx = starts[:, None] + np.arange(window)[None, :]
    segments = signal.channels[:, idx] * win  # 4 x frames x window
    return Spectrogram(
        bins=np.fft.rfft(segments, axis=2),
        sample_rate=signal.sample_rate,
        window=window,
        hop=hop,
    )


def intensity_features(spec: Spectrogram):
    """Normalized active/reactive intensity vectors per time-frequency bin."""
    w = spec.bins[0]
    xyz = spec.bins[1:4]
    intensity = np.conj(w)[None, :, :] * xyz
    denom = (
        np.abs(w) ** 2
        + (np.abs(xyz[0]) ** 2 + np.abs(xyz[1]) ** 2 + np.abs(xyz[2]) ** 2) / 3.0
        + FEATURE_EPS
    )
    active = intensity.real / denom
    reactive = intensity.imag / denom
    return FeatureTensor(values=np.concatenate([active, reactive], axis=0))


def decode_direction(features: FeatureTensor, power_quantile=0.5):
    """Model-free DOA readout: normalized mean active intensity over the most
    energetic bins (by |Ia|, above the given quantile)."""
    ia = features.values[:3]
    mag = np.linalg.norm(ia, axis=0)
    mask = mag >= np.quantile(mag, power_quantile)
    mean = ia[:, mask].mean(axis=1)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        raise ValueError("active intensity mean is zero; no direction to decode")
    return mean / norm


# ---------------------------------------------------------------------------
# feature container: magic "ADOA", version, dims, little-endian float32 payload
# ---------------------------------------------------------------------------

def write_features(path, features: FeatureTensor):
    v = features.values.astype("<f4")
    header = FEATURE_MAGIC + struct.pack("<IIII", FEATURE_VERSION, *v.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(v.tobytes(order="C"))


def read_features(path):
    with open(path, "rb") as f:
        header = f.read(20)
        if header[:4] != FEATURE_MAGIC:
            raise ValueError(f"{path} is not a feature container (bad magic)")
        version, d0, d1, d2 = struct.unpack("<IIII", header[4:])
        if version != FEATURE_VERSION:
            raise ValueError(f"unsupported feature container version {version}")
        payload = np.frombuffer(f.read(), dtype="<f4")
    if payload.size != d0 * d1 * d2:
        raise ValueError(f"{path} is truncated")
    return FeatureTensor(values=payload.reshape(d0, d1, d2).astype(np.float64))
