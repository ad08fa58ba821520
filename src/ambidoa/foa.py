"""First-order Ambisonics encoding (channels W, X, Y, Z).

The directional gain vector for a plane wave with azimuth az and elevation el
is (1, sqrt(3) cos(az) cos(el), sqrt(3) sin(az) cos(el), sqrt(3) sin(el)), i.e.
(1, sqrt(3) * u) for the unit direction u. Signals are real-valued in the time
domain; arrival delays round to the nearest sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FoaSignal",
    "foa_gains",
    "encode_plane_wave",
    "encode_srir",
    "write_wav",
    "read_pcm",
    "read_wav",
]

DEFAULT_SAMPLE_RATE = 16000


@dataclass
class FoaSignal:
    """4 x n time signal or impulse response, channel order (W, X, Y, Z)."""

    channels: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 2 or self.channels.shape[0] != 4:
            raise ValueError(f"expected 4 x n channels, got {self.channels.shape}")
        if self.channels.shape[1] < 1:
            raise ValueError("FOA signal must hold at least one sample")
        if not np.all(np.isfinite(self.channels)):
            raise ValueError("FOA signal contains non-finite samples")


def foa_gains(direction):
    """FOA gain 4-vector(s) for unit direction(s); (n, 3) -> (n, 4)."""
    u = np.asarray(direction, dtype=np.float64)
    w = np.ones(u.shape[:-1] + (1,))
    return np.concatenate([w, np.sqrt(3.0) * u], axis=-1)


def encode_plane_wave(signal, direction, sample_rate=DEFAULT_SAMPLE_RATE):
    """Anechoic FOA recording of a plane wave: each channel is the signal
    scaled by its directional gain, so W equals the input exactly."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1 or signal.size == 0:
        raise ValueError("signal must be a non-empty 1-D array")
    gains = foa_gains(direction)
    return FoaSignal(channels=gains[:, None] * signal[None, :], sample_rate=sample_rate)


def encode_srir(paths, sample_rate, length):
    """Render an arrival set into a sampled 4-channel impulse response of
    ``length`` samples.

    Each path adds amplitude * foa_gains(direction) at the sample nearest its
    delay; superposition is linear, so path order never matters. Raises if
    any delay, amplitude or direction is not finite, naming the field and the
    first such arrival, or if any delay falls past the buffer, naming the
    offending arrivals.
    """
    for name, values in (("delays", paths.delays), ("amplitudes", paths.amplitudes),
                         ("directions", paths.directions)):
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
            raise ValueError(f"{name} of arrival #{first} is not finite: {values[first]}")
    delays = paths.delays
    samples = np.rint(delays * sample_rate).astype(np.int64)
    bad = np.nonzero((samples < 0) | (samples >= length))[0]
    if bad.size:
        worst = ", ".join(f"#{i} at {delays[i]:.6f} s" for i in bad[:5])
        raise ValueError(
            f"{bad.size} path delay(s) fall outside the {length}-sample buffer "
            f"({length / sample_rate:.3f} s): {worst}"
        )
    # one weighted bincount per channel: it sums each sample's arrivals in
    # arrival order, as a scatter-add would, with weights amplitude * gain
    amplitudes = paths.amplitudes
    channels = np.empty((4, length))
    channels[0] = np.bincount(samples, weights=amplitudes, minlength=length)
    for ch in range(3):
        gain = np.sqrt(3.0) * paths.directions[:, ch]
        channels[ch + 1] = np.bincount(samples, weights=amplitudes * gain,
                                       minlength=length)
    return FoaSignal(channels=channels, sample_rate=sample_rate)


def write_wav(path, signal):
    """Persist as 4-channel 32-bit-float WAV, channels as columns W, X, Y, Z."""
    from scipy.io import wavfile  # loaded on first use: it costs import time

    wavfile.write(path, signal.sample_rate, signal.channels.T.astype(np.float32))


def read_pcm(path):
    """Read a WAV file as ``(rate, samples)``, the samples as float64 in
    [-1, 1]: 8-bit PCM (unsigned, offset by 128) maps to (x - 128) / 128,
    signed PCM is divided by its type's maximum and float passes through.
    Any other sample type is refused with an error that names the file."""
    from scipy.io import wavfile  # loaded on first use: it costs import time

    rate, data = wavfile.read(path)
    if data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype.kind == "i":
        data = data.astype(np.float64) / float(np.iinfo(data.dtype).max)
    elif data.dtype.kind != "f":
        raise ValueError(f"{path}: unsupported WAV sample type {data.dtype}")
    return int(rate), np.asarray(data, dtype=np.float64)


def read_wav(path):
    """Read a 4-channel WAV back into a :class:`FoaSignal`; errors name the file."""
    rate, data = read_pcm(path)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError(f"{path}: expected a 4-channel WAV, got shape {data.shape}")
    try:
        return FoaSignal(channels=data.T, sample_rate=rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
