"""First-order Ambisonics encoding (channels W, X, Y, Z).

The directional gain vector for a plane wave with azimuth az and elevation el
is (1, sqrt(3) cos(az) cos(el), sqrt(3) sin(az) cos(el), sqrt(3) sin(el)), i.e.
(1, sqrt(3) * u) for the unit direction u. Signals are real-valued in the time
domain; arrival delays round to the nearest sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .geometry import to_spherical

__all__ = [
    "FoaIR",
    "FoaSignal",
    "foa_gains",
    "encode_plane_wave",
    "encode_srir",
    "write_wav",
    "read_wav",
]

DEFAULT_SAMPLE_RATE = 16000


@dataclass
class FoaIR:
    """4 x n impulse response, channel order (W, X, Y, Z)."""

    channels: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 2 or self.channels.shape[0] != 4:
            raise ValueError(f"expected 4 x n channels, got {self.channels.shape}")
        if self.channels.shape[1] < 1:
            raise ValueError("impulse response must hold at least one sample")
        if not np.all(np.isfinite(self.channels)):
            raise ValueError("impulse response contains non-finite samples")


class FoaSignal(FoaIR):
    """4 x n time signal; same layout and invariants as :class:`FoaIR`."""


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


def encode_srir(paths, sample_rate=DEFAULT_SAMPLE_RATE, length=None):
    """Render an arrival set into a sampled 4-channel impulse response.

    Each path adds amplitude * foa_gains(direction) at the sample nearest its
    delay; superposition is linear, so path order never matters. ``length``
    defaults to one second. Raises if any delay falls past the buffer,
    naming the offending arrivals.
    """
    if length is None:
        length = sample_rate
    delays = paths.delays
    channels = np.zeros((4, length))
    if delays.size == 0:
        return FoaIR(channels=channels, sample_rate=sample_rate)

    samples = np.rint(delays * sample_rate).astype(np.int64)
    bad = np.nonzero((samples < 0) | (samples >= length))[0]
    if bad.size:
        worst = ", ".join(f"#{i} at {delays[i]:.6f} s" for i in bad[:5])
        raise ValueError(
            f"{bad.size} path delay(s) fall outside the {length}-sample buffer "
            f"({length / sample_rate:.3f} s): {worst}"
        )
    contributions = paths.amplitudes[:, None] * foa_gains(paths.directions)
    for ch in range(4):
        np.add.at(channels[ch], samples, contributions[:, ch])
    return FoaIR(channels=channels, sample_rate=sample_rate)


def write_wav(path, signal):
    """Persist as 4-channel 32-bit-float WAV, channels as columns W, X, Y, Z."""
    wavfile.write(path, signal.sample_rate, signal.channels.T.astype(np.float32))


def read_wav(path):
    """Read a 4-channel float WAV back into a :class:`FoaSignal`."""
    rate, data = wavfile.read(path)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError(f"expected a 4-channel WAV, got shape {data.shape}")
    if data.dtype.kind == "i":
        data = data.astype(np.float64) / float(np.iinfo(data.dtype).max)
    return FoaSignal(channels=data.T.astype(np.float64), sample_rate=int(rate))


def direction_angles(direction):
    """Convenience: degrees (azimuth, elevation) of a unit vector."""
    az, el = to_spherical(direction)
    return np.degrees(az), np.degrees(el)
