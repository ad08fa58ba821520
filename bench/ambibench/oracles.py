"""Reference computations the checks compare the program against.

Nothing here calls ambidoa: each function restates a documented format or
formula (README "File formats", the ``features`` and ``evaluate`` module
docstrings) in plain numpy, so a fault in the program cannot hide in its own
reference.
"""

from __future__ import annotations

import json
import struct

import numpy as np

FEATURE_BOUND = np.sqrt(3.0) / 2.0
FLOAT32_SLACK = 1e-6  # float32 storage may round sqrt(3)/2 up by ~3e-8
FEATURE_EPS = 1e-12  # the "+ eps" of the documented normalization


def angle_deg(a, b):
    """Great-circle angle in degrees, atan2(|a x b|, a . b), over the last axis."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cross = np.linalg.norm(np.cross(a, b), axis=-1)
    return np.degrees(np.arctan2(cross, np.sum(a * b, axis=-1)))


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def unit_from_degrees(azimuth_deg, elevation_deg):
    az, el = np.radians(azimuth_deg), np.radians(elevation_deg)
    return np.array([np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)])


def read_manifest(path):
    with open(path, "r", encoding="ascii") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_adoa(path):
    """Parse a ``.adoa`` container: magic ``ADOA``, uint32 version 1, three
    uint32 dims, then exactly dims[0] * dims[1] * dims[2] little-endian
    float32 values."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"ADOA":
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    version, d0, d1, d2 = struct.unpack("<IIII", data[4:20])
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    if len(data) != 20 + 4 * d0 * d1 * d2:
        raise ValueError(f"{path}: {len(data)} bytes for dims {(d0, d1, d2)}")
    return np.frombuffer(data, dtype="<f4", offset=20).reshape(d0, d1, d2).astype(np.float64)


def stft(channels, window):
    """Every full frame of a periodic-Hann one-sided STFT, hop window // 2."""
    hop = window // 2
    n_frames = (channels.shape[1] - window) // hop + 1
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    frames = np.stack(
        [channels[:, t * hop : t * hop + window] for t in range(n_frames)], axis=1
    )
    return np.fft.rfft(frames * win, axis=2)


def intensity(bins):
    """Rows (Ia_x, Ia_y, Ia_z, Ir_x, Ir_y, Ir_z) of conj(W) * (X, Y, Z) over
    |W|^2 + (|X|^2 + |Y|^2 + |Z|^2) / 3 + eps."""
    w, xyz = bins[0], bins[1:4]
    i = np.conj(w) * xyz
    denom = np.abs(w) ** 2 + np.sum(np.abs(xyz) ** 2, axis=0) / 3.0 + FEATURE_EPS
    return np.concatenate([i.real / denom, i.imag / denom], axis=0)


def track_window_count(n_samples, window, frames, hop_frames):
    """Windows of ``frames`` STFT frames, stepped by ``hop_frames``, that fit
    in a recording of ``n_samples``."""
    total = (n_samples - window) // (window // 2) + 1
    return (total - frames) // hop_frames + 1


def decode_cartesian(outputs):
    """The documented cartesian readout: normalized mean over frames."""
    return unit(np.asarray(outputs).mean(axis=-2))
