"""MUSIC direction estimation on 4-channel FOA input.

The steering vector for a candidate direction is the FOA gain vector itself,
so a single plane wave makes each per-bin covariance rank one and the noise
subspace orthogonal to the steering vector at the true direction. Scores are
averaged over a speech-band bin range after per-bin normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import stft
from .foa import foa_gains
from .geometry import SphereGrid

__all__ = [
    "CovarianceSet",
    "spatial_covariance",
    "music_spectrum",
    "music_estimate",
]

SCORE_EPS = 1e-12
DEFAULT_BAND_HZ = (300.0, 4000.0)
WINDOW = 1024  # STFT length of music_estimate and of `ambidoa track` without a model


@dataclass
class CovarianceSet:
    """Per-bin 4x4 Hermitian matrices averaged over frames."""

    matrices: np.ndarray  # (bins, 4, 4) complex
    frequencies: np.ndarray  # (bins,) Hz

    def __post_init__(self):
        m = self.matrices
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValueError(f"expected (bins, 4, 4) matrices, got {m.shape}")
        herm = np.abs(m - np.conj(np.transpose(m, (0, 2, 1)))).max(initial=0.0)
        if herm > 1e-10:
            raise ValueError(f"covariance not Hermitian (max asymmetry {herm:.2e})")


def band_to_bins(spec, band_hz=DEFAULT_BAND_HZ):
    freqs = spec.frequencies()
    sel = np.nonzero((freqs >= band_hz[0]) & (freqs <= band_hz[1]))[0]
    if sel.size == 0:
        raise ValueError(f"no STFT bins inside band {band_hz}")
    return sel


def spatial_covariance(spec):
    """R_f = (1/T) sum_t x(t, f) x(t, f)^H for each bin of ``DEFAULT_BAND_HZ``."""
    if spec.n_frames < 2:
        raise ValueError("need at least 2 frames to average a covariance")
    bin_range = band_to_bins(spec)
    x = spec.bins[:, :, bin_range]  # 4 x T x B
    mats = np.einsum("ctb,dtb->bcd", x, np.conj(x), optimize=True) / spec.n_frames
    return CovarianceSet(matrices=mats, frequencies=spec.frequencies()[bin_range])


def music_spectrum(cov: CovarianceSet, grid: SphereGrid):
    """Noise-subspace scores per grid class, one source assumed.

    All bins are eigendecomposed in one stacked ``eigh``; per bin the three
    eigenvectors beyond the largest form the noise subspace E_n, and
    score(d) = 1 / (||E_n^H a(d)||^2 + eps) with a(d) the FOA gain vector.
    Per-bin scores are normalized to a unit maximum before averaging so loud
    bins cannot dominate.
    """
    steering = foa_gains(grid.directions)  # (n_classes, 4) real
    vals, vecs = np.linalg.eigh(cov.matrices)
    if not np.all(np.isfinite(vals)):
        raise np.linalg.LinAlgError("eigendecomposition produced non-finite values")
    noise = vecs[:, :, :3]  # eigh sorts ascending
    proj = np.abs(steering @ np.conj(noise)) ** 2  # (bins, n_classes, 3)
    bin_scores = 1.0 / (proj.sum(axis=2) + SCORE_EPS)
    return (bin_scores / bin_scores.max(axis=1, keepdims=True)).sum(axis=0) / len(bin_scores)


def music_estimate(signal, grid: SphereGrid):
    """Full pipeline: STFT, spatial covariance, subspace scan, argmax class."""
    hop = WINDOW // 2
    frames = (signal.channels.shape[1] - WINDOW) // hop + 1
    if frames < 2:
        raise ValueError("signal too short for a covariance average")
    spec = stft(signal, frames=frames, window=WINDOW)
    scores = music_spectrum(spatial_covariance(spec), grid)
    return grid.directions[int(np.argmax(scores))], scores
