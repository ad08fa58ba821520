"""MUSIC direction estimation on 4-channel FOA input.

The steering vector a for a candidate direction is the FOA gain vector itself,
so a single plane wave makes each per-bin covariance rank one and its noise
subspace E_n orthogonal to a at the true direction. With one source,
||E_n^H a||^2 = ||a||^2 - |e_1^H a|^2 for the signal eigenvector e_1 (Schmidt
1986; Stoica & Nehorai 1989); near a peak that difference cancels to about
1e-16 * ||a||^2, far below ``SCORE_EPS``.
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
    "window_spectra",
    "music_estimate",
]

SCORE_EPS = 1e-12
DEFAULT_BAND_HZ = (300.0, 4000.0)
WINDOW = 1024  # STFT length of music_estimate and of `ambidoa track` without a model


@dataclass
class CovarianceSet:
    """Per-bin 4x4 Hermitian matrices averaged over frames."""

    matrices: np.ndarray  # (bins, 4, 4) complex

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


def spatial_covariance(spec, frames=slice(None)):
    """R_f = (1/T) sum_t x(t, f) x(t, f)^H over ``frames``, per ``DEFAULT_BAND_HZ`` bin.

    The band's bins are consecutive, so x is a view of the spectrogram, and
    R is the batched matmul that ``einsum("ctb,dtb->bcd", x, conj(x),
    optimize=True)`` dispatches to, bit for bit, with no path to plan."""
    sel = band_to_bins(spec)
    x = spec.bins[:, frames, sel[0] : sel[-1] + 1]  # 4 x T x B
    if x.shape[1] < 2:
        raise ValueError("need at least 2 frames to average a covariance")
    mats = np.matmul(x.transpose(2, 0, 1), np.conj(x).transpose(2, 1, 0)) / x.shape[1]
    return CovarianceSet(matrices=mats)


def music_spectrum(cov: CovarianceSet, grid: SphereGrid, steering=None):
    """Noise-subspace scores per grid class, one source assumed.

    All bins are eigendecomposed in one stacked ``eigh``. With a(d) the FOA
    gain vector and e_1 the eigenvector of the largest eigenvalue, score(d) =
    1 / (max(||a||^2 - |e_1^H a|^2, 0) + eps) = 1 / (||E_n^H a||^2 + eps); near
    a peak the difference cancels to about 1e-16 * ||a||^2, far below
    ``SCORE_EPS`` = 1e-12. Per-bin scores are averaged over the band after
    normalization to a unit maximum, so loud bins cannot dominate.
    ``steering`` is ``_steering(grid)``, for a caller that scores many
    covariances on one grid; by default it is built here.
    """
    steering, norms = _steering(grid) if steering is None else steering
    vals, vecs = np.linalg.eigh(cov.matrices)  # ascending, so e_1 = vecs[:, :, 3]
    if not np.all(np.isfinite(vals)):
        raise np.linalg.LinAlgError("eigendecomposition produced non-finite values")
    proj = np.maximum(norms - np.abs(np.conj(vecs[:, :, 3]) @ steering) ** 2, 0.0)
    bin_scores = 1.0 / (proj + SCORE_EPS)
    return (bin_scores / bin_scores.max(axis=1, keepdims=True)).sum(axis=0) / len(bin_scores)


def _steering(grid):
    """The steering table a(d) (4, classes) as complex128, the type the
    product with the complex eigenvectors casts it to, and ||a||^2 per class."""
    steering = foa_gains(grid.directions)  # (n_classes, 4) real
    return steering.T.astype(complex), np.einsum("ij,ij->i", steering, steering)


def window_spectra(spec, grid: SphereGrid, frames, hop_frames):
    """``music_spectrum(spatial_covariance(spec, slice(s, s + frames)), grid)``
    for the windows s = 0, ``hop_frames``, ..., one at a time. The steering
    table and its norms are built once, not per window."""
    steering = _steering(grid)
    for s in range(0, spec.n_frames - frames + 1, hop_frames):
        yield music_spectrum(spatial_covariance(spec, slice(s, s + frames)), grid, steering)


def music_estimate(signal, grid: SphereGrid):
    """Full pipeline: STFT, spatial covariance, subspace scan, argmax class."""
    hop = WINDOW // 2
    frames = (signal.channels.shape[1] - WINDOW) // hop + 1
    if frames < 2:
        raise ValueError("signal too short for a covariance average")
    spec = stft(signal, frames=frames, window=WINDOW)
    scores = music_spectrum(spatial_covariance(spec), grid)
    return grid.directions[int(np.argmax(scores))], scores
