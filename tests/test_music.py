import numpy as np
import pytest

from ambidoa.features import mix_noise, speech_shaped_noise, stft
from ambidoa.foa import FoaSignal, encode_plane_wave, foa_gains
from ambidoa.geometry import build_grid, great_circle
from ambidoa.music import (
    SCORE_EPS,
    CovarianceSet,
    band_to_bins,
    music_estimate,
    music_spectrum,
    spatial_covariance,
    window_spectra,
)

FS = 16000
GRID = build_grid(10.0)


def plane_wave(direction, n=16000, seed=0):
    rng = np.random.default_rng(seed)
    return encode_plane_wave(rng.standard_normal(n), direction, FS)


class TestSpatialCovariance:
    def test_rank_one_for_single_plane_wave(self):
        spec = stft(plane_wave([0.6, 0.64, 0.48]), frames=25)
        cov = spatial_covariance(spec)
        for r in cov.matrices[::40]:
            vals = np.linalg.eigvalsh(r)
            if vals[-1] > 1e-12:
                assert vals[-2] < 1e-8 * vals[-1]

    def test_zero_signal_zero_matrices(self):
        spec = stft(FoaSignal(channels=np.zeros((4, 14000)), sample_rate=FS), 25)
        cov = spatial_covariance(spec)
        assert np.all(cov.matrices == 0.0)

    def test_hermitian_and_psd_on_random_input(self):
        rng = np.random.default_rng(1)
        sig = FoaSignal(channels=rng.standard_normal((4, 14000)), sample_rate=FS)
        cov = spatial_covariance(stft(sig, 25))
        asym = np.abs(
            cov.matrices - np.conj(np.transpose(cov.matrices, (0, 2, 1)))
        ).max()
        assert asym < 1e-10
        for r in cov.matrices[::50]:
            assert np.linalg.eigvalsh(r).min() >= -1e-10

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(2)
        sig = FoaSignal(channels=rng.standard_normal((4, 14000)), sample_rate=FS)
        cov = spatial_covariance(stft(sig, 25))
        for r in cov.matrices[::60]:
            _, vecs = np.linalg.eigh(r)
            gram = np.conj(vecs.T) @ vecs
            assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_needs_two_frames(self):
        sig = FoaSignal(channels=np.zeros((4, 2000)), sample_rate=FS)
        with pytest.raises(ValueError):
            spatial_covariance(stft(sig, 1))


class TestMusicSpectrum:
    def test_peak_at_class_center_source(self):
        center = GRID.directions[137]
        spec = stft(plane_wave(center, seed=3), 25)
        cov = spatial_covariance(spec)
        scores = music_spectrum(cov, GRID)
        assert int(np.argmax(scores)) == 137

    def test_isotropic_noise_is_near_flat(self):
        noise = speech_shaped_noise(32000, seed=4)
        cov = spatial_covariance(stft(noise, 40))
        scores = music_spectrum(cov, GRID)
        assert scores.max() / scores.min() < 3.0

    def test_scores_strictly_positive(self):
        rng = np.random.default_rng(5)
        sig = FoaSignal(channels=rng.standard_normal((4, 14000)), sample_rate=FS)
        scores = music_spectrum(spatial_covariance(stft(sig, 25)), GRID)
        assert np.all(scores > 0.0)

    def test_stacked_pass_equals_per_bin_loop(self):
        sig = mix_noise(plane_wave([0.0, 0.6, 0.8], seed=9),
                        speech_shaped_noise(16000, seed=10), 10.0)
        cov = spatial_covariance(stft(sig, 25))
        steering = foa_gains(GRID.directions)
        scores = np.zeros(len(GRID))
        for r in cov.matrices:
            _, vecs = np.linalg.eigh(r)
            norms = np.einsum("ij,ij->i", steering, steering)
            proj = np.maximum(norms - np.abs(np.conj(vecs[:, 3]) @ steering.T) ** 2, 0.0)
            bin_scores = 1.0 / (proj + SCORE_EPS)
            scores += bin_scores / bin_scores.max()
        assert len(cov.matrices) > 100
        assert np.array_equal(music_spectrum(cov, GRID), scores / len(cov.matrices))

    @pytest.mark.parametrize("kind", ["random-psd", "plane-wave-plus-noise"])
    def test_signal_eigenvector_identity_matches_noise_subspace(self, kind):
        rng = np.random.default_rng(12)
        if kind == "random-psd":
            z = rng.standard_normal((60, 4, 4)) + 1j * rng.standard_normal((60, 4, 4))
            mats = z @ np.conj(np.transpose(z, (0, 2, 1)))
        else:
            sig = mix_noise(plane_wave(GRID.directions[200], seed=13),
                            speech_shaped_noise(16000, seed=14), 5.0)
            mats = spatial_covariance(stft(sig, 25)).matrices
        steering = foa_gains(GRID.directions)
        assert np.allclose(np.sum(steering**2, axis=1), 4.0)
        _, vecs = np.linalg.eigh(mats)
        noise = np.sum(np.abs(steering @ np.conj(vecs[:, :, :3])) ** 2, axis=2)
        one = 4.0 - np.abs(np.conj(vecs[:, :, 3]) @ steering.T) ** 2
        assert noise.shape == (len(mats), len(GRID))
        assert np.abs(one - noise).max() <= 1e-12

    def test_noiseless_plane_wave_peaks_at_its_class(self):
        center = GRID.directions[137]
        cov = spatial_covariance(stft(plane_wave(center, seed=15), 25))
        # at the true direction the subtraction cancels to rounding and falls
        # below zero in some bins, where the clamp holds it at 0
        _, vecs = np.linalg.eigh(cov.matrices)
        a = foa_gains(center)
        assert (a @ a - np.abs(np.conj(vecs[:, :, 3]) @ a) ** 2).min() < 0.0
        scores = music_spectrum(cov, GRID)
        assert np.all(np.isfinite(scores)) and np.all(scores > 0.0)
        assert int(np.argmax(scores)) == 137

    def test_covariance_set_validates_hermitian(self):
        bad = np.zeros((2, 4, 4), dtype=complex)
        bad[0, 0, 1] = 1.0  # asymmetric
        with pytest.raises(ValueError):
            CovarianceSet(matrices=bad)


@pytest.mark.parametrize("hop", [1, 5])
def test_track_scores_are_the_per_window_spectra(hop):
    sig = mix_noise(plane_wave([0.6, 0.0, 0.8], n=24000, seed=11),
                    speech_shaped_noise(24000, seed=12), 20.0)
    spec = stft(sig, (24000 - 1024) // 512 + 1, window=1024)
    frames = 25
    got = list(window_spectra(spec, GRID, frames, hop))
    starts = range(0, spec.n_frames - frames + 1, hop)
    assert len(got) == len(starts) > 1
    for s, scores in zip(starts, got):
        cov = spatial_covariance(spec, slice(s, s + frames))
        assert np.array_equal(music_spectrum(cov, GRID), scores)
        # the covariance is the einsum it replaced, bit for bit
        x = spec.bins[:, s : s + frames, band_to_bins(spec)]
        assert np.array_equal(cov.matrices,
                              np.einsum("ctb,dtb->bcd", x, np.conj(x), optimize=True) / frames)


class TestMusicEstimate:
    def test_anechoic_plane_wave_at_20db(self):
        rng = np.random.default_rng(6)
        hits = 0
        for k in range(10):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            sig = plane_wave(u, n=16000, seed=100 + k)
            noisy = mix_noise(sig, speech_shaped_noise(16000, seed=200 + k), 20.0)
            est, _ = music_estimate(noisy, GRID)
            if np.degrees(great_circle(est, u)) <= 10.0:
                hits += 1
        assert hits == 10

    def test_deterministic(self):
        sig = plane_wave([0.0, 0.6, 0.8], seed=7)
        a, _ = music_estimate(sig, GRID)
        b, _ = music_estimate(sig, GRID)
        np.testing.assert_array_equal(a, b)

    def test_scale_invariant(self):
        sig = plane_wave([0.48, -0.6, 0.64], seed=8)
        scaled = FoaSignal(channels=123.0 * sig.channels, sample_rate=FS)
        a, _ = music_estimate(sig, GRID)
        b, _ = music_estimate(scaled, GRID)
        np.testing.assert_array_equal(a, b)

    def test_band_selection_errors_on_empty(self):
        spec = stft(plane_wave([1.0, 0, 0]), 25)
        with pytest.raises(ValueError):
            band_to_bins(spec, (7900.0, 7901.0))

    def test_reverberation_degrades_estimate_report(self, capsys):
        # qualitative: reverberant error is typically larger than anechoic;
        # reported, not asserted
        from ambidoa.acoustics import RoomConfig, Scene, image_source_paths
        from ambidoa.features import convolve_foa
        from ambidoa.foa import encode_srir

        room = RoomConfig(dims=(6.0, 7.0, 3.0), absorption=0.15)
        scene = Scene(room=room, source=(1.5, 2.0, 1.2), listener=(4.5, 5.0, 1.8))
        truth = scene.source - scene.listener
        truth /= np.linalg.norm(truth)
        rng = np.random.default_rng(11)
        dry = rng.standard_normal(16000)

        anechoic = encode_plane_wave(dry, truth, FS)
        est_a, _ = music_estimate(anechoic, GRID)
        err_a = np.degrees(great_circle(est_a, truth))

        ir = encode_srir(image_source_paths(scene, max_order=6), FS, FS)
        reverberant = convolve_foa(dry, ir)
        est_r, _ = music_estimate(reverberant, GRID)
        err_r = np.degrees(great_circle(est_r, truth))

        print(f"[report] MUSIC anechoic {err_a:.1f} deg vs reverberant "
              f"{err_r:.1f} deg (RT60 around 0.5 s)")
        assert 0.0 <= err_a <= 180.0 and 0.0 <= err_r <= 180.0
