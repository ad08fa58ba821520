import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft

import ambidoa
from ambidoa.features import (
    FeatureTensor,
    Spectrogram,
    babble_noise,
    convolve_foa,
    decode_direction,
    intensity_features,
    mix_noise,
    read_features,
    sample_snr,
    speech_shaped_noise,
    stft,
    synthetic_speech,
    write_features,
)
from ambidoa.features import _ICOSAHEDRON, _next_fast_len, _speech_envelope_gain
from ambidoa.foa import FoaSignal, encode_plane_wave, foa_gains
from ambidoa.geometry import great_circle, to_cartesian

FS = 16000


def plane_wave_noise(direction, n=16000, seed=0):
    rng = np.random.default_rng(seed)
    return encode_plane_wave(rng.standard_normal(n), direction, FS)


class TestConvolve:
    def test_delta_identity(self):
        rng = np.random.default_rng(0)
        ir = FoaSignal(channels=rng.standard_normal((4, 50)), sample_rate=FS)
        delta = np.zeros(1)
        delta[0] = 1.0
        out = convolve_foa(delta, ir)
        np.testing.assert_allclose(out.channels, ir.channels, atol=1e-12)

    def test_w_only_impulse_ir(self):
        ir_ch = np.zeros((4, 10))
        ir_ch[0, 0] = 1.0
        ir = FoaSignal(channels=ir_ch, sample_rate=FS)
        rng = np.random.default_rng(1)
        dry = rng.standard_normal(100)
        out = convolve_foa(dry, ir)
        np.testing.assert_allclose(out.channels[0, :100], dry, atol=1e-12)
        assert np.abs(out.channels[1:]).max() < 1e-12

    def test_single_tap_gives_delayed_copy(self):
        ir_ch = np.zeros((4, 40))
        ir_ch[0, 32] = 0.5
        ir = FoaSignal(channels=ir_ch, sample_rate=FS)
        rng = np.random.default_rng(2)
        dry = rng.standard_normal(FS)  # 1-second clip
        out = convolve_foa(dry, ir)
        assert out.channels.shape[1] == FS + 39
        np.testing.assert_allclose(out.channels[0, 32 : 32 + FS], 0.5 * dry, atol=1e-9)

    @pytest.mark.parametrize("n_ir, n_dry", [
        *np.random.default_rng(41).integers(1, 4000, size=(6, 2)).tolist(),
        (16000, 16000),  # the render's 1 s IR and 1 s clip
        (1, 1), (1, 777), (777, 1),
    ])
    def test_matches_fftconvolve_bit_for_bit(self, n_ir, n_dry):
        from scipy.signal import fftconvolve  # the reference only

        rng = np.random.default_rng([n_ir, n_dry])
        ir = FoaSignal(channels=rng.standard_normal((4, n_ir)), sample_rate=FS)
        dry = rng.standard_normal(n_dry)
        out = convolve_foa(dry, ir)
        ref = fftconvolve(ir.channels, dry[None, :], mode="full", axes=1)
        assert out.sample_rate == FS
        np.testing.assert_array_equal(out.channels, ref)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_next_fast_len_is_scipys(self, real):
        # 5-smooth for real transforms, 11-smooth otherwise: the noise draws
        # are sized by the complex rule, so a 5-smooth one would change them
        assert _next_fast_len(3328, real) == (3375 if real else 3360)
        ns = range(1, 70000)
        assert [_next_fast_len(n, real) for n in ns] == \
            [sp_fft.next_fast_len(n, real) for n in ns]

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(42)
        ir = FoaSignal(channels=rng.standard_normal((4, 700)), sample_rate=FS)
        dry = rng.standard_normal(1500)
        out = convolve_foa(dry, ir).channels
        for ch in range(4):
            ref = np.convolve(ir.channels[ch], dry)
            assert np.abs(out[ch] - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("dry", [[], [[1.0, 2.0]], 3.0, [1.0, np.nan], [np.inf]],
                             ids=["empty", "2-d", "scalar", "nan", "inf"])
    def test_bad_dry_is_refused_by_name(self, dry):
        ir = FoaSignal(channels=np.ones((4, 8)), sample_rate=FS)
        with pytest.raises(ValueError, match=r"^dry must be a non-empty, 1-D, finite array"):
            convolve_foa(dry, ir)


class TestNoise:
    def test_snr_statistics(self):
        rng = np.random.default_rng(99)
        draws = np.array([sample_snr(rng) for _ in range(10000)])
        assert abs(draws.mean() - 15.0) < 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_equal_power_zero_snr_keeps_noise_unscaled(self):
        sig = FoaSignal(channels=np.ones((4, 100)), sample_rate=FS)
        noise = FoaSignal(channels=-np.ones((4, 100)), sample_rate=FS)
        out = mix_noise(sig, noise, snr_db=0.0)
        np.testing.assert_allclose(out.channels, 0.0, atol=1e-12)

    def test_ten_db_scale(self):
        sig = FoaSignal(channels=np.ones((4, 64)), sample_rate=FS)
        noise_ch = np.zeros((4, 64))
        noise_ch[0] = 1.0
        noise = FoaSignal(channels=noise_ch, sample_rate=FS)
        out = mix_noise(sig, noise, snr_db=10.0)
        scale = out.channels[0, 0] - 1.0
        assert scale == pytest.approx(10 ** -0.5, abs=1e-12)

    def test_achieved_snr(self):
        rng = np.random.default_rng(3)
        sig = FoaSignal(channels=rng.standard_normal((4, 8000)), sample_rate=FS)
        noise = FoaSignal(channels=rng.standard_normal((4, 8000)), sample_rate=FS)
        out = mix_noise(sig, noise, snr_db=6.0)
        added = out.channels[0] - sig.channels[0]
        achieved = 10 * np.log10(np.mean(sig.channels[0] ** 2) / np.mean(added**2))
        assert achieved == pytest.approx(6.0, abs=1e-9)

    def test_zero_power_rejected(self):
        sig = FoaSignal(channels=np.zeros((4, 32)), sample_rate=FS)
        noise = FoaSignal(channels=np.ones((4, 32)), sample_rate=FS)
        with pytest.raises(ValueError):
            mix_noise(sig, noise, 10.0)
        with pytest.raises(ValueError):
            mix_noise(noise, sig, 10.0)

    def test_short_noise_rejected(self):
        sig = FoaSignal(channels=np.ones((4, 64)), sample_rate=FS)
        noise = FoaSignal(channels=np.ones((4, 32)), sample_rate=FS)
        with pytest.raises(ValueError):
            mix_noise(sig, noise, 10.0)


# digests of one babble and one speech-shaped noise field at render length
NOISE_DIGESTS = """
import hashlib
from ambidoa.features import babble_noise, speech_shaped_noise
for noise in (babble_noise(31999, 3), speech_shaped_noise(31999, 4)):
    print(hashlib.sha256(noise.channels.tobytes()).hexdigest())
"""


class TestSpeechShapedNoise:
    def test_deterministic(self):
        a = speech_shaped_noise(2048, seed=5)
        b = speech_shaped_noise(2048, seed=5)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_w_power_positive(self):
        out = speech_shaped_noise(4096, seed=1)
        assert np.mean(out.channels[0] ** 2) > 0.0

    def test_spectral_slope(self):
        # designed envelope: -6 dB per octave above the 500 Hz shelf
        out = speech_shaped_noise(1 << 17, seed=2)
        spec = np.abs(np.fft.rfft(out.channels[0])) ** 2
        freqs = np.fft.rfftfreq(out.channels.shape[1], 1.0 / FS)

        def band_db(f0):
            sel = (freqs >= f0 / 2**0.25) & (freqs <= f0 * 2**0.25)
            return 10 * np.log10(spec[sel].mean())

        for f0 in (1000.0, 2000.0, 4000.0):
            drop = band_db(f0) - band_db(2 * f0)
            assert drop == pytest.approx(6.0, abs=3.0)

    def test_length_floor(self):
        with pytest.raises(ValueError):
            speech_shaped_noise(512, seed=0)

    @pytest.mark.parametrize("kwargs, field", [
        ({"length": 2048.0}, "length"),
        ({"length": True}, "length"),
        ({"length": "2048"}, "length"),
        ({"length": 2048, "n_talkers": 0}, "n_talkers"),
        ({"length": 2048, "n_talkers": -1}, "n_talkers"),
        ({"length": 2048, "n_talkers": 1.5}, "n_talkers"),
        ({"length": 2048, "n_talkers": True}, "n_talkers"),
    ])
    def test_bad_noise_input_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            babble_noise(seed=1, **kwargs)
        if "n_talkers" not in kwargs:
            with pytest.raises(ValueError, match=field):
                speech_shaped_noise(seed=1, **kwargs)

    @pytest.mark.parametrize("n_talkers", [1, 6])
    def test_babble_is_each_stream_shaped_then_encoded(self, n_talkers):
        # reference: every stream shaped on its own from the same draw, then
        # encoded from its icosahedron direction (talker-major) and summed;
        # 31,999 samples pad to 32,000, so the truncation is exercised too
        length, seed = 31999, 8
        fast = sp_fft.next_fast_len(length)
        assert fast > length
        white = np.random.default_rng(seed).standard_normal((n_talkers * 12, fast))
        envelope = _speech_envelope_gain(np.fft.rfftfreq(fast, d=1.0 / FS))
        ref = np.zeros((4, length))
        for k, row in enumerate(white):
            stream = np.fft.irfft(np.fft.rfft(row) * envelope, n=fast)[:length]
            ref += foa_gains(_ICOSAHEDRON[k % 12])[:, None] * stream
        ref /= np.sqrt(n_talkers * 12)
        out = babble_noise(length, seed, FS, n_talkers=n_talkers).channels
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_noise_does_not_depend_on_the_blas_thread_count(self):
        path = [os.path.dirname(os.path.dirname(ambidoa.__file__))]
        path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(path)}
            run = subprocess.run([sys.executable, "-c", NOISE_DIGESTS], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    def test_babble_is_deterministic_sum(self):
        a = babble_noise(2048, seed=4)
        b = babble_noise(2048, seed=4)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_synthetic_speech_bursts(self):
        s = synthetic_speech(FS, seed=6)
        assert s.shape == (FS,)
        assert np.abs(s).max() == pytest.approx(1.0)


class TestStft:
    def test_zero_in_zero_out(self):
        sig = FoaSignal(channels=np.zeros((4, 14000)), sample_rate=FS)
        spec = stft(sig, frames=25)
        assert spec.bins.shape == (4, 25, 513)
        assert np.all(spec.bins == 0.0)

    def test_sine_peaks_at_its_bin(self):
        k = 40  # bin-center frequency k * fs / 1024
        t = np.arange(14000) / FS
        sine = np.sin(2 * np.pi * (k * FS / 1024) * t)
        spec = stft(FoaSignal(channels=np.tile(sine, (4, 1)), sample_rate=FS), 25)
        mags = np.abs(spec.bins[0])
        np.testing.assert_array_equal(np.argmax(mags, axis=1), np.full(25, k))

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2048)
        sig = FoaSignal(channels=np.tile(x, (4, 1)), sample_rate=FS)
        spec = stft(sig, frames=2)
        win = np.hanning(1025)[:-1]
        for f in range(2):
            frame = x[f * 512 : f * 512 + 1024] * win
            time_energy = 1024 * np.sum(frame**2)
            two_sided = np.abs(np.fft.fft(frame)) ** 2
            coeffs = spec.bins[0, f]
            one_sided = (
                np.abs(coeffs[0]) ** 2
                + np.abs(coeffs[-1]) ** 2
                + 2 * np.sum(np.abs(coeffs[1:-1]) ** 2)
            )
            assert one_sided == pytest.approx(np.sum(two_sided), rel=1e-12)
            assert one_sided == pytest.approx(time_energy, rel=1e-6)

    def test_window_256_bin_count(self):
        sig = FoaSignal(channels=np.zeros((4, 4000)), sample_rate=FS)
        spec = stft(sig, frames=25, window=256)
        assert spec.bins.shape == (4, 25, 129)

    def test_too_short_signal(self):
        sig = FoaSignal(channels=np.zeros((4, 1000)), sample_rate=FS)
        with pytest.raises(ValueError):
            stft(sig, frames=25)

    @pytest.mark.parametrize("kwargs, field", [
        ({"frames": 0}, "frames"), ({"frames": 2.5}, "frames"), ({"frames": True}, "frames"),
        ({"window": 1}, "window"), ({"window": 0}, "window"), ({"window": 256.0}, "window"),
        ({"window": True}, "window"),
    ])
    def test_bad_geometry_is_refused_by_name(self, kwargs, field):
        sig = FoaSignal(channels=np.zeros((4, 4000)), sample_rate=FS)
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            stft(sig, **{"frames": 2, "window": 256, **kwargs})


class TestIntensityFeatures:
    def test_plane_wave_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            spec = stft(plane_wave_noise(u, seed=rng.integers(1 << 31)), frames=25)
            feats = intensity_features(spec)
            active = np.abs(spec.bins[0]) > 1e-3 * np.abs(spec.bins[0]).max()
            for axis in range(3):
                vals = feats.values[axis][active]
                np.testing.assert_allclose(vals, np.sqrt(3) / 2 * u[axis], atol=1e-6)
            np.testing.assert_allclose(feats.values[3:][:, active], 0.0, atol=1e-6)

    def test_zero_bins_give_zero_features(self):
        spec = Spectrogram(
            bins=np.zeros((4, 3, 513), dtype=complex), sample_rate=FS
        )
        feats = intensity_features(spec)
        assert np.all(feats.values == 0.0)

    def test_azimuth_negation_flips_y_rows(self):
        az, el = 0.8, 0.0
        a = intensity_features(stft(plane_wave_noise(to_cartesian(az, el), seed=3), 25))
        b = intensity_features(stft(plane_wave_noise(to_cartesian(-az, el), seed=3), 25))
        np.testing.assert_allclose(b.values[1], -a.values[1], atol=1e-12)
        np.testing.assert_allclose(b.values[4], -a.values[4], atol=1e-12)
        np.testing.assert_allclose(b.values[0], a.values[0], atol=1e-12)
        np.testing.assert_allclose(b.values[2], a.values[2], atol=1e-12)

    def test_bound_on_random_spectra(self):
        rng = np.random.default_rng(13)
        bins = rng.standard_normal((4, 10, 513)) + 1j * rng.standard_normal((4, 10, 513))
        feats = intensity_features(Spectrogram(bins=bins, sample_rate=FS))
        assert np.abs(feats.values).max() <= np.sqrt(3) / 2 + 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        bins = rng.standard_normal((4, 5, 513)) + 1j * rng.standard_normal((4, 5, 513))
        a = intensity_features(Spectrogram(bins=bins, sample_rate=FS))
        b = intensity_features(Spectrogram(bins=100.0 * bins, sample_rate=FS))
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_real_spectrum_has_zero_reactive_part(self):
        rng = np.random.default_rng(19)
        bins = rng.standard_normal((4, 4, 513)).astype(complex)
        feats = intensity_features(Spectrogram(bins=bins, sample_rate=FS))
        assert np.abs(feats.values[3:]).max() == 0.0

    def test_decode_direction_within_half_degree(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            feats = intensity_features(
                stft(plane_wave_noise(u, seed=rng.integers(1 << 31)), 25)
            )
            err = np.degrees(great_circle(decode_direction(feats), u))
            assert err < 0.5


class TestFeatureContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        values = rng.uniform(-0.8, 0.8, (6, 25, 129))
        path = tmp_path / "sample.adoa"
        write_features(path, FeatureTensor(values=values))
        back = read_features(path)
        np.testing.assert_allclose(back.values, values.astype(np.float32), atol=1e-7)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.adoa"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError):
            read_features(path)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_truncation_or_append_names_the_file(self, data):
        values = np.linspace(-0.8, 0.8, 6 * 3 * 5).reshape(6, 3, 5)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sample.adoa")
            write_features(path, FeatureTensor(values=values))
            with open(path, "rb") as f:
                raw = f.read()
            cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
            extra = data.draw(st.binary(min_size=1, max_size=7), label="extra")
            for blob in (raw[:cut], raw + extra):
                with open(path, "wb") as f:
                    f.write(blob)
                with pytest.raises(ValueError) as err:
                    read_features(path)
                assert path in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_the_file(self, tmp_path, value):
        path = tmp_path / "sample.adoa"
        write_features(path, FeatureTensor(values=np.zeros((6, 3, 5))))
        raw = bytearray(path.read_bytes())
        raw[20 + 4 * 7 : 20 + 4 * 8] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="sample.adoa: intensity features must "
                                             "be finite"):
            read_features(path)

    def test_bound_enforced_on_construction(self):
        bad = np.full((6, 2, 4), 1.5)
        with pytest.raises(ValueError):
            FeatureTensor(values=bad)
