import numpy as np
import pytest

from ambidoa.acoustics import PathSet
from ambidoa.foa import (
    FoaSignal,
    encode_plane_wave,
    encode_srir,
    foa_gains,
    read_wav,
    write_wav,
)
from ambidoa.geometry import to_cartesian

SQ3 = np.sqrt(3.0)


def single_path(direction, delay, amplitude=1.0):
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    return PathSet(
        directions=d[None, :],
        delays=np.array([delay]),
        amplitudes=np.array([amplitude]),
        orders=np.array([0]),
        diffuse=np.array([False]),
    )


def combined(*sets):
    """One PathSet holding the arrivals of every given set, in order."""
    return PathSet(
        directions=np.concatenate([s.directions for s in sets]),
        delays=np.concatenate([s.delays for s in sets]),
        amplitudes=np.concatenate([s.amplitudes for s in sets]),
        orders=np.concatenate([s.orders for s in sets]),
        diffuse=np.concatenate([s.diffuse for s in sets]),
    )


def add_at_reference(paths, sample_rate, length):
    """Channels of ``encode_srir`` as one scatter-add of amplitude * gains per
    channel: the reference its weighted bincounts must match bit for bit."""
    samples = np.rint(paths.delays * sample_rate).astype(np.int64)
    contributions = paths.amplitudes[:, None] * foa_gains(paths.directions)
    channels = np.zeros((4, length))
    for ch in range(4):
        np.add.at(channels[ch], samples, contributions[:, ch])
    return channels


def direction_of_ir_peak(ir: FoaSignal):
    """Recover the arrival direction of a single-path IR from the encoded
    gains at its loudest sample: (X, Y, Z) / (sqrt(3) W)."""
    peak = int(np.argmax(np.abs(ir.channels[0])))
    w = ir.channels[0, peak]
    if w == 0.0:
        raise ValueError("W channel is zero at the peak sample")
    v = ir.channels[1:, peak] / (np.sqrt(3.0) * w)
    return v / np.linalg.norm(v)


class TestGains:
    def test_cardinal_directions(self):
        np.testing.assert_allclose(foa_gains(to_cartesian(0, 0)), [1, SQ3, 0, 0], atol=1e-15)
        np.testing.assert_allclose(
            foa_gains(to_cartesian(np.pi / 2, 0)), [1, 0, SQ3, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            foa_gains(to_cartesian(0, np.pi / 2)), [1, 0, 0, SQ3], atol=1e-15
        )

    def test_diagonal_direction(self):
        g = foa_gains(to_cartesian(np.pi / 4, 0))
        np.testing.assert_allclose(g, [1, np.sqrt(6) / 2, np.sqrt(6) / 2, 0], atol=1e-15)

    def test_norm_is_two(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((10000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        norms2 = np.sum(foa_gains(u) ** 2, axis=1)
        np.testing.assert_allclose(norms2, 4.0, atol=1e-12)


class TestEncodePlaneWave:
    def test_impulse_from_front(self):
        sig = np.zeros(8)
        sig[0] = 1.0
        out = encode_plane_wave(sig, to_cartesian(0, 0))
        np.testing.assert_allclose(out.channels[0], sig)
        np.testing.assert_allclose(out.channels[1], SQ3 * sig)
        np.testing.assert_allclose(out.channels[2], 0.0)
        np.testing.assert_allclose(out.channels[3], 0.0)

    def test_w_equals_input_exactly(self):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal(500)
        out = encode_plane_wave(sig, to_cartesian(0.9, -0.4))
        np.testing.assert_array_equal(out.channels[0], sig)

    def test_zenith_kills_x_and_y(self):
        rng = np.random.default_rng(2)
        sig = rng.standard_normal(100)
        out = encode_plane_wave(sig, to_cartesian(1.1, np.pi / 2))
        assert np.abs(out.channels[1]).max() < 1e-15
        assert np.abs(out.channels[2]).max() < 1e-15

    def test_channel_ratio(self):
        t = np.arange(256) / 16000.0
        sine = np.sin(2 * np.pi * 440 * t)
        out = encode_plane_wave(sine, to_cartesian(np.pi / 4, np.pi / 6))
        expected = SQ3 * np.cos(np.pi / 4) * np.cos(np.pi / 6)
        active = np.abs(out.channels[0]) > 1e-6
        np.testing.assert_allclose(
            out.channels[1, active] / out.channels[0, active], expected, atol=1e-12
        )

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            encode_plane_wave(np.array([]), to_cartesian(0, 0))


class TestEncodeSrir:
    def test_single_path_sample_and_values(self):
        direction = np.array([-2.0, -3.0, -1.0]) / np.sqrt(14)
        ir = encode_srir(single_path(direction, np.sqrt(14) / 343.0), 16000, 1600)
        nonzero = np.nonzero(ir.channels[0])[0]
        assert list(nonzero) == [175]  # round(10.909 ms * 16 kHz)
        assert ir.channels[0, 175] == pytest.approx(1.0)
        np.testing.assert_allclose(ir.channels[1:, 175], SQ3 * direction, atol=1e-12)

    def test_empty_paths_give_silence(self):
        empty = PathSet(
            directions=np.zeros((0, 3)),
            delays=np.zeros(0),
            amplitudes=np.zeros(0),
            orders=np.zeros(0, dtype=np.int64),
            diffuse=np.zeros(0, dtype=bool),
        )
        ir = encode_srir(empty, 16000, 64)
        assert np.all(ir.channels == 0.0)

    def test_linearity_in_path_sets(self):
        a = single_path([1, 0, 0], 0.001, 0.7)
        b = single_path([0, 1, 0], 0.002, -0.4)
        both = combined(a, b)
        ir = encode_srir(both, 16000, 64)
        expected = encode_srir(a, 16000, 64).channels + encode_srir(b, 16000, 64).channels
        np.testing.assert_allclose(ir.channels, expected, atol=1e-15)

    def test_permutation_invariance(self):
        a = single_path([1, 0, 0], 0.001, 0.7)
        b = single_path([0, 0, 1], 0.0015, 0.3)
        ab = encode_srir(combined(a, b), 16000, 64)
        ba = encode_srir(combined(b, a), 16000, 64)
        np.testing.assert_array_equal(ab.channels, ba.channels)

    def test_same_sample_amplitudes_add(self):
        a = single_path([1, 0, 0], 0.001, 0.5)
        b = single_path([1, 0, 0], 0.001, 0.25)
        ir = encode_srir(combined(a, b), 16000, 64)
        assert ir.channels[0, 16] == pytest.approx(0.75)

    def test_matches_a_scatter_add_with_many_arrivals_per_sample(self):
        rng = np.random.default_rng(6)
        n = 20000
        d = rng.standard_normal((n, 3))
        paths = PathSet(
            directions=d / np.linalg.norm(d, axis=1, keepdims=True),
            # 20000 arrivals over 40 samples: about 500 per sample, in no order
            delays=rng.integers(0, 40, n) / 16000.0 + rng.uniform(-3e-5, 3e-5, n),
            amplitudes=rng.standard_normal(n) * np.exp(rng.uniform(-20, 0, n)),
            orders=np.zeros(n, dtype=np.int64),
            diffuse=np.ones(n, dtype=bool),
        )
        ir = encode_srir(paths, 16000, 64)
        np.testing.assert_array_equal(ir.channels, add_at_reference(paths, 16000, 64))

    @pytest.mark.parametrize("field, value", [
        ("delays", np.nan), ("delays", np.inf), ("amplitudes", np.inf),
        ("amplitudes", np.nan), ("directions", np.nan), ("directions", -np.inf),
    ])
    def test_non_finite_arrival_is_named(self, field, value):
        paths = combined(*(single_path([1, 0, 0], 0.001 * (k + 1), 0.5) for k in range(4)))
        if field == "directions":
            paths.directions[2, 1] = value
        else:
            getattr(paths, field)[2] = value
        with pytest.raises(ValueError, match=f"^{field} of arrival #2 is not finite"):
            encode_srir(paths, 16000, 64)

    def test_late_delay_rejected_with_detail(self):
        with pytest.raises(ValueError, match="outside"):
            encode_srir(single_path([1, 0, 0], 0.5), 16000, 100)

    def test_direction_recovery(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            ir = encode_srir(single_path(d, 0.002, 0.9), 16000, 128)
            recovered = direction_of_ir_peak(ir)
            np.testing.assert_allclose(recovered, d, atol=1e-9)


class TestWav:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ir = FoaSignal(channels=rng.standard_normal((4, 333)) * 0.1, sample_rate=16000)
        path = tmp_path / "ir.wav"
        write_wav(path, ir)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(
            back.channels, ir.channels.astype(np.float32), atol=1e-7
        )

    # each stored type, with the samples it holds and the floats they mean
    PCM = {
        "uint8": (np.array([0, 64, 128, 255], np.uint8),
                  np.array([-1.0, -0.5, 0.0, 127 / 128])),
        "int16": (np.array([-32768, -1, 0, 32767], np.int16),
                  np.array([-32768 / 32767, -1 / 32767, 0.0, 1.0])),
        "int32": (np.array([-2**31, -1, 0, 2**31 - 1], np.int32),
                  np.array([-2**31 / (2**31 - 1), -1 / (2**31 - 1), 0.0, 1.0])),
        "float32": (np.array([-1.0, -0.25, 0.0, 0.75], np.float32),
                    np.array([-1.0, -0.25, 0.0, 0.75])),
    }

    @pytest.mark.parametrize("dtype", sorted(PCM))
    def test_every_sample_type_reads_as_float(self, tmp_path, dtype):
        from scipy.io import wavfile

        stored, meaning = self.PCM[dtype]
        path = tmp_path / f"{dtype}.wav"
        wavfile.write(path, 16000, np.tile(stored[:, None], (1, 4)))
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.channels, np.tile(meaning, (4, 1)))

    def test_other_sample_types_are_refused_by_file(self, tmp_path, monkeypatch):
        from scipy.io import wavfile

        path = tmp_path / "odd.wav"
        write_wav(path, FoaSignal(channels=np.ones((4, 8)), sample_rate=16000))
        monkeypatch.setattr(wavfile, "read", lambda p: (16000, np.ones((8, 4), np.uint16)))
        with pytest.raises(ValueError, match=r"odd\.wav: unsupported WAV sample type uint16"):
            read_wav(path)

    def test_channel_count_enforced(self):
        with pytest.raises(ValueError):
            FoaSignal(channels=np.zeros((3, 10)), sample_rate=16000)
        with pytest.raises(ValueError):
            FoaSignal(channels=np.zeros((4, 0)), sample_rate=16000)
