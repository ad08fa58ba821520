import json
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambidoa import estimator, evaluate, music, nn
from ambidoa.acoustics import (
    PathSet,
    RoomConfig,
    Scene,
    image_source_paths,
    sample_scenes,
    trace_paths,
)
from ambidoa.estimator import (
    Formulation,
    NetworkConfig,
    TrainConfig,
    build_network,
    predict,
    predict_sample,
    train,
)
from ambidoa.evaluate import (
    RenderConfig,
    SampleRecord,
    TrackResult,
    angular_error,
    compare_methods,
    load_dataset,
    load_manifest,
    music_window_predictor,
    net_window_predictor,
    propagate,
    render_dataset,
    sample_rng,
    tolerance_accuracy,
    track,
)
from ambidoa.features import Spectrogram, intensity_features, stft
from ambidoa.foa import FoaSignal, encode_plane_wave, encode_srir
from ambidoa.geometry import build_grid, great_circle, to_cartesian
from ambidoa.music import music_spectrum, spatial_covariance

FAST_RENDER = RenderConfig(method="image", max_order=2)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    scenes = sample_scenes(30, seed=5, pairs_per_room=3, absorption=0.8)
    records = render_dataset(scenes, out, FAST_RENDER, seed=11)
    return out, scenes, records


class TestRenderDataset:
    def test_row_count_ten_rooms_three_pairs(self, small_dataset):
        out, scenes, records = small_dataset
        assert len(records) == 30
        manifest = load_manifest(os.path.join(out, "manifest.jsonl"))
        assert len(manifest) == 30

    def test_labels_unit_norm(self, small_dataset):
        _, _, records = small_dataset
        for rec in records:
            assert np.linalg.norm(rec.label) == pytest.approx(1.0, abs=1e-9)

    def test_label_is_direct_path_direction(self, small_dataset):
        _, scenes, records = small_dataset
        for scene, rec in zip(scenes, records):
            expected = scene.source - scene.listener
            expected /= np.linalg.norm(expected)
            np.testing.assert_allclose(rec.label, expected, atol=1e-9)

    def test_image_vs_trace_same_labels_different_features(self, tmp_path):
        scenes = sample_scenes(4, seed=2, pairs_per_room=1, absorption=0.5,
                               scattering=0.5)
        cfg_t = RenderConfig(method="trace", n_rays=4000, max_bounces=20)
        ri = render_dataset(scenes, tmp_path / "img", FAST_RENDER, seed=9)
        rt = render_dataset(scenes, tmp_path / "trc", cfg_t, seed=9)
        xi, yi = load_dataset(ri, tmp_path / "img")
        xt, yt = load_dataset(rt, tmp_path / "trc")
        np.testing.assert_allclose(yi, yt, atol=1e-12)
        assert not np.allclose(xi, xt)

    def test_rendering_deterministic_bytes(self, tmp_path):
        scenes = sample_scenes(3, seed=3, pairs_per_room=1, absorption=0.8)
        a, b = tmp_path / "a", tmp_path / "b"
        render_dataset(scenes, a, FAST_RENDER, seed=21)
        render_dataset(scenes, b, FAST_RENDER, seed=21)
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        scenes = sample_scenes(4, seed=4, pairs_per_room=1, absorption=0.8)
        a, b = tmp_path / "one", tmp_path / "four"
        render_dataset(scenes, a, FAST_RENDER, seed=8, workers=1)
        render_dataset(scenes, b, FAST_RENDER, seed=8, workers=4)
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        scenes = sample_scenes(1, seed=1, pairs_per_room=1, absorption=0.8)
        with pytest.raises(ValueError, match="workers"):
            render_dataset(scenes, tmp_path / "out", FAST_RENDER, seed=0, workers=workers)
        assert not (tmp_path / "out").exists()

    def test_speech_at_another_sample_rate_is_refused(self, tmp_path):
        from scipy.io import wavfile

        speech = tmp_path / "speech"
        speech.mkdir()
        wavfile.write(str(speech / "talker.wav"), 48000, np.zeros(4800, dtype=np.int16))
        scenes = sample_scenes(1, seed=1, pairs_per_room=1, absorption=0.8)
        with pytest.raises(ValueError, match=r"talker\.wav: sample rate 48000 != 16000"):
            render_dataset(scenes, tmp_path / "out", FAST_RENDER, speech_dir=str(speech))

    @pytest.mark.parametrize("dtype", ["uint8", "int16", "int32", "float32"])
    def test_speech_of_every_sample_type_renders_as_its_float_values(self, tmp_path,
                                                                     dtype):
        from scipy.io import wavfile

        rng = np.random.default_rng(17)
        if dtype == "float32":
            stored = rng.uniform(-1.0, 1.0, 20000).astype(np.float32)
            meaning = stored.astype(np.float64)
        else:
            info = np.iinfo(dtype)
            stored = rng.integers(info.min, info.max, 20000, endpoint=True).astype(dtype)
            meaning = (stored - 128.0) / 128.0 if dtype == "uint8" else stored / float(info.max)
        scenes = sample_scenes(2, seed=6, pairs_per_room=1, absorption=0.8)
        for name, data in (("stored", stored), ("float64", meaning)):
            (tmp_path / name).mkdir()
            wavfile.write(str(tmp_path / name / "talker.wav"), 16000, data)
            render_dataset(scenes, tmp_path / f"out-{name}", FAST_RENDER, seed=3,
                           speech_dir=str(tmp_path / name))
        for name in ("manifest.jsonl", "sample_000000.adoa", "sample_000001.adoa"):
            assert ((tmp_path / "out-stored" / name).read_bytes()
                    == (tmp_path / "out-float64" / name).read_bytes())

    def test_speech_of_another_sample_type_is_refused_by_file(self, tmp_path,
                                                              monkeypatch):
        from scipy.io import wavfile

        speech = tmp_path / "speech"
        speech.mkdir()
        wavfile.write(str(speech / "talker.wav"), 16000, np.zeros(4800, dtype=np.int16))
        monkeypatch.setattr(wavfile, "read", lambda p: (16000, np.zeros(4800, np.uint16)))
        scenes = sample_scenes(1, seed=1, pairs_per_room=1, absorption=0.8)
        with pytest.raises(ValueError, match=r"talker\.wav: unsupported WAV sample type"):
            render_dataset(scenes, tmp_path / "out", FAST_RENDER, speech_dir=str(speech))

    def test_trace_refuses_close_pairs_before_rendering_any(self, tmp_path):
        room = RoomConfig(dims=np.array([5.0, 4.0, 3.0]), absorption=0.5)
        listener = np.array([2.0, 2.0, 1.5])
        scenes = [Scene(room, np.array([4.0, 1.0, 1.0]), listener),
                  Scene(room, listener + [0.1, 0.2, 0.0], listener),
                  Scene(room, np.array([1.0, 3.0, 2.0]), listener)]
        cfg = RenderConfig(method="trace", n_rays=500, max_bounces=5)
        with pytest.raises(ValueError, match=r"receiver sphere in scene 1 \(0\.224 m\)$"):
            render_dataset(scenes, tmp_path / "out", cfg, seed=1)
        assert not list(tmp_path.rglob("*.adoa"))
        # the image-source model has no receiver sphere and renders them all
        assert len(render_dataset(scenes, tmp_path / "img", FAST_RENDER, seed=1)) == 3

    def test_record_json_round_trip(self):
        rec = SampleRecord(
            features_path="x.adoa",
            label=to_cartesian(0.3, -0.2),
            scene_id=7,
            snr_db=14.2,
            method="image",
        )
        back = SampleRecord.from_json(rec.to_json())
        np.testing.assert_allclose(back.label, rec.label, atol=1e-9)
        assert back.scene_id == 7 and back.method == "image"


@pytest.mark.parametrize("line, message", [
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0}', "missing field 'elevation_deg'"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": 5.0, "method": "image"}', "missing field 'scene_id'"),
    ('{"features_path": "a.adoa", "azimuth_deg": "east", "elevation_deg": 0.0}',
     "azimuth_deg must be a finite number, got 'east'"),
    ('{"features_path": "a.adoa", ', "Expecting property name"),
    ("[1, 2]", "list indices must be integers"),
    ('{"features_path": "a.adoa", "azimuth_deg": NaN, "elevation_deg": 0.0, '
     '"snr_db": 5.0}', "azimuth_deg must be a finite number, got nan"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": -Infinity, '
     '"snr_db": 5.0}', "elevation_deg must be a finite number, got -inf"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": Infinity}', "snr_db must be a finite number, got inf"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": "5"}', "snr_db must be a finite number, got '5'"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": 5.0, "scene_id": 2.9, "method": "image"}',
     "scene_id must be an integer >= 0, got 2.9"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": 5.0, "scene_id": true, "method": "image"}',
     "scene_id must be an integer >= 0, got True"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": 5.0, "scene_id": -1, "method": "image"}',
     "scene_id must be an integer >= 0, got -1"),
    ('{"features_path": "a.adoa", "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": 5.0, "scene_id": 2, "method": 7}', "method must be 'image' or 'trace', got 7"),
    ('{"features_path": 5, "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": 5.0, "scene_id": 2, "method": "image"}', "features_path must be a string, got 5"),
    ('{"features_path": null, "azimuth_deg": 10.0, "elevation_deg": 0.0, '
     '"snr_db": 5.0, "scene_id": 2, "method": "trace"}',
     "features_path must be a string, got None"),
], ids=["no-elevation", "no-scene-id", "text-azimuth", "cut-json", "not-an-object",
        "nan-azimuth", "inf-elevation", "inf-snr", "text-snr", "fractional-scene-id",
        "boolean-scene-id", "negative-scene-id", "number-method", "number-path",
        "null-path"])
def test_bad_manifest_line_names_the_file_and_line(tmp_path, line, message):
    good = SampleRecord(features_path="x.adoa", label=to_cartesian(0.3, -0.2),
                        scene_id=0, snr_db=10.0, method="image").to_json()
    path = tmp_path / "manifest.jsonl"
    path.write_text(f"{good}\n\n{line}\n{good}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: {message}"):
        load_manifest(path)


def test_load_dataset_refuses_no_records(tmp_path):
    with pytest.raises(ValueError, match=f"no manifest records .* {re.escape(str(tmp_path))}$"):
        load_dataset([], str(tmp_path))


@pytest.mark.parametrize("kwargs, field", [
    (dict(window=1), "window"),
    (dict(window=256.0), "window"),
    (dict(frames=0), "frames"),
    (dict(frames=True), "frames"),
    (dict(max_order=-1), "max_order"),
    (dict(n_rays=0), "n_rays"),
    (dict(max_bounces=-1), "max_bounces"),
    (dict(max_bounces=2.5), "max_bounces"),
    (dict(receiver_radius=0.0), "receiver_radius"),
    (dict(receiver_radius=-0.3), "receiver_radius"),
    (dict(ir_seconds=-1.0), "ir_seconds"),
    (dict(ir_seconds=0.0), "ir_seconds"),
    (dict(ir_seconds=float("inf")), "ir_seconds"),
    (dict(ir_seconds=float("nan")), "ir_seconds"),
    (dict(ir_seconds=1e-5), "ir_seconds"),
    (dict(method="rays"), "method"),
])
def test_render_config_rejects_bad_values(kwargs, field):
    with pytest.raises(ValueError, match=field):
        RenderConfig(**kwargs)


def test_render_config_edge_values_stay_valid():
    RenderConfig(window=2, frames=1, max_order=0, n_rays=1, max_bounces=0)


@given(field=st.sampled_from([f.name for f in fields(RenderConfig)]),
       value=(st.integers() | st.floats() | st.booleans()
              | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_render_config_names_the_field_of_a_rejected_value(field, value):
    try:
        cfg = RenderConfig(**{field: value})
    except ValueError as exc:
        assert field in str(exc)
    else:
        assert not isinstance(value, bool) and field != "method"
        if field in ("receiver_radius", "ir_seconds"):
            assert math.isfinite(value) and value > 0
        else:
            assert isinstance(value, int) and value >= 0
        assert getattr(cfg, field) == value and cfg.ir_length >= 1


class TestPropagate:
    def test_clip_by_sample_index_keeps_buffer_in_range(self, monkeypatch):
        # 0.99999 s is below the 1 s buffer but rounds onto sample 16000
        delays = np.array([0.5, 0.99996, 0.99999])
        arrivals = PathSet(
            directions=np.tile([1.0, 0.0, 0.0], (3, 1)),
            delays=delays,
            amplitudes=np.ones(3),
            orders=np.zeros(3, dtype=np.int64),
            diffuse=np.zeros(3, dtype=bool),
        )
        monkeypatch.setattr(evaluate, "image_source_paths", lambda scene, order: arrivals)
        scene = sample_scenes(1, seed=1)[0]
        kept = propagate(scene, RenderConfig(), sample_rng(0, 0))
        np.testing.assert_array_equal(kept.delays, delays[:2])
        ir = encode_srir(kept, 16000, 16000)
        assert np.nonzero(ir.channels[0])[0].tolist() == [8000, 15999]

    @pytest.mark.parametrize("method", ["image", "trace"])
    def test_kept_arrivals_match_a_mask_select(self, method):
        # propagate keeps the in-buffer arrivals as a prefix of the delay-sorted
        # set; the reference selects them by mask from the unclipped set
        room = RoomConfig(dims=(4.0, 5.0, 3.0), absorption=0.2, scattering=0.6)
        scene = Scene(room=room, source=(1.0, 1.0, 1.0), listener=(3.0, 4.0, 2.0))
        cfg = RenderConfig(method=method, max_order=6, n_rays=3000, max_bounces=20,
                           ir_seconds=0.025)
        kept = propagate(scene, cfg, sample_rng(5, 1))
        if method == "image":
            paths = image_source_paths(scene, cfg.max_order)
        else:
            seed = int(sample_rng(5, 1).integers(1 << 62))
            paths = trace_paths(scene, cfg.n_rays, cfg.max_bounces, cfg.receiver_radius,
                                rng_seed=seed)
        expected = paths.select(np.rint(paths.delays * cfg.sample_rate) < cfg.ir_length)
        assert 0 < len(kept) < len(paths)
        for f in fields(PathSet):
            np.testing.assert_array_equal(getattr(kept, f.name), getattr(expected, f.name))

    @pytest.mark.parametrize("method", ["image", "trace"])
    def test_a_delay_limit_keeps_the_earlier_arrivals(self, method):
        # without scattering the tracer's limited set is the unlimited one's
        # prefix, so for both methods the limit only cuts the delay-sorted set
        room = RoomConfig(dims=(4.0, 5.0, 3.0), absorption=0.2, scattering=0.0)
        scene = Scene(room=room, source=(1.0, 1.0, 1.0), listener=(3.0, 4.0, 2.0))
        cfg = RenderConfig(method=method, max_order=6, n_rays=3000, max_bounces=20)
        full = propagate(scene, cfg, sample_rng(5, 1))
        kept = propagate(scene, cfg, sample_rng(5, 1), max_delay=0.04)
        expected = full.select(full.delays < 0.04)
        assert 0 < len(kept) < len(full)
        for f in fields(PathSet):
            np.testing.assert_array_equal(getattr(kept, f.name), getattr(expected, f.name))

    def test_tracer_seed_is_the_first_draw_for_every_method(self):
        scene = sample_scenes(1, seed=4)[0]
        after = []
        for method in ("image", "trace"):
            rng = sample_rng(3, 2)
            propagate(scene, RenderConfig(method=method, n_rays=200), rng)
            after.append(rng.integers(1 << 62))
        assert after[0] == after[1]


@pytest.mark.parametrize("window, span", [(256, 3328), (1024, 13312)])
def test_feature_span_is_the_length_the_stft_reads(window, span):
    cfg = RenderConfig(window=window)
    assert cfg.feature_span == span
    signal = FoaSignal(np.ones((4, span)), cfg.sample_rate)
    assert stft(signal, frames=cfg.frames, window=window).n_frames == cfg.frames
    with pytest.raises(ValueError, match=f"{span - 1} samples < {span} needed"):
        stft(FoaSignal(signal.channels[:, 1:], cfg.sample_rate), cfg.frames, window)


@pytest.mark.parametrize("cfg", [RenderConfig(),
                                 RenderConfig(method="trace", n_rays=2000)],
                         ids=["image", "trace"])
def test_render_traces_to_the_end_of_the_feature_span(tmp_path, monkeypatch, cfg):
    # the image method has no arrival past the span at the default order, so
    # its IR is the unlimited one; the tracer stops at the span
    irs = []
    monkeypatch.setattr(evaluate, "encode_srir",
                        lambda *args: irs.append(encode_srir(*args)) or irs[-1])
    scenes = sample_scenes(3, seed=21, pairs_per_room=1)
    render_dataset(scenes, tmp_path, cfg, seed=9)
    span = cfg.feature_span / cfg.sample_rate
    for i, (scene, ir) in enumerate(zip(scenes, irs)):
        limited = propagate(scene, cfg, sample_rng(9, i), max_delay=span)
        full = propagate(scene, cfg, sample_rng(9, i))
        expected = limited if cfg.method == "trace" else full
        np.testing.assert_array_equal(
            ir.channels, encode_srir(expected, cfg.sample_rate, cfg.ir_length).channels)
        assert np.flatnonzero(ir.channels[0]).max() <= cfg.feature_span
        assert (len(limited) < len(full)) == (cfg.method == "trace")


def _net_with_running_stats(config, seed):
    """A cartesian network whose batch-norm running statistics are not the
    identity, so the trunk's inference path does real work."""
    net = build_network(config, Formulation("cartesian"), seed=seed)
    rng = np.random.default_rng(seed)
    for name, buf in net.buffers.items():
        buf[...] = rng.uniform(0.5, 1.5, buf.shape) if "var" in name else \
            rng.normal(0.0, 0.1, buf.shape)
    return net


def _model_track_and_predict(net, total_frames, hop_frames):
    """Model-track predictions over a noisy plane wave ``total_frames`` STFT
    frames long, and :func:`predict` on the same windows stacked."""
    cfg = net.config
    window = (cfg.freq_bins - 1) * 2
    rng = np.random.default_rng(total_frames)
    u = to_cartesian(0.7, 0.2)
    sig = encode_plane_wave(rng.standard_normal((total_frames - 1) * (window // 2) + window),
                            u, 16000)
    sig.channels[:] += 0.1 * rng.standard_normal(sig.channels.shape)
    got = track(net_window_predictor(net), sig, u, hop_frames, frames=cfg.frames,
                window=window).predictions
    feats = intensity_features(stft(sig, frames=total_frames, window=window)).values
    starts = range(0, total_frames - cfg.frames + 1, hop_frames)
    return got, predict(net, np.stack([feats[:, s : s + cfg.frames] for s in starts]))


# model-track predictions at the desk preset at hops 1 and 5; prints, per
# hop, the digest of the predictions and whether they equal predict's bits
MODEL_TRACK_DIGESTS = """
import hashlib
import numpy as np
from ambidoa.estimator import Formulation, NetworkConfig, build_network, predict
from ambidoa.evaluate import net_window_predictor, track
from ambidoa.features import intensity_features, stft
from ambidoa.foa import encode_plane_wave
rng = np.random.default_rng(3)
net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=5)
for buf in net.buffers.values():
    buf[...] = rng.uniform(0.5, 1.5, buf.shape)
sig = encode_plane_wave(rng.standard_normal(26000), np.array([0.6, 0.0, 0.8]), 16000)
sig.channels[:] += 0.1 * rng.standard_normal(sig.channels.shape)
feats = intensity_features(stft(sig, frames=202, window=256)).values
for hop in (1, 5):
    got = track(net_window_predictor(net), sig, (0.6, 0.0, 0.8), hop, window=256).predictions
    want = predict(net, np.stack([feats[:, s : s + 25] for s in range(0, 178, hop)]))
    print(hop, hashlib.sha256(got.tobytes()).hexdigest(), np.array_equal(got, want))
"""


class TestMetrics:
    def test_angular_error_basics(self):
        a = to_cartesian(0.0, 0.0)
        assert angular_error(a, a) == 0.0
        assert angular_error(a, -a) == pytest.approx(180.0)
        b = to_cartesian(0.0, np.radians(10.0))
        assert angular_error(a, b) == pytest.approx(10.0, abs=1e-9)

    def test_tolerance_accuracy_examples(self):
        acc = tolerance_accuracy([3.0, 7.0, 20.0])
        assert acc == pytest.approx((100 / 3, 200 / 3, 200 / 3))
        assert tolerance_accuracy([0.0, 0.0]) == (100.0, 100.0, 100.0)
        assert tolerance_accuracy([90.0] * 5) == (0.0, 0.0, 0.0)

    def test_tolerance_accuracy_monotone(self):
        rng = np.random.default_rng(0)
        errs = rng.uniform(0, 60, 200)
        acc = tolerance_accuracy(errs)
        assert acc[0] <= acc[1] <= acc[2]

    def test_tolerance_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            tolerance_accuracy([])

    def test_track_result_validates(self):
        with pytest.raises(ValueError):
            TrackResult(
                timestamps=np.array([0.0]),
                predictions=np.array([[1.0, 0, 0]]),
                errors=np.array([200.0]),
            )
        with pytest.raises(ValueError, match=r"\[0, 180\]"):
            TrackResult(timestamps=np.zeros(2), predictions=np.eye(3)[:2],
                        errors=np.array([3.0, np.nan]))


class TestTrack:
    def test_constant_plane_wave_is_stationary(self):
        rng = np.random.default_rng(1)
        u = to_cartesian(0.4, 0.1)
        sig = encode_plane_wave(rng.standard_normal(48000), u, 16000)
        grid = build_grid(10.0)
        result = track(music_window_predictor(grid), sig, u, hop_frames=8)
        assert result.errors.std() < 1.0
        assert result.errors.mean() <= 10.0

    def test_each_window_is_predicted_from_its_own_slice(self):
        rng = np.random.default_rng(5)
        u = to_cartesian(1.2, -0.3)
        sig = encode_plane_wave(rng.standard_normal(6000), u, 16000)
        net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=2)
        result = track(net_window_predictor(net), sig, u, hop_frames=3,
                       frames=25, window=256)
        total = (6000 - 256) // 128 + 1
        feats = intensity_features(stft(sig, frames=total, window=256)).values
        starts = np.arange(0, total - 24, 3)
        assert len(result.predictions) == len(starts) == 7
        windows = np.stack([feats[:, s : s + 25] for s in starts])
        # the same batch gives the same bits; a batch of one runs GEMMs with
        # other row counts, so it may differ in the last bits
        assert np.array_equal(result.predictions, predict(net, windows))
        for window, pred in zip(windows, result.predictions):
            assert great_circle(pred, predict_sample(net, window)) <= 1e-9
        # centre frame s + 12, centre sample (s + 12) * hop + window / 2
        np.testing.assert_array_equal(
            result.timestamps, ((starts + 12) * 128 + 128) / 16000)
        assert result.timestamps[0] == pytest.approx(0.104)

    def test_sliding_window_features_are_the_features_of_each_slice(self):
        rng = np.random.default_rng(6)
        u = to_cartesian(-2.0, 0.5)
        sig = encode_plane_wave(rng.standard_normal(8000), u, 16000)
        sig.channels[1:] += 0.1 * rng.standard_normal(sig.channels[1:].shape)
        spec = stft(sig, frames=(8000 - 256) // 128 + 1, window=256)
        feats = intensity_features(spec).values
        windows = np.lib.stride_tricks.sliding_window_view(feats, 25, axis=1)
        for s in range(0, spec.n_frames - 24, 4):
            alone = intensity_features(replace(spec, bins=spec.bins[:, s : s + 25]))
            assert np.array_equal(windows[:, s].transpose(0, 2, 1), alone.values)

    @pytest.mark.parametrize("hop_frames", [1, 2, 7, 19, 20, 25, 40])
    @pytest.mark.parametrize("last_on_grid", [True, False], ids=["on-grid", "off-grid"])
    def test_model_track_is_predict_on_the_stacked_windows(self, hop_frames, last_on_grid):
        # desk: L = 3 conv stages, so windows 0, m, 2m, ... and the last run
        # whole, m = (25 - 6) // hop_frames; 19 is frames - 2L and 20 one more
        net = _net_with_running_stats(NetworkConfig.desk(), seed=4)
        m = max(1, 19 // hop_frames)
        last = 5 * m + (0 if last_on_grid else 1)  # index of the last window
        got, want = _model_track_and_predict(net, 25 + last * hop_frames, hop_frames)
        assert len(got) == last + 1
        assert np.array_equal(got, want)

    def test_model_track_at_the_paper_preset_is_predict_within_two_ulp(self):
        net = _net_with_running_stats(NetworkConfig.paper(), seed=4)
        got, want = _model_track_and_predict(net, 25 + 40, hop_frames=1)
        assert len(got) == 41
        assert np.abs(got - want).max() <= 4.4e-16

    @pytest.mark.parametrize("hop_frames", [1, 2])
    def test_model_track_at_the_tiny_preset_runs_every_window_whole(self, hop_frames):
        # 3 frames <= 2L, so no frame of a window is interior
        net = _net_with_running_stats(NetworkConfig.tiny(), seed=4)
        got, want = _model_track_and_predict(net, 40, hop_frames)
        assert np.array_equal(got, want)

    def test_model_track_is_predict_under_one_and_two_blas_threads(self):
        path = [os.path.dirname(os.path.dirname(estimator.__file__))]
        path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(path)}
            run = subprocess.run([sys.executable, "-c", MODEL_TRACK_DIGESTS], env=env,
                                 capture_output=True, text=True, check=True)
            runs.append(run.stdout.splitlines())
        assert len(runs[0]) == 2
        assert all(line.endswith(" True") for line in runs[0] + runs[1])
        assert runs[0] == runs[1]

    def test_model_track_refuses_a_window_of_other_frames(self):
        net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=1)
        sig = encode_plane_wave(np.ones(6000), to_cartesian(0.0, 0.0), 16000)
        with pytest.raises(ValueError, match=r"frames is 24; .*config\.frames = 25"):
            track(net_window_predictor(net), sig, (1.0, 0.0, 0.0), 1, frames=24, window=256)

    def test_model_track_refuses_features_of_other_bins(self):
        net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=1)
        sig = encode_plane_wave(np.ones(16000), to_cartesian(0.0, 0.0), 16000)
        with pytest.raises(ValueError, match=r"freq_bins is 257; .*config\.freq_bins = 129"):
            track(net_window_predictor(net), sig, (1.0, 0.0, 0.0), 1, frames=25, window=512)

    @pytest.mark.parametrize("field, value", [
        ("hop_frames", 2.5), ("hop_frames", True), ("hop_frames", 0),
        ("frames", 2.5), ("frames", True), ("frames", 0),
        ("window", 256.0), ("window", True), ("window", 1), ("window", 0),
    ])
    def test_track_refuses_a_bad_geometry_by_name(self, field, value):
        sig = encode_plane_wave(np.ones(6000), to_cartesian(0.0, 0.0), 16000)
        kwargs = {"hop_frames": 1, "frames": 25, "window": 256, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= "):
            track(music_window_predictor(build_grid(10.0)), sig, (1.0, 0.0, 0.0), **kwargs)

    @pytest.mark.parametrize("truth", [
        (np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0),
        ((1.0, 0.0, 0.0),),
    ], ids=["nan", "inf", "zero", "two-vector", "nested"])
    def test_track_refuses_a_bad_truth_before_the_stft(self, monkeypatch, truth):
        def no_stft(*args, **kwargs):
            raise AssertionError("stft ran")

        monkeypatch.setattr(evaluate, "stft", no_stft)
        sig = encode_plane_wave(np.ones(6000), to_cartesian(0.0, 0.0), 16000)
        with pytest.raises(ValueError, match=r"^truth must be a finite, nonzero 3-vector"):
            track(music_window_predictor(build_grid(10.0)), sig, truth, 1,
                  frames=25, window=256)

    def test_track_accepts_numpy_integer_geometry(self):
        sig = encode_plane_wave(np.ones(6000), to_cartesian(0.0, 0.0), 16000)
        result = track(music_window_predictor(build_grid(10.0)), sig, (1.0, 0.0, 0.0),
                       np.int64(4), frames=np.int64(25), window=np.int32(256))
        assert len(result.predictions) == len(range(0, (6000 - 256) // 128 - 23, 4))

    @pytest.mark.parametrize("hop_frames", [1, 5])
    def test_model_track_featurises_once_and_forwards_in_chunks(self, hop_frames,
                                                                monkeypatch):
        # 191 frames: 167 windows at hop 1, two full head passes and a part
        rng = np.random.default_rng(7)
        u = to_cartesian(0.3, 0.2)
        sig = encode_plane_wave(rng.standard_normal(24576), u, 16000)
        net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=3)
        featurised, trunk_sizes, head_batches = [], [], []
        features_of = evaluate.intensity_features
        split = [type(layer) for layer in net.layers].index(nn.FrameFlatten) + 1

        def counted_features(spec):
            featurised.append(spec.n_frames)
            return features_of(spec)

        def counted(calls, measure, forward):
            def spy(x, train=False):
                calls.append(measure(x))
                return forward(x, train)
            return spy

        monkeypatch.setattr(evaluate, "intensity_features", counted_features)
        first, head = net.layers[0], net.layers[split]
        monkeypatch.setattr(first, "forward", counted(trunk_sizes, np.size, first.forward))
        monkeypatch.setattr(head, "forward", counted(head_batches, len, head.forward))
        result = track(net_window_predictor(net), sig, u, hop_frames=hop_frames,
                       frames=25, window=256)
        monkeypatch.undo()
        total = (24576 - 256) // 128 + 1
        n = len(range(0, total - 24, hop_frames))
        per = net.head_pass(25)
        assert per == estimator.PREDICT_ELEMENTS // (2 * 25 * 4 * 16) == 81
        assert len(result.predictions) == n
        assert featurised == [total]
        assert trunk_sizes and max(trunk_sizes) <= estimator.PREDICT_ELEMENTS
        # the head runs on the passes predict makes, so BiLSTM GEMMs keep their rows
        assert head_batches == [per] * (n // per) + [n % per] * (n % per > 0)

    def test_model_track_keeps_trunk_outputs_of_a_few_passes_alive(self, monkeypatch):
        # the live trunk outputs at each head pass do not grow with the recording
        net = _net_with_running_stats(NetworkConfig.desk(), seed=5)
        trunk, head = net.trunk, net.head

        def live_at_each_pass(seconds):
            outputs, live = [], []

            def kept_trunk(x, train=False):
                y = trunk(x, train)
                outputs.append(weakref.ref(y))
                return y

            def counted_head(y, train=False):
                live.append(sum(r().size for r in outputs if r() is not None))
                return head(y, train)

            monkeypatch.setattr(net, "trunk", kept_trunk)
            monkeypatch.setattr(net, "head", counted_head)
            sig = encode_plane_wave(np.random.default_rng(seconds).standard_normal(
                16000 * seconds), to_cartesian(0.7, 0.2), 16000)
            track(net_window_predictor(net), sig, (1.0, 0.0, 0.0), hop_frames=1,
                  frames=25, window=256)
            monkeypatch.undo()
            return live, len(outputs)

        short, short_calls = live_at_each_pass(2)
        long, long_calls = live_at_each_pass(8)
        assert len(short) == 3 and len(long) == 13  # 225 and 975 windows, 81 per pass
        assert long_calls > 3 * short_calls
        assert max(long) <= max(short)

    def test_music_track_scores_each_window_alone(self):
        rng = np.random.default_rng(8)
        u = to_cartesian(2.2, -0.4)
        sig = encode_plane_wave(rng.standard_normal(24000), u, 16000)
        sig.channels[:] += 0.05 * rng.standard_normal(sig.channels.shape)
        grid = build_grid(10.0)
        result = track(music_window_predictor(grid), sig, u, hop_frames=6)
        spec = stft(sig, frames=(24000 - 1024) // 512 + 1, window=1024)
        starts = range(0, spec.n_frames - 24, 6)
        assert len(result.predictions) == len(starts)
        for s, pred in zip(starts, result.predictions):
            window = replace(spec, bins=spec.bins[:, s : s + 25])
            scores = music_spectrum(spatial_covariance(window), grid)
            assert np.array_equal(pred, grid.directions[int(np.argmax(scores))])

    @pytest.mark.parametrize("hop_frames", [1, 4])
    def test_music_track_cuts_no_window_spectrogram(self, hop_frames, monkeypatch):
        rng = np.random.default_rng(9)
        u = to_cartesian(-1.1, 0.6)
        sig = encode_plane_wave(rng.standard_normal(20000), u, 16000)
        spectrograms, covariances = [], []
        post_init, covariance = Spectrogram.__post_init__, music.spatial_covariance

        def counted_post_init(spec):
            spectrograms.append(np.shape(spec.bins)[1])
            post_init(spec)

        def counted_covariance(spec, frames=slice(None)):
            covariances.append(frames)
            return covariance(spec, frames)

        monkeypatch.setattr(Spectrogram, "__post_init__", counted_post_init)
        monkeypatch.setattr(music, "spatial_covariance", counted_covariance)
        result = track(music_window_predictor(build_grid(10.0)), sig, u,
                       hop_frames=hop_frames)
        monkeypatch.undo()
        total = (20000 - 1024) // 512 + 1
        starts = range(0, total - 24, hop_frames)
        assert len(result.predictions) == len(starts)
        assert spectrograms == [total]
        assert covariances == [slice(s, s + 25) for s in starts]

    def test_huge_hop_gives_single_prediction(self):
        rng = np.random.default_rng(2)
        u = to_cartesian(-0.9, 0.3)
        sig = encode_plane_wave(rng.standard_normal(32000), u, 16000)
        grid = build_grid(10.0)
        result = track(music_window_predictor(grid), sig, u, hop_frames=10000)
        assert len(result.errors) == 1

    def test_trained_beats_untrained(self, small_dataset, tmp_path):
        out, scenes, records = small_dataset
        x, y = load_dataset(records, out)
        form = Formulation("cartesian")
        cfg = TrainConfig(epochs=12, batch_size=8, seed=3, val_fraction=0.0)
        trained, _ = train(x, y, form, cfg, config=NetworkConfig.desk())
        untrained = build_network(NetworkConfig.desk(), form, seed=99)

        rng = np.random.default_rng(4)
        u = to_cartesian(0.7, -0.2)
        sig = encode_plane_wave(rng.standard_normal(16000), u, 16000)
        kwargs = dict(hop_frames=12, frames=25, window=256)
        err_trained = track(net_window_predictor(trained), sig, u, **kwargs).errors
        err_untrained = track(net_window_predictor(untrained), sig, u, **kwargs).errors
        assert err_trained.mean() <= err_untrained.mean()

    def test_track_csv(self, tmp_path):
        result = TrackResult(
            timestamps=np.array([0.1, 0.2]),
            predictions=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
            errors=np.array([0.0, 90.0]),
        )
        path = tmp_path / "track.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_s,azimuth_deg,elevation_deg,error_deg"
        assert len(lines) == 3


class TestCompareMethods:
    def test_identical_manifests_zero_improvement(self, small_dataset):
        out, _, records = small_dataset
        cfg = TrainConfig(epochs=2, batch_size=8, seed=5)
        rows = compare_methods(
            records, out, records, out, [Formulation("cartesian")], cfg,
            net_config=NetworkConfig.desk(),
        )
        assert len(rows) == 2  # methods x formulations
        trace_row = next(r for r in rows if r.method == "trace")
        assert trace_row.improvement_pct == pytest.approx(0.0, abs=1e-9)

    def test_mismatched_manifests_rejected(self, small_dataset):
        out, _, records = small_dataset
        other = list(records)
        other[0] = SampleRecord(
            features_path=other[0].features_path,
            label=to_cartesian(1.0, 0.5),
            scene_id=other[0].scene_id,
            snr_db=other[0].snr_db,
            method="trace",
        )
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(ValueError, match="test sets"):
            compare_methods(records, out, other, out, [Formulation("cartesian")], cfg)

    def test_length_mismatch_rejected(self, small_dataset):
        out, _, records = small_dataset
        with pytest.raises(ValueError, match="length"):
            compare_methods(records, out, records[:-1], out,
                            [Formulation("cartesian")], TrainConfig(epochs=1))

    def test_image_vs_trace_experiment_report(self, tmp_path, capsys):
        # scaled-down run of the comparison protocol on reverberant rooms;
        # the improvement direction is reported, not asserted
        from ambidoa.evaluate import comparison_table

        scenes = sample_scenes(60, seed=17, pairs_per_room=2, absorption=0.4,
                               scattering=0.6)
        cfg_img = RenderConfig(method="image", max_order=3)
        cfg_trc = RenderConfig(method="trace", n_rays=8000, max_bounces=30)
        ri = render_dataset(scenes, tmp_path / "img", cfg_img, seed=23)
        rt = render_dataset(scenes, tmp_path / "trc", cfg_trc, seed=23)
        rows = compare_methods(
            ri, tmp_path / "img", rt, tmp_path / "trc",
            [Formulation("cartesian")],
            TrainConfig(epochs=12, batch_size=8, seed=29),
            net_config=NetworkConfig.desk(),
        )
        print("[report] image-vs-trace training comparison:")
        print(comparison_table(rows))
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row.mean_error_deg <= 180.0
