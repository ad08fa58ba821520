import json
import os
from dataclasses import replace

import numpy as np
import pytest

from ambidoa import estimator, evaluate
from ambidoa.acoustics import PathSet, RoomConfig, Scene, sample_scenes
from ambidoa.estimator import (
    Formulation,
    Network,
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
from ambidoa.features import intensity_features, stft
from ambidoa.foa import encode_plane_wave, encode_srir
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
        a, b = tmp_path / "serial", tmp_path / "pooled"
        render_dataset(scenes, a, FAST_RENDER, seed=8, workers=1)
        render_dataset(scenes, b, FAST_RENDER, seed=8, workers=4)
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_synthetic_speech_can_be_disabled(self, tmp_path):
        scenes = sample_scenes(1, seed=1, pairs_per_room=1, absorption=0.8)
        with pytest.raises(ValueError):
            render_dataset(scenes, tmp_path, FAST_RENDER, seed=0,
                           allow_synthetic_speech=False)

    def test_speech_at_another_sample_rate_is_refused(self, tmp_path):
        from scipy.io import wavfile

        speech = tmp_path / "speech"
        speech.mkdir()
        wavfile.write(str(speech / "talker.wav"), 48000, np.zeros(4800, dtype=np.int16))
        scenes = sample_scenes(1, seed=1, pairs_per_room=1, absorption=0.8)
        with pytest.raises(ValueError, match=r"talker\.wav: sample rate 48000 != 16000"):
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

    def test_tracer_seed_is_the_first_draw_for_every_method(self):
        scene = sample_scenes(1, seed=4)[0]
        after = []
        for method in ("image", "trace"):
            rng = sample_rng(3, 2)
            propagate(scene, RenderConfig(method=method, n_rays=200), rng)
            after.append(rng.integers(1 << 62))
        assert after[0] == after[1]


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

    @pytest.mark.parametrize("hop_frames", [1, 5])
    def test_model_track_featurises_once_and_forwards_in_chunks(self, hop_frames,
                                                                monkeypatch):
        rng = np.random.default_rng(7)
        u = to_cartesian(0.3, 0.2)
        sig = encode_plane_wave(rng.standard_normal(8000), u, 16000)
        net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=3)
        featurised, forwards = [], []
        features_of, forward = evaluate.intensity_features, Network.forward

        def counted_features(spec):
            featurised.append(spec.n_frames)
            return features_of(spec)

        def counted_forward(self, x, train=False):
            forwards.append(len(x))
            return forward(self, x, train)

        monkeypatch.setattr(evaluate, "intensity_features", counted_features)
        monkeypatch.setattr(Network, "forward", counted_forward)
        result = track(net_window_predictor(net), sig, u, hop_frames=hop_frames,
                       frames=25, window=256)
        monkeypatch.undo()
        total = (8000 - 256) // 128 + 1
        n = len(range(0, total - 24, hop_frames))
        chunk = estimator.PREDICT_ELEMENTS // (6 * 25 * 129)
        assert len(result.predictions) == n
        assert featurised == [total]
        assert len(forwards) == -(-n // chunk)
        assert forwards[:-1] == [chunk] * (len(forwards) - 1) and sum(forwards) == n

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
