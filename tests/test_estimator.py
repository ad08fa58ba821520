import json
import struct

import numpy as np
import pytest

from ambidoa.estimator import (
    Formulation,
    Network,
    NetworkConfig,
    TrainConfig,
    TrainingDiverged,
    backward,
    build_network,
    decode_outputs,
    grad_check,
    labels_for,
    load_model,
    loss_cartesian,
    loss_categorical,
    loss_haversine,
    param_count,
    predict_sample,
    predict_window,
    save_model,
    train,
)
from ambidoa.features import intensity_features, stft
from ambidoa.foa import encode_plane_wave
from ambidoa.geometry import build_grid, great_circle, to_cartesian

TINY = NetworkConfig.tiny()
GRID30 = build_grid(30.0)


def tiny_input(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.8, 0.8, (batch, 6, TINY.frames, TINY.freq_bins))


class TestArchitecture:
    def test_paper_preset_stage_shapes(self):
        cfg = NetworkConfig.paper()
        assert cfg.stage_shapes() == [(64, 25, 64), (64, 25, 8), (64, 25, 2)]
        assert cfg.flat_width == 128

    def test_paper_preset_reports_shapes_on_real_input(self):
        net = build_network(NetworkConfig.paper(), Formulation("cartesian"), seed=0)
        x = np.zeros((6, 25, 513))
        assert net.stage_outputs(x) == [(64, 25, 64), (64, 25, 8), (64, 25, 2)]

    def test_desk_preset_strictly_smaller(self):
        paper = build_network(NetworkConfig.paper(), Formulation("cartesian"), seed=0)
        desk = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=0)
        assert param_count(desk) < param_count(paper)

    def test_output_shapes_per_formulation(self):
        x = tiny_input(1)
        for form, d in [
            (Formulation("cartesian"), 3),
            (Formulation("spherical"), 2),
            (Formulation("categorical", GRID30), len(GRID30)),
        ]:
            net = build_network(TINY, form, seed=0)
            out = net.forward(x)
            assert out.shape == (1, TINY.frames, d)

    def test_zero_input_zeroed_head_gives_half_scores(self):
        net = build_network(TINY, Formulation("categorical", GRID30), seed=0)
        head = net.model.layers[-2]
        head.w[...] = 0.0
        head.b[...] = 0.0
        out = net.forward(np.zeros((6, TINY.frames, TINY.freq_bins)))
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        net = build_network(TINY, Formulation("cartesian"), seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((6, 5, 5)))

    def test_trunks_share_initialization_across_heads(self):
        nets = [
            build_network(TINY, f, seed=7)
            for f in (
                Formulation("cartesian"),
                Formulation("spherical"),
                Formulation("categorical", GRID30),
            )
        ]
        ref = nets[0].model.named_params()
        for other in nets[1:]:
            params = other.model.named_params()
            for key, value in ref.items():
                if value.shape == params[key].shape:
                    np.testing.assert_array_equal(value, params[key])
        # only the last dense layer differs in shape
        diff = [
            k
            for k in ref
            if ref[k].shape != nets[2].model.named_params()[k].shape
        ]
        assert all("TimeDense" in k for k in diff)


@pytest.mark.parametrize("kwargs, field", [
    (dict(conv_channels=(8, 8), pool_factors=(4, 4, 4)), "equal length"),
    (dict(conv_channels=(8, 0, 8)), "conv_channels"),
    (dict(pool_factors=(4, -1, 4)), "pool_factors"),
    (dict(conv_channels=(), pool_factors=()), "conv_channels"),
    (dict(freq_bins=129, pool_factors=(8, 8, 8)), "pool_factors"),
])
def test_network_config_rejects_bad_topology(kwargs, field):
    with pytest.raises(ValueError, match=field):
        NetworkConfig(**kwargs)


class TestLosses:
    def test_categorical_perfect_prediction(self):
        p = np.zeros((1, 4, 10))
        p[0, :, 3] = 1.0
        assert loss_categorical(p, [3]) < 1e-5

    def test_categorical_uniform_half(self):
        c = 429
        p = np.full((1, 25, c), 0.5)
        assert loss_categorical(p, [0]) == pytest.approx(c * np.log(2), rel=1e-12)

    def test_categorical_permutation_equivariant(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.01, 0.99, (1, 5, 8))
        perm = rng.permutation(8)
        a = loss_categorical(p, [2])
        b = loss_categorical(p[:, :, perm], [int(np.where(perm == 2)[0][0])])
        assert a == pytest.approx(b, rel=1e-12)

    def test_cartesian_exact_and_opposite(self):
        label = np.array([1.0, 0.0, 0.0])
        frames = np.tile(label, (1, 4, 1))
        assert loss_cartesian(frames, label[None]) == 0.0
        assert loss_cartesian(-frames, label[None]) == pytest.approx(4.0 / 3.0)

    def test_cartesian_double_length_output(self):
        label = np.array([1.0, 0.0, 0.0])
        frames = np.tile(2.0 * label, (1, 4, 1))
        assert loss_cartesian(frames, label[None]) == pytest.approx(1.0 / 3.0)

    def test_haversine_coincident_and_antipodal(self):
        # clamp floor: 2 * asin(sqrt(1e-12)) is a hair above 2e-6
        out = np.array([[[0.4, 0.1]]])
        assert loss_haversine(out, [[0.4, 0.1]]) <= 2.1e-6
        anti = np.array([[[np.pi, 0.0]]])
        assert loss_haversine(anti, [[0.0, 0.0]]) == pytest.approx(np.pi, abs=1e-5)

    def test_haversine_matches_geometry_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = [rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)]
            b = [rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)]
            expected = great_circle(to_cartesian(*a), to_cartesian(*b))
            got = loss_haversine(np.array([[a]]), [b])
            assert got == pytest.approx(expected, abs=1e-6)

    def test_haversine_gradient_finite_at_coincidence(self):
        _, grad = loss_haversine(np.array([[[0.3, -0.2]]]), [[0.3, -0.2]], with_grad=True)
        assert np.all(np.isfinite(grad))

    def test_cartesian_gradient_zero_at_label(self):
        label = np.array([[0.0, 0.6, 0.8]])
        frames = np.tile(label[0], (1, 3, 1))
        _, grad = loss_cartesian(frames, label, with_grad=True)
        np.testing.assert_array_equal(grad, 0.0)


class TestGradients:
    # full three-formulation sweep at tolerance 1e-4 runs in the acceptance suite
    def test_grad_check_cartesian(self):
        net = build_network(TINY, Formulation("cartesian"), seed=1)
        target = np.array([[0.6, 0.64, 0.48], [0.0, 0.6, 0.8]])
        err, skipped = grad_check(net, tiny_input(), target, return_skipped=True)
        assert err < 1e-4
        assert skipped < 0.02 * param_count(net)

    def test_backward_reports_nonfinite(self):
        net = build_network(TINY, Formulation("cartesian"), seed=1)
        net.model.layers[0].w[0, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="Conv2d"):
            backward(net, tiny_input(), np.array([[1.0, 0, 0], [0, 1.0, 0]]))


class TestTraining:
    def _toy_dataset(self, n=24, seed=0):
        # features whose first three rows carry the direction, as real intensity
        # features do; the trunk must learn to average them out
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = rng.normal(0.0, 0.02, (n, 6, TINY.frames, TINY.freq_bins))
        x[:, :3] += (np.sqrt(3) / 2 * u)[:, :, None, None]
        x = np.clip(x, -0.86, 0.86)
        return x, u

    def test_loss_decreases(self):
        x, u = self._toy_dataset()
        cfg = TrainConfig(epochs=8, batch_size=8, seed=3, val_fraction=0.0)
        net, history = train(x, u, Formulation("cartesian"), cfg, config=TINY)
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_zero_learning_rate_freezes_parameters(self):
        x, u = self._toy_dataset()
        form = Formulation("cartesian")
        before = {
            k: v.copy()
            for k, v in build_network(TINY, form, seed=5).model.named_params().items()
        }
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=5,
                          val_fraction=0.0)
        net, _ = train(x, u, form, cfg, config=TINY)
        for k, v in net.model.named_params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_same_seed_identical_history(self):
        x, u = self._toy_dataset()
        cfg = TrainConfig(epochs=3, batch_size=8, seed=11)
        _, h1 = train(x, u, Formulation("cartesian"), cfg, config=TINY)
        _, h2 = train(x, u, Formulation("cartesian"), cfg, config=TINY)
        assert h1 == h2

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_aborts_with_diagnostic(self):
        # batch norm and saturating gates make this net hard to blow up by
        # learning rate alone, so poison a weight to force a non-finite loss
        x, u = self._toy_dataset()
        form = Formulation("cartesian")
        net = build_network(TINY, form, seed=2)
        net.model.layers[-1].b[...] = np.inf
        cfg = TrainConfig(epochs=1, batch_size=8, seed=2, val_fraction=0.0)
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(x, u, form, cfg, config=TINY, net=net)

    def test_trained_network_carries_no_optimizer_state(self):
        x, u = self._toy_dataset(n=8)
        cfg = TrainConfig(epochs=1, batch_size=8, val_fraction=0.0)
        net, _ = train(x, u, Formulation("cartesian"), cfg, config=TINY)
        assert set(vars(net)) == {"config", "formulation", "model"}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 6, 3, 16)), np.zeros((0, 3)),
                  Formulation("cartesian"), TrainConfig(epochs=1), config=TINY)


@pytest.mark.parametrize("kwargs, field", [
    (dict(val_fraction=-1), "val_fraction"),
    (dict(val_fraction=1.0), "val_fraction"),
    (dict(epochs=0), "epochs"),
    (dict(epochs=-3), "epochs"),
    (dict(clip_norm=-1), "clip_norm"),
])
def test_train_config_rejects_bad_values(kwargs, field):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kwargs)


def test_train_config_edge_values_stay_valid():
    TrainConfig(val_fraction=0.0, epochs=1, clip_norm=None)
    TrainConfig(clip_norm=0.0)


class TestDecoding:
    def test_identical_frames_decode_to_themselves(self):
        u = np.array([0.0, 0.6, 0.8])
        out = np.tile(u, (25, 1))
        np.testing.assert_allclose(decode_outputs(out, Formulation("cartesian")), u)

    def test_cartesian_mean_of_two_frames(self):
        out = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        got = decode_outputs(out, Formulation("cartesian"))
        np.testing.assert_allclose(got, [np.sqrt(2) / 2, np.sqrt(2) / 2, 0], atol=1e-12)

    def test_cartesian_scale_invariant_and_ambiguity_error(self):
        out = np.array([[0.1, 0.2, 0.0], [0.3, 0.0, 0.1]])
        a = decode_outputs(out, Formulation("cartesian"))
        b = decode_outputs(100.0 * out, Formulation("cartesian"))
        np.testing.assert_allclose(a, b, atol=1e-12)
        with pytest.raises(ValueError, match="ambiguous"):
            decode_outputs(np.array([[1e-9, 0, 0], [-1e-9, 0, 0]]),
                           Formulation("cartesian"))

    def test_categorical_score_summation(self):
        form = Formulation("categorical", GRID30)
        out = np.zeros((2, len(GRID30)))
        out[0, 3], out[0, 7] = 0.9, 0.8
        out[1, 3], out[1, 7] = 0.1, 0.9
        got = decode_outputs(out, form)
        np.testing.assert_array_equal(got, GRID30.directions[7])

    def test_categorical_argmax_scale_invariant(self):
        form = Formulation("categorical", GRID30)
        rng = np.random.default_rng(4)
        out = rng.uniform(0, 1, (25, len(GRID30)))
        a = decode_outputs(out, form)
        b = decode_outputs(3.7 * out, form)
        np.testing.assert_array_equal(a, b)

    def test_spherical_circular_mean_handles_seam(self):
        # naive azimuth averaging of +/- (pi - 0.1) would point backwards
        out = np.array([[np.pi - 0.1, 0.0], [-(np.pi - 0.1), 0.0]])
        got = decode_outputs(out, Formulation("spherical"))
        np.testing.assert_allclose(got, [-1.0, 0.0, 0.0], atol=1e-9)

    def test_predict_window_on_plane_wave(self):
        rng = np.random.default_rng(6)
        sig = encode_plane_wave(rng.standard_normal(8000), to_cartesian(0.5, 0.2))
        spec = stft(sig, frames=40, window=256)
        form = Formulation("cartesian")
        net = build_network(NetworkConfig.desk(), form, seed=0)
        direction = predict_window(net, spec, center_frame=20)
        assert direction.shape == (3,)
        assert np.linalg.norm(direction) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="window"):
            predict_window(net, spec, center_frame=5)


class TestParamCount:
    def test_single_affine_layer_counts(self):
        from ambidoa.nn import TimeDense

        layer = TimeDense(128, 3, np.random.default_rng(0))
        assert layer.w.size + layer.b.size == 387

    def test_categorical_head_arithmetic(self):
        from ambidoa.nn import TimeDense

        layer = TimeDense(128, 429, np.random.default_rng(0))
        assert layer.w.size + layer.b.size == 55341

    def test_regression_head_smaller_at_paper_scale(self):
        grid10 = build_grid(10.0)
        cat = build_network(NetworkConfig.paper(), Formulation("categorical", grid10), 0)
        cart = build_network(NetworkConfig.paper(), Formulation("cartesian"), 0)
        assert param_count(cart) < param_count(cat)


class TestCheckpoints:
    def test_round_trip_preserves_predictions(self, tmp_path):
        form = Formulation("categorical", GRID30)
        net = build_network(TINY, form, seed=9)
        x = tiny_input(1, seed=42)[0]
        before = net.forward(x)
        path = tmp_path / "model.adom"
        save_model(path, net)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.forward(x), before)
        assert loaded.formulation.kind == "categorical"
        assert len(loaded.formulation.grid) == len(GRID30)

    def test_save_is_deterministic(self, tmp_path):
        net = build_network(TINY, Formulation("cartesian"), seed=9)
        p1, p2 = tmp_path / "a.adom", tmp_path / "b.adom"
        save_model(p1, net)
        save_model(p2, net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.adom"
        path.write_bytes(b"WHAT" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_model(path)

    def _saved(self, tmp_path):
        path = tmp_path / "model.adom"
        save_model(path, build_network(TINY, Formulation("cartesian"), seed=9))
        return path

    def test_appended_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 24)
        with pytest.raises(ValueError, match="model.adom: payload"):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="model.adom: payload"):
            load_model(path)

    def test_shapes_that_differ_from_the_config_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[8:12])
        meta = json.loads(raw[12 : 12 + blob_len])
        meta["config"]["hidden"] += 1
        blob = json.dumps(meta, sort_keys=True).encode("ascii")
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                         + raw[12 + blob_len :])
        with pytest.raises(ValueError, match="model.adom: saved params shapes"):
            load_model(path)
