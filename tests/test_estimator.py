import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ambidoa
from ambidoa import estimator, nn
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
    predict,
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


def stage_outputs(net, x):
    """Shapes produced by each conv stage of ``net`` for one input."""
    x = np.asarray(x, dtype=np.float64)[None]
    shapes = []
    for layer in net.layers:
        x = layer.forward(x, train=False)
        if isinstance(layer, nn.MaxPoolFreq):
            shapes.append(tuple(x.shape[1:]))
    return shapes


class TestArchitecture:
    def test_paper_preset_stage_shapes(self):
        cfg = NetworkConfig.paper()
        assert cfg.stage_shapes() == [(64, 25, 64), (64, 25, 8), (64, 25, 2)]
        assert cfg.flat_width == 128

    def test_paper_preset_reports_shapes_on_real_input(self):
        net = build_network(NetworkConfig.paper(), Formulation("cartesian"), seed=0)
        x = np.zeros((6, 25, 513))
        assert stage_outputs(net, x) == [(64, 25, 64), (64, 25, 8), (64, 25, 2)]

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
        # the head emits logits; a zero logit is a sigmoid score of one half
        net = build_network(TINY, Formulation("categorical", GRID30), seed=0)
        for p in net.layers[-1].params.values():
            p[...] = 0.0
        out = net.forward(np.zeros((1, 6, TINY.frames, TINY.freq_bins)))
        np.testing.assert_array_equal(out, 0.0)
        assert loss_categorical(out, [0]) == pytest.approx(len(GRID30) * np.log(2))

    def test_shape_mismatch_rejected(self):
        net = build_network(TINY, Formulation("cartesian"), seed=0)
        # a batch is the only shape: one unbatched sample is refused as well
        for shape in ((1, 6, 5, 5), (6, 5, 5), (6, TINY.frames, TINY.freq_bins)):
            with pytest.raises(ValueError, match=r"\(n, 6, 3, 16\)"):
                net.forward(np.zeros(shape))

    def test_trunks_share_initialization_across_heads(self):
        nets = [
            build_network(TINY, f, seed=7)
            for f in (
                Formulation("cartesian"),
                Formulation("spherical"),
                Formulation("categorical", GRID30),
            )
        ]
        ref = nets[0].params
        for other in nets[1:]:
            params = other.params
            for key, value in ref.items():
                if value.shape == params[key].shape:
                    np.testing.assert_array_equal(value, params[key])
        # only the last dense layer differs in shape
        diff = [
            k
            for k in ref
            if ref[k].shape != nets[2].params[k].shape
        ]
        assert all("TimeDense" in k for k in diff)


@pytest.mark.parametrize("kwargs, field", [
    (dict(conv_channels=(8, 8), pool_factors=(4, 4, 4)), "equal length"),
    (dict(conv_channels=(8, 0, 8)), "conv_channels"),
    (dict(pool_factors=(4, -1, 4)), "pool_factors"),
    (dict(conv_channels=(), pool_factors=()), "conv_channels"),
    (dict(freq_bins=129, pool_factors=(8, 8, 8)), "pool_factors"),
    (dict(hidden=0), "hidden"),
    (dict(hidden=-3), "hidden"),
    (dict(fc_width=0), "fc_width"),
    (dict(frames=0), "frames"),
    (dict(freq_bins=0), "freq_bins"),
    (dict(lstm_layers=-1), "lstm_layers"),
    (dict(hidden=2.5), "hidden"),
    (dict(conv_channels=(8, 8.5, 8)), "conv_channels"),
    (dict(frames=True), "frames"),
    (dict(pool_factors=[8, 8, 4]), "pool_factors"),
])
def test_network_config_rejects_bad_topology(kwargs, field):
    with pytest.raises(ValueError, match=field):
        NetworkConfig(**kwargs)


SIZE_FIELDS = ("hidden", "lstm_layers", "fc_width", "frames", "freq_bins")
NOT_INTEGERS = (st.booleans() | st.floats() | st.integers(1, 64).map(float)
                | st.none() | st.text(max_size=2) | st.integers(1, 64).map(str))


@given(field=st.sampled_from(SIZE_FIELDS), value=NOT_INTEGERS)
def test_network_config_names_a_non_integer_size(field, value):
    with pytest.raises(ValueError, match=field):
        NetworkConfig(**{field: value})


@given(field=st.sampled_from(("conv_channels", "pool_factors")),
       index=st.integers(0, 2), value=NOT_INTEGERS)
def test_network_config_names_a_non_integer_stage_entry(field, index, value):
    values = list(getattr(NetworkConfig(), field))
    values[index] = value
    with pytest.raises(ValueError, match=field):
        NetworkConfig(**{field: tuple(values)})


class TestLosses:
    def test_categorical_perfect_prediction(self):
        z = np.full((1, 4, 10), -20.0)
        z[0, :, 3] = 20.0
        assert loss_categorical(z, [3]) < 1e-5

    def test_categorical_uniform_half(self):
        c = 429
        z = np.zeros((1, 25, c))
        assert loss_categorical(z, [0]) == pytest.approx(c * np.log(2), rel=1e-12)

    def test_categorical_permutation_equivariant(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0.0, 3.0, (1, 5, 8))
        perm = rng.permutation(8)
        a = loss_categorical(z, [2])
        b = loss_categorical(z[:, :, perm], [int(np.where(perm == 2)[0][0])])
        assert a == pytest.approx(b, rel=1e-12)

    def test_categorical_saturated_logits_keep_gradient(self):
        # a confidently wrong class: the loss and gradient stay finite, and the
        # gradient is (sigmoid(z) - y) / frames: +1/2 on the wrong class and
        # -1/2 on the true one, where a clamped loss would give zero
        z = np.full((1, 2, 4), -1000.0)
        z[0, :, 1] = 1000.0
        loss, grad = loss_categorical(z, [3], with_grad=True)
        assert loss == pytest.approx(2000.0, rel=1e-12)
        expected = np.zeros((1, 2, 4))
        expected[0, :, 1], expected[0, :, 3] = 0.5, -0.5
        np.testing.assert_allclose(grad, expected, atol=1e-12)

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
        net.params["0.Conv2d.w"][0, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="Conv2d"):
            backward(net, tiny_input(), np.array([[1.0, 0, 0], [0, 1.0, 0]]))


# two desk training steps; prints a digest of every gradient
TWO_DESK_STEPS = """
import hashlib
import numpy as np
from ambidoa.estimator import Formulation, NetworkConfig, TrainConfig, train
desk = NetworkConfig.desk()
rng = np.random.default_rng(0)
x = rng.uniform(-0.8, 0.8, (32, 6, desk.frames, desk.freq_bins))
u = rng.standard_normal((32, 3))
u /= np.linalg.norm(u, axis=1, keepdims=True)
cfg = TrainConfig(batch_size=16, epochs=1, val_fraction=0.0)
net, _ = train(x, u, Formulation("cartesian"), cfg, config=desk)
for name, g in net.grads.items():
    print(name, hashlib.sha256(g.tobytes()).hexdigest())
"""


def test_gradients_do_not_depend_on_the_blas_thread_count():
    path = [os.path.dirname(os.path.dirname(ambidoa.__file__))]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(path)}
        run = subprocess.run([sys.executable, "-c", TWO_DESK_STEPS], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.splitlines())
    assert digests[0], "the training script printed no gradient"
    differ = [a.split()[0] for a, b in zip(*digests) if a != b]
    assert not differ, f"gradients differ between 1 and 2 threads: {differ}"


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
            for k, v in build_network(TINY, form, seed=5).params.items()
        }
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=5,
                          val_fraction=0.0)
        net, _ = train(x, u, form, cfg, config=TINY)
        for k, v in net.params.items():
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
        # learning rate alone, so poison one input value to force a
        # non-finite gradient
        x, u = self._toy_dataset()
        x[0, 0, 0, 0] = np.inf
        cfg = TrainConfig(epochs=1, batch_size=8, seed=2, val_fraction=0.0)
        with pytest.raises(TrainingDiverged, match="non-finite .* at epoch 0"):
            train(x, u, Formulation("cartesian"), cfg, config=TINY)

    def test_trained_network_carries_no_optimizer_state(self):
        x, u = self._toy_dataset(n=8)
        cfg = TrainConfig(epochs=1, batch_size=8, val_fraction=0.0)
        net, _ = train(x, u, Formulation("cartesian"), cfg, config=TINY)
        assert set(vars(net)) == {"config", "formulation", "layers",
                                  "params", "grads", "buffers"}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 6, 3, 16)), np.zeros((0, 3)),
                  Formulation("cartesian"), TrainConfig(epochs=1), config=TINY)


@pytest.mark.parametrize("kwargs, field", [
    (dict(val_fraction=-1), "val_fraction"),
    (dict(val_fraction=1.0), "val_fraction"),
    (dict(epochs=0), "epochs"),
    (dict(epochs=-3), "epochs"),
])
def test_train_config_rejects_bad_values(kwargs, field):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kwargs)


def test_train_config_edge_values_stay_valid():
    TrainConfig(val_fraction=0.0, epochs=1)


def decode_one(out, form):
    """Direction decoded from one sample's per-frame outputs (frames, d)."""
    return decode_outputs(np.asarray(out)[None], form)[0]


class TestDecoding:
    def test_identical_frames_decode_to_themselves(self):
        u = np.array([0.0, 0.6, 0.8])
        out = np.tile(u, (25, 1))
        np.testing.assert_allclose(decode_one(out, Formulation("cartesian")), u)

    def test_cartesian_mean_of_two_frames(self):
        out = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        got = decode_one(out, Formulation("cartesian"))
        np.testing.assert_allclose(got, [np.sqrt(2) / 2, np.sqrt(2) / 2, 0], atol=1e-12)

    def test_cartesian_scale_invariant_and_ambiguity_error(self):
        out = np.array([[0.1, 0.2, 0.0], [0.3, 0.0, 0.1]])
        a = decode_one(out, Formulation("cartesian"))
        b = decode_one(100.0 * out, Formulation("cartesian"))
        np.testing.assert_allclose(a, b, atol=1e-12)
        with pytest.raises(ValueError, match="ambiguous"):
            decode_one(np.array([[1e-9, 0, 0], [-1e-9, 0, 0]]), Formulation("cartesian"))

    def test_ambiguous_sample_is_named(self):
        rng = np.random.default_rng(8)
        out = rng.normal(0.0, 1.0, (4, 3, 3))
        out[2] = [[1e-9, 0, 0], [-1e-9, 0, 0], [0, 1e-9, -1e-9]]
        with pytest.raises(ValueError, match=r"ambiguous prediction for samples \[2\]"):
            decode_outputs(out, Formulation("cartesian"))

    @pytest.mark.parametrize("form", [
        Formulation("cartesian"), Formulation("spherical"),
        Formulation("categorical", GRID30)], ids=lambda f: f.kind)
    def test_batch_decodes_as_its_rows(self, form):
        out = np.random.default_rng(9).normal(0.0, 2.0, (7, 25, form.out_dim))
        batch = decode_outputs(out, form)
        assert batch.shape == (7, 3)
        for row, got in zip(out, batch):
            np.testing.assert_array_equal(got, decode_one(row, form))

    def test_categorical_score_summation(self):
        # the logits sum higher on class 3 (7 vs 2), the sigmoid scores on
        # class 7 (1.05 vs 1.46): decoding sums scores, not logits
        form = Formulation("categorical", GRID30)
        out = np.zeros((2, len(GRID30)))
        out[0, 3], out[0, 7] = 10.0, 1.0
        out[1, 3], out[1, 7] = -3.0, 1.0
        got = decode_one(out, form)
        np.testing.assert_array_equal(got, GRID30.directions[7])

    def test_categorical_argmax_of_summed_sigmoids(self):
        form = Formulation("categorical", GRID30)
        rng = np.random.default_rng(4)
        out = rng.normal(0.0, 3.0, (25, len(GRID30)))
        scores = (1.0 / (1.0 + np.exp(-out))).sum(axis=0)
        got = decode_one(out, form)
        np.testing.assert_array_equal(got, GRID30.directions[np.argmax(scores)])

    def test_spherical_circular_mean_handles_seam(self):
        # naive azimuth averaging of +/- (pi - 0.1) would point backwards
        out = np.array([[np.pi - 0.1, 0.0], [-(np.pi - 0.1), 0.0]])
        got = decode_one(out, Formulation("spherical"))
        np.testing.assert_allclose(got, [-1.0, 0.0, 0.0], atol=1e-9)

    def test_predict_window_on_plane_wave(self):
        rng = np.random.default_rng(6)
        sig = encode_plane_wave(rng.standard_normal(8000), to_cartesian(0.5, 0.2))
        spec = stft(sig, frames=40, window=256)
        form = Formulation("cartesian")
        net = build_network(NetworkConfig.desk(), form, seed=0)
        direction = predict_window(net, replace(spec, bins=spec.bins[:, 8:33]))
        assert direction.shape == (3,)
        assert np.linalg.norm(direction) == pytest.approx(1.0)
        for frames in (24, 26):
            with pytest.raises(ValueError, match=r"\(n, 6, 25, 129\)"):
                predict_window(net, replace(spec, bins=spec.bins[:, :frames]))

    def test_predict_window_matches_sample_on_the_same_slice(self):
        rng = np.random.default_rng(7)
        sig = encode_plane_wave(rng.standard_normal(8000), to_cartesian(-1.1, 0.4))
        spec = stft(sig, frames=40, window=256)
        net = build_network(NetworkConfig.desk(), Formulation("categorical", GRID30),
                            seed=3)
        feats = intensity_features(spec).values
        for start in (0, 8, 15):
            window = replace(spec, bins=spec.bins[:, start : start + 25])
            assert np.array_equal(predict_window(net, window),
                                  predict_sample(net, feats[:, start : start + 25]))


class TestPredict:
    FORMS = [Formulation("cartesian"), Formulation("spherical"),
             Formulation("categorical", GRID30)]

    @pytest.mark.parametrize("form", FORMS, ids=lambda f: f.kind)
    def test_chunked_batch_agrees_with_single_samples(self, form, monkeypatch):
        net = build_network(TINY, form, seed=4)
        chunk = estimator.PREDICT_ELEMENTS // (6 * TINY.frames * TINY.freq_bins)
        x = tiny_input(2 * chunk + 1, seed=5)
        sizes = []
        forward = Network.forward

        def counted(self, xb, train=False):
            sizes.append(len(xb))
            return forward(self, xb, train)

        monkeypatch.setattr(Network, "forward", counted)
        got = predict(net, x)
        assert sizes == [chunk, chunk, 1]
        monkeypatch.undo()
        assert got.shape == (2 * chunk + 1, 3)
        # every sample at both ends of each chunk, and a spread in between
        picks = sorted({0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk,
                        *range(0, 2 * chunk + 1, 97)})
        one = np.stack([predict_sample(net, x[i]) for i in picks])
        err = np.degrees(great_circle(got[picks], one))
        assert err.max() < 1e-9

    @pytest.mark.parametrize("form", FORMS, ids=lambda f: f.kind)
    def test_validation_error_is_the_error_of_predict(self, form):
        from ambidoa.evaluate import angular_error

        x, u = TestTraining()._toy_dataset(n=30, seed=6)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=13, val_fraction=0.2)
        net, history = train(x, u, form, cfg, config=TINY)
        order = np.random.default_rng(cfg.seed + 0x5EED).permutation(len(x))
        val = order[: int(round(len(x) * cfg.val_fraction))]
        assert history[-1]["val_error_deg"] == angular_error(predict(net, x[val]), u[val]).mean()


class TestParamCount:
    def test_single_affine_layer_counts(self):
        from ambidoa.nn import TimeDense

        layer = TimeDense(128, 3, np.random.default_rng(0))
        assert sum(p.size for p in layer.params.values()) == 387

    def test_categorical_head_arithmetic(self):
        from ambidoa.nn import TimeDense

        layer = TimeDense(128, 429, np.random.default_rng(0))
        assert sum(p.size for p in layer.params.values()) == 55341

    def test_regression_head_smaller_at_paper_scale(self):
        grid10 = build_grid(10.0)
        cat = build_network(NetworkConfig.paper(), Formulation("categorical", grid10), 0)
        cart = build_network(NetworkConfig.paper(), Formulation("cartesian"), 0)
        assert param_count(cart) < param_count(cat)


class TestCheckpoints:
    def test_round_trip_preserves_predictions(self, tmp_path):
        form = Formulation("categorical", GRID30)
        net = build_network(TINY, form, seed=9)
        x = tiny_input(1, seed=42)
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

    def test_short_header_names_the_file(self, tmp_path):
        path = tmp_path / "short.adom"
        path.write_bytes(b"ADOM\x01\x00")
        with pytest.raises(ValueError, match="short.adom: header"):
            load_model(path)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_truncation_or_append_names_the_file(self, data):
        raw = _valid_checkpoint_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        extra = data.draw(st.binary(min_size=1, max_size=7), label="extra")
        with tempfile.TemporaryDirectory() as tmp:
            for name, blob in (("cut.adom", raw[:cut]), ("long.adom", raw + extra)):
                path = os.path.join(tmp, name)
                with open(path, "wb") as f:
                    f.write(blob)
                with pytest.raises(ValueError) as err:
                    load_model(path)
                assert path in str(err.value)

    def test_shapes_that_differ_from_the_config_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        meta = _meta(raw)
        meta["config"]["hidden"] += 1
        path.write_bytes(_with_blob(raw, _blob(meta)))
        with pytest.raises(ValueError, match="model.adom: saved params shapes"):
            load_model(path)

    @pytest.mark.parametrize("bad_blob", [
        lambda m: _blob({**m, "config": {k: v for k, v in m["config"].items()
                                         if k != "hidden"}}),
        lambda m: _blob({k: v for k, v in m.items() if k != "formulation"}),
        lambda m: _blob(m)[:-1],
        lambda m: b"\xff" + _blob(m)[1:],
    ], ids=["missing config key", "missing formulation", "not JSON", "not ASCII"])
    def test_bad_config_blob_names_the_file(self, tmp_path, bad_blob):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(_with_blob(raw, bad_blob(_meta(raw))))
        with pytest.raises(ValueError, match="model.adom: bad config blob"):
            load_model(path)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_config_blob_edit_loads_or_names_the_file(self, data):
        raw = _valid_checkpoint_bytes()
        meta = _meta(raw)
        fields = sorted(meta) + [f"config.{k}" for k in sorted(meta["config"])]
        field = data.draw(st.sampled_from(fields), label="field")
        owner, key = ((meta["config"], field[7:]) if field.startswith("config.")
                      else (meta, field))
        if data.draw(st.booleans(), label="delete"):
            del owner[key]
        else:
            owner[key] = data.draw(JSON_VALUES, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edited.adom")
            with open(path, "wb") as f:
                f.write(_with_blob(raw, _blob(meta)))
            try:
                load_model(path)  # an edit can leave a valid checkpoint
            except ValueError as err:
                assert path in str(err)


# small values keep every network an edit can describe small
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3.0, 40.0)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _meta(raw):
    (blob_len,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12 : 12 + blob_len])


def _blob(meta):
    return json.dumps(meta, sort_keys=True).encode("ascii")


def _with_blob(raw, blob):
    """Checkpoint bytes ``raw`` with the config blob replaced by ``blob``."""
    (blob_len,) = struct.unpack("<I", raw[8:12])
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len :]


def _valid_checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.adom")
        save_model(path, build_network(TINY, Formulation("categorical", GRID30), seed=9))
        with open(path, "rb") as f:
            return f.read()
