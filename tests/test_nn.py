"""Layer-level checks: shapes, loop oracles, analytic gradients against
finite differences."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ambidoa import nn


def fd_param_check(layer, x, tol=1e-7, step=1e-5):
    """Compare layer parameter gradients with central differences under a
    fixed random linear functional of the output."""
    y = layer.forward(x, train=True)
    proj = np.random.default_rng(1).standard_normal(y.shape)
    for g in layer.grads.values():
        g[...] = 0.0
    layer.backward(proj)
    for name, p in layer.params.items():
        analytic = layer.grads[name]
        numeric = np.zeros_like(p)
        flat, nflat = p.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = (layer.forward(x, train=True) * proj).sum()
            flat[i] = orig - step
            lm = (layer.forward(x, train=True) * proj).sum()
            flat[i] = orig
            nflat[i] = (lp - lm) / (2 * step)
        err = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12
        )
        assert err < tol, f"{type(layer).__name__}.{name}: {err}"


def fd_input_check(layer, x, tol=1e-7, step=1e-5):
    y = layer.forward(x, train=True)
    proj = np.random.default_rng(2).standard_normal(y.shape)
    dx = layer.backward(proj)
    flat = x.reshape(-1)
    sel = np.random.default_rng(3).choice(flat.size, min(60, flat.size), replace=False)
    numeric = np.zeros(sel.size)
    for j, i in enumerate(sel):
        orig = flat[i]
        flat[i] = orig + step
        lp = (layer.forward(x, train=True) * proj).sum()
        flat[i] = orig - step
        lm = (layer.forward(x, train=True) * proj).sum()
        flat[i] = orig
        numeric[j] = (lp - lm) / (2 * step)
    analytic = dx.reshape(-1)[sel]
    err = np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12
    )
    assert err < tol, f"{type(layer).__name__} input grad: {err}"


def conv3x3_loops(x, w, bias):
    """Zero-padded 3x3 cross-correlation, one scalar product at a time."""
    b, c_in, t, f = x.shape
    c_out = w.shape[0]
    out = np.zeros((b, c_out, t, f))
    for n in range(b):
        for o in range(c_out):
            for i in range(t):
                for j in range(f):
                    acc = bias[o]
                    for c in range(c_in):
                        for dt in range(3):
                            for df in range(3):
                                ii, jj = i + dt - 1, j + df - 1
                                if 0 <= ii < t and 0 <= jj < f:
                                    acc += w[o, c, dt, df] * x[n, c, ii, jj]
                    out[n, o, i, j] = acc
    return out


# (batch, c_in, c_out, frames, bins)
CONV_SHAPES = [(1, 2, 3, 4, 5), (2, 3, 5, 1, 6), (2, 4, 2, 6, 1), (3, 6, 4, 5, 17)]


class TestConv2d:
    def test_shape_preserving(self):
        rng = np.random.default_rng(0)
        layer = nn.Conv2d(3, 5, rng)
        y = layer.forward(rng.standard_normal((2, 3, 7, 11)))
        assert y.shape == (2, 5, 7, 11)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_forward_matches_loop_oracle(self, shape):
        b, c_in, c_out, t, f = shape
        rng = np.random.default_rng(14)
        layer = nn.Conv2d(c_in, c_out, rng)
        x = rng.standard_normal((b, c_in, t, f))
        expected = conv3x3_loops(x, layer.params["w"], layer.params["b"])
        np.testing.assert_allclose(layer.forward(x), expected, rtol=0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        layer = nn.Conv2d(3, 4, rng)
        x = rng.standard_normal((2, 3, 5, 8))
        fd_param_check(layer, x)
        fd_input_check(layer, x)

    @pytest.mark.parametrize("shape", CONV_SHAPES[:3])
    def test_gradients_edge_shapes(self, shape):
        b, c_in, c_out, t, f = shape
        rng = np.random.default_rng(15)
        layer = nn.Conv2d(c_in, c_out, rng)
        x = rng.standard_normal((b, c_in, t, f))
        fd_param_check(layer, x)
        fd_input_check(layer, x)

    def test_column_buffer_holds_one_sample(self):
        """Forward plus backward at batch 32 on the desk first stage (6 -> 8
        channels, 25 x 129) peaks near 15 MB with one sample's columns
        (1.4 MB); a column matrix for the whole batch alone takes 44.6 MB."""
        rng = np.random.default_rng(16)
        layer = nn.Conv2d(6, 8, rng)
        x = rng.standard_normal((32, 6, 25, 129))
        dy = rng.standard_normal((32, 8, 25, 129))
        tracemalloc.start()
        try:
            layer.forward(x, train=True)
            layer.backward(dy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("shape", [(16, 6, 8, 25, 129), (2, 3, 4, 5, 8)],
                             ids=["desk-first-stage", "tiny"])
    def test_skipped_input_gradient_keeps_parameter_gradients(self, shape):
        b, c_in, c_out, t, f = shape
        rng = np.random.default_rng(17)
        layer = nn.Conv2d(c_in, c_out, rng)
        x = rng.standard_normal((b, c_in, t, f))
        dy = rng.standard_normal((b, c_out, t, f))
        layer.forward(x, train=True)
        assert layer.backward(dy).shape == x.shape
        full = {name: g.copy() for name, g in layer.grads.items()}
        for g in layer.grads.values():
            g[...] = 0.0
        assert layer.backward(dy, need_dx=False) is None
        for name, g in layer.grads.items():
            assert g.tobytes() == full[name].tobytes(), name


def sigmoid_two_branch(x):
    """The logistic function as two masked halves, each overflow-free."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, 1e-300, 36.8, 709.0, 746.0, np.inf]

    @pytest.mark.parametrize("x", [
        np.array(EDGES + [-v for v in EDGES]),
        40.0 * np.random.default_rng(18).standard_normal((2, 16, 256)),
    ], ids=["edges", "normal-scale-40"])
    def test_bits_match_the_two_branch_form(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = nn._sigmoid(x)
        expected = sigmoid_two_branch(x)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_nan_stays_nan(self):
        # only the NaN's sign bit may differ from the two-branch form
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = nn._sigmoid(np.array([np.nan, -np.nan, 1.0]))
        assert np.isnan(got[:2]).all() and got[2] == sigmoid_two_branch(np.array([1.0]))[0]


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(5)
        layer = nn.BatchNorm2d(3)
        x = rng.standard_normal((4, 3, 6, 7)) * 3.0 + 1.5
        y = layer.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_feed_inference(self):
        rng = np.random.default_rng(6)
        layer = nn.BatchNorm2d(2)
        x = rng.standard_normal((8, 2, 4, 4)) * 2.0 + 1.0
        for _ in range(200):
            layer.forward(x, train=True)
        y = layer.forward(x, train=False)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-2)

    def test_gradients_train_mode(self):
        rng = np.random.default_rng(7)
        layer = nn.BatchNorm2d(3)
        layer.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
        layer.params["beta"][...] = rng.uniform(-0.5, 0.5, 3)
        x = rng.standard_normal((3, 3, 4, 5))
        fd_param_check(layer, x)
        fd_input_check(layer, x)


class TestMaxPoolFreq:
    def test_pooling_and_floor(self):
        x = np.arange(2 * 1 * 1 * 9, dtype=float).reshape(2, 1, 1, 9)
        y = nn.MaxPoolFreq(4).forward(x)
        assert y.shape == (2, 1, 1, 2)  # ninth bin dropped
        assert y[0, 0, 0, 0] == 3.0 and y[0, 0, 0, 1] == 7.0

    def test_gradient_routes_to_argmax(self):
        rng = np.random.default_rng(8)
        layer = nn.MaxPoolFreq(3)
        x = rng.standard_normal((2, 2, 3, 9))
        y = layer.forward(x, train=True)
        dy = np.ones_like(y)
        dx = layer.backward(dy)
        assert dx.shape == x.shape
        assert dx.sum() == y.size
        assert np.all((dx == 0) | (dx == 1))

    def test_tie_routes_gradient_to_first_maximum(self):
        x = np.array([[[[1.0, 5.0, 5.0, 2.0, 3.0, 3.0, 3.0, 0.0, 9.0]]]])
        layer = nn.MaxPoolFreq(4)
        y = layer.forward(x, train=True)
        np.testing.assert_array_equal(y, [[[[5.0, 3.0]]]])
        dx = layer.backward(np.array([[[[2.0, 7.0]]]]))
        np.testing.assert_array_equal(dx, [[[[0.0, 2.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 0.0]]]])

    @pytest.mark.parametrize("values", [
        None,
        [1.0, 2.0, 3.0],
        [0.0, -0.0],
        [0.0, -0.0, -1.0, np.nan, -np.nan, 1.0],
    ], ids=["random", "ties", "signed-zero-ties", "nan"])
    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    def test_inference_mode_gives_the_training_bits(self, values, factor):
        rng = np.random.default_rng(20)
        shape = (3, 2, 5, 8 * factor + 3)
        x = rng.standard_normal(shape) if values is None else rng.choice(values, shape)
        layer = nn.MaxPoolFreq(factor)
        trained = layer.forward(x, train=True)
        inferred = layer.forward(x, train=False)
        assert inferred.tobytes() == trained.tobytes()

    def test_fresh_network_pools_zero_and_nan_windows_as_training_does(self):
        # a fresh desk network's batch norm keeps ReLU zeros at zero, so whole
        # windows pool to +0.0; -0.0 ties and NaNs are written in besides
        from ambidoa.estimator import Formulation, NetworkConfig, build_network

        net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=3)
        x = np.random.default_rng(22).uniform(-0.8, 0.8, (4, 6, 25, 129))
        pools = 0
        for layer in net.layers:
            if isinstance(layer, nn.FrameFlatten):
                break
            if isinstance(layer, nn.MaxPoolFreq):
                k = layer.factor
                x[0, 0, :3, :k] = [-0.0, 0.0, 0.0, -0.0][:k]
                x[1, 1, 2, 3 * k : 4 * k] = np.nan
                x[2, 0, 4, -k:] = [-1.0, np.nan, -np.nan, 2.0][:k]
                trained = layer.forward(x, train=True)
                inferred = layer.forward(x)
                assert (inferred == 0).any() and np.isnan(inferred).any()
                assert inferred.tobytes() == trained.tobytes()
                pools += 1
            x = layer.forward(x)
        assert pools == 3

    def test_inference_mode_takes_no_whole_tensor_argmax(self, monkeypatch):
        from ambidoa.estimator import Formulation, NetworkConfig, build_network, predict

        shapes = []

        class Spy(np.ndarray):
            def argmax(self, *args, **kwargs):
                shapes.append(self.shape)
                return np.asarray(self).argmax(*args, **kwargs)

        blocks = nn.MaxPoolFreq._blocks
        monkeypatch.setattr(nn.MaxPoolFreq, "_blocks",
                            lambda layer, x: blocks(layer, x).view(Spy))
        net = build_network(NetworkConfig.desk(), Formulation("cartesian"), seed=3)
        x = np.random.default_rng(23).uniform(-0.8, 0.8, (20, 6, 25, 129))
        predict(net, x)
        # a fresh network pools zero windows, and only those take an argmax
        assert shapes and all(len(shape) == 2 for shape in shapes)


def lstm_direction_per_step(x, w, u, bias, dhs):
    """One LSTM direction, stepped through time on its own, every product
    taken per step: outputs, input gradient and (dw, du, db) for the output
    gradient ``dhs``."""
    b, t, _ = x.shape
    h = u.shape[1]
    hs = np.zeros((b, t, h))
    cache = []
    h_prev = np.zeros((b, h))
    c_prev = np.zeros((b, h))
    for step in range(t):
        z = x[:, step] @ w.T + h_prev @ u.T + bias
        i = nn._sigmoid(z[:, :h])
        f = nn._sigmoid(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = nn._sigmoid(z[:, 3 * h :])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h_now = o * tanh_c
        hs[:, step] = h_now
        cache.append((x[:, step], h_prev, c_prev, i, f, g, o, tanh_c))
        h_prev, c_prev = h_now, c
    dx = np.zeros_like(x)
    dw, du, db = np.zeros_like(w), np.zeros_like(u), np.zeros_like(bias)
    dh_next = np.zeros((b, h))
    dc_next = np.zeros((b, h))
    for step in range(t - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = cache[step]
        dh = dhs[:, step] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dc_next = dc * f
        dz = np.concatenate([dc * g * i * (1 - i), dc * c_prev * f * (1 - f),
                             dc * i * (1 - g**2), do * o * (1 - o)], axis=1)
        dw += dz.T @ x_t
        du += dz.T @ h_prev
        db += dz.sum(axis=0)
        dx[:, step] = dz @ w
        dh_next = dz @ u
    return hs, dx, (dw, du, db)


def lstm_direction(x, w, u, bias, dhs):
    """:func:`lstm_direction_per_step` with the layer's arithmetic: the input
    projection of all steps is one GEMM before the loop, and the loop keeps
    only the recurrence. The weight gradients are GEMMs over the stacked
    (batch x frames) rows of every step, summed in pieces of at most
    ``nn.K_CHUNK`` rows; the input gradient is one GEMM."""
    b, t, d = x.shape
    h = u.shape[1]
    xw = (x.reshape(b * t, d) @ w.T).reshape(b, t, 4 * h)
    hs = np.zeros((b, t + 1, h))  # hs[:, s] is the state step s starts from
    cache = []
    c_prev = np.zeros((b, h))
    for step in range(t):
        z = xw[:, step] + hs[:, step] @ u.T + bias
        i = nn._sigmoid(z[:, :h])
        f = nn._sigmoid(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = nn._sigmoid(z[:, 3 * h :])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        hs[:, step + 1] = o * tanh_c
        cache.append((c_prev, i, f, g, o, tanh_c))
        c_prev = c
    dz = np.zeros((b, t, 4 * h))
    dh_next = np.zeros((b, h))
    dc_next = np.zeros((b, h))
    for step in range(t - 1, -1, -1):
        c_prev, i, f, g, o, tanh_c = cache[step]
        dh = dhs[:, step] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dc_next = dc * f
        dz[:, step] = np.concatenate([dc * g * i * (1 - i), dc * c_prev * f * (1 - f),
                                      dc * i * (1 - g**2), do * o * (1 - o)], axis=1)
        dh_next = dz[:, step] @ u
    rows_dz, rows_x = dz.reshape(b * t, 4 * h), x.reshape(b * t, d)
    rows_h = hs[:, :t].reshape(b * t, h)
    dw, du, db = np.zeros_like(w), np.zeros_like(u), np.zeros_like(bias)
    for k in range(0, b * t, nn.K_CHUNK):
        piece = slice(k, k + nn.K_CHUNK)
        dw += rows_dz[piece].T @ rows_x[piece]
        du += rows_dz[piece].T @ rows_h[piece]
    db += rows_dz.sum(axis=0)
    dx = (rows_dz @ w).reshape(b, t, d)
    return hs[:, 1:], dx, (dw, du, db)


# (batch, frames, d_in, hidden)
LSTM_SHAPES = [(1, 5, 4, 3), (3, 1, 4, 3), (2, 6, 3, 5), (16, 25, 32, 16)]


class TestBiLSTM:
    @pytest.mark.parametrize("shape", LSTM_SHAPES)
    def test_matches_two_separate_directions(self, shape):
        b, t, d_in, hidden = shape
        rng = np.random.default_rng(18)
        layer = nn.BiLSTM(d_in, hidden, rng)
        x = rng.standard_normal((b, t, d_in))
        dy = rng.standard_normal((b, t, 2 * hidden))
        y = layer.forward(x, train=True)
        dx = layer.backward(dy)
        p = layer.params
        fwd, dx_f, grads_f = lstm_direction(x, p["w_fwd"], p["u_fwd"], p["b_fwd"],
                                            dy[:, :, :hidden])
        bwd, dx_b, grads_b = lstm_direction(x[:, ::-1], p["w_bwd"], p["u_bwd"],
                                            p["b_bwd"], dy[:, ::-1, hidden:])
        np.testing.assert_array_equal(y, np.concatenate([fwd, bwd[:, ::-1]], axis=2))
        np.testing.assert_array_equal(dx, dx_f + dx_b[:, ::-1])
        for side, grads in (("fwd", grads_f), ("bwd", grads_b)):
            for k, expected in zip("wub", grads):
                np.testing.assert_array_equal(layer.grads[f"{k}_{side}"], expected)

    @pytest.mark.parametrize("shape", LSTM_SHAPES)
    def test_stays_near_the_per_step_recurrence(self, shape):
        """The hoisted and post-loop GEMMs sum in another order than per-step
        products, so the layer moves from the per-step recurrence by rounding
        only: within 1e-12 of each array's largest magnitude."""
        b, t, d_in, hidden = shape
        rng = np.random.default_rng(19)
        layer = nn.BiLSTM(d_in, hidden, rng)
        x = rng.standard_normal((b, t, d_in))
        dy = rng.standard_normal((b, t, 2 * hidden))
        y = layer.forward(x, train=True)
        dx = layer.backward(dy)
        p = layer.params
        fwd, dx_f, grads_f = lstm_direction_per_step(x, p["w_fwd"], p["u_fwd"],
                                                     p["b_fwd"], dy[:, :, :hidden])
        bwd, dx_b, grads_b = lstm_direction_per_step(x[:, ::-1], p["w_bwd"], p["u_bwd"],
                                                     p["b_bwd"], dy[:, ::-1, hidden:])
        pairs = [(y, np.concatenate([fwd, bwd[:, ::-1]], axis=2)),
                 (dx, dx_f + dx_b[:, ::-1])]
        for side, grads in (("fwd", grads_f), ("bwd", grads_b)):
            pairs += [(layer.grads[f"{k}_{side}"], g) for k, g in zip("wub", grads)]
        for got, expected in pairs:
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-12 * np.abs(expected).max())

    def test_output_shape(self):
        rng = np.random.default_rng(9)
        layer = nn.BiLSTM(6, 5, rng)
        y = layer.forward(rng.standard_normal((3, 7, 6)))
        assert y.shape == (3, 7, 10)

    def test_backward_direction_sees_future(self):
        rng = np.random.default_rng(10)
        layer = nn.BiLSTM(2, 3, rng)
        x = rng.standard_normal((1, 6, 2))
        base = layer.forward(x)
        x2 = x.copy()
        x2[0, 5] += 1.0  # change the last frame
        bumped = layer.forward(x2)
        # forward half at t=0 is untouched, backward half changes
        np.testing.assert_array_equal(base[0, 0, :3], bumped[0, 0, :3])
        assert np.any(base[0, 0, 3:] != bumped[0, 0, 3:])

    def test_gradients(self):
        rng = np.random.default_rng(11)
        layer = nn.BiLSTM(4, 3, rng)
        x = rng.standard_normal((2, 5, 4))
        fd_param_check(layer, x, tol=1e-6)
        fd_input_check(layer, x, tol=1e-6)


class TestTimeDense:
    def test_per_frame_affine(self):
        rng = np.random.default_rng(12)
        layer = nn.TimeDense(4, 2, rng)
        x = rng.standard_normal((2, 3, 4))
        y = layer.forward(x)
        expected = layer.params["w"] @ x[1, 2] + layer.params["b"]
        np.testing.assert_allclose(y[1, 2], expected, atol=1e-14)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        layer = nn.TimeDense(5, 3, rng)
        x = rng.standard_normal((2, 4, 5))
        fd_param_check(layer, x)
        fd_input_check(layer, x)



def held_arrays(value):
    """Every array that ``value`` reaches through lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from held_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from held_arrays(item)


@pytest.mark.parametrize("make, shape", [
    (lambda rng: nn.Conv2d(3, 4, rng), (2, 3, 5, 8)),
    (lambda rng: nn.ReLU(), (2, 3, 4, 5)),
    (lambda rng: nn.BatchNorm2d(3), (2, 3, 4, 5)),
    (lambda rng: nn.MaxPoolFreq(3), (2, 3, 4, 9)),
    (lambda rng: nn.FrameFlatten(), (2, 3, 4, 5)),
    (lambda rng: nn.BiLSTM(4, 3, rng), (2, 5, 4)),
    (lambda rng: nn.TimeDense(4, 2, rng), (2, 5, 4)),
], ids=["Conv2d", "ReLU", "BatchNorm2d", "MaxPoolFreq", "FrameFlatten", "BiLSTM",
        "TimeDense"])
def test_inference_forward_keeps_no_backward_state(make, shape):
    """After a training forward then an inference forward, a layer holds only
    its parameter, gradient and buffer arrays (and the arrays they slice),
    and ``backward`` raises instead of reusing the training pass."""
    rng = np.random.default_rng(24)
    layer = make(rng)
    x = rng.standard_normal(shape)
    dy = np.ones_like(layer.forward(x, train=True))
    layer.backward(dy)
    layer.forward(x)
    own = [*layer.params.values(), *layer.grads.values(), *layer.buffers.values()]
    own += [a.base for a in own if a.base is not None]
    for held in held_arrays(vars(layer)):
        assert any(held is a for a in own), f"holds a {held.shape} array"
    with pytest.raises((AttributeError, TypeError)):
        layer.backward(dy)
