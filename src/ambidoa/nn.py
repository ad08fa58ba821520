"""Minimal neural-network layers with analytic backpropagation.

Everything runs on float64 numpy so gradients can be validated against
central finite differences to tight tolerances. Layers follow a common
shape contract: convolutional stages work on (batch, channels, frames, bins)
tensors, recurrent/dense stages on (batch, frames, features).

Weight initialization is fan-in-scaled uniform, drawn from a caller-supplied
generator so a fixed seed reproduces parameters bit for bit.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

__all__ = [
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPoolFreq",
    "FrameFlatten",
    "BiLSTM",
    "TimeDense",
]

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
# Reduction length of one weight-gradient GEMM: BLAS splits a longer sum
# differently per thread count, so the bits would depend on it.
K_CHUNK = 512


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _sigmoid(x):
    """Logistic function that never overflows: exp(-|x|) is exp(-x) where
    x >= 0 and exp(x) elsewhere, so the result is 1/(1 + e^-x) or
    e^x/(1 + e^x), bit for bit, without gathering either half."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class Layer:
    """Base: parameter-free layer. ``params`` maps each trainable array's name
    to the array and ``grads`` maps the same names to same-shaped gradient
    accumulators; ``buffers`` holds untrained state a checkpoint keeps. The
    arrays live for the network's lifetime, so an optimizer can hold state
    keyed by name."""

    params = grads = buffers = MappingProxyType({})

    def _declare(self, **params):
        """Name each trainable array once; its gradient accumulator follows."""
        self.params = params
        self.grads = {name: np.zeros_like(p) for name, p in params.items()}


class Conv2d(Layer):
    """3x3 same-padded convolution over (frames, bins), lowered to one GEMM
    per sample: im2col gathers a (c_in*9, frames*bins) column matrix, and
    col2im scatters its gradient back. Columns are built for one sample at a
    time, so the buffer never holds the whole batch. ``backward(dy,
    need_dx=False)`` builds only the parameter gradients: the network's first
    layer has no use for the gradient of its input features."""

    def __init__(self, c_in, c_out, rng):
        self.c_out = c_out
        fan_in = c_in * 9
        self._declare(w=_uniform_init(rng, (c_out, c_in, 3, 3), fan_in),
                      b=_uniform_init(rng, (c_out,), fan_in))
        self._xpad = None

    @staticmethod
    def _im2col(xpad_i, cols):
        """Fill cols[c, dt, df] with the (dt, df)-shifted window of one padded
        sample (c, frames + 2, bins + 2)."""
        _, _, _, t, f = cols.shape
        for dt in range(3):
            for df in range(3):
                cols[:, dt, df] = xpad_i[:, dt : dt + t, df : df + f]

    def forward(self, x, train=False):
        b, c, t, f = x.shape
        xpad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        self._xpad = xpad
        w = self.params["w"].reshape(self.c_out, c * 9)
        cols = np.empty((c, 3, 3, t, f))
        out = np.empty((b, self.c_out, t, f))
        for i in range(b):
            self._im2col(xpad[i], cols)
            np.matmul(w, cols.reshape(c * 9, t * f),
                      out=out[i].reshape(self.c_out, t * f))
        out += self.params["b"][None, :, None, None]
        return out

    def backward(self, dy, need_dx=True):
        """Accumulate the weight and bias gradients; return the input gradient,
        or None without building it when ``need_dx`` is False."""
        xpad = self._xpad
        b, c, tp, fp = xpad.shape
        t, f = tp - 2, fp - 2
        w = self.params["w"].reshape(self.c_out, c * 9)
        dw = self.grads["w"].reshape(self.c_out, c * 9)  # a view: += accumulates
        cols = np.empty((c, 3, 3, t, f))
        dxpad = np.zeros_like(xpad) if need_dx else None
        for i in range(b):
            self._im2col(xpad[i], cols)
            dy_i = dy[i].reshape(self.c_out, t * f)
            cols_i = cols.reshape(c * 9, t * f)
            for k in range(0, t * f, K_CHUNK):  # fixed chunks, summed in order
                dw += dy_i[:, k : k + K_CHUNK] @ cols_i[:, k : k + K_CHUNK].T
            if need_dx:
                dcols = (w.T @ dy_i).reshape(c, 3, 3, t, f)
                for dt in range(3):
                    for df in range(3):
                        dxpad[i, :, dt : dt + t, df : df + f] += dcols[:, dt, df]
        self.grads["b"] += dy.sum(axis=(0, 2, 3))
        return dxpad[:, :, 1:-1, 1:-1] if need_dx else None


class BatchNorm2d(Layer):
    """Per-channel normalization over (batch, frames, bins).

    Training mode normalizes by batch statistics and refreshes the running
    averages (momentum ``BN_MOMENTUM``); inference mode uses the running
    averages. ``BN_EPS`` is added to the variance.
    """

    def __init__(self, channels):
        self._declare(gamma=np.ones(channels), beta=np.zeros(channels))
        self.buffers = {"run_mean": np.zeros(channels), "run_var": np.ones(channels)}
        self._cache = None

    def forward(self, x, train=False):
        b, c, t, f = x.shape
        xv = x.reshape(b, c, t * f)
        run_mean, run_var = self.buffers["run_mean"], self.buffers["run_var"]
        if train:
            n = b * t * f
            mean = np.einsum("bcn->c", xv) / n
            xhat = xv - mean[:, None]
            var = np.einsum("bcn,bcn->c", xhat, xhat) / n
            run_mean[...] = BN_MOMENTUM * run_mean + (1 - BN_MOMENTUM) * mean
            run_var[...] = BN_MOMENTUM * run_var + (1 - BN_MOMENTUM) * var
        else:
            mean, var = run_mean, run_var
            xhat = xv - mean[:, None]
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv[:, None]
        self._cache = (xhat, inv, train)
        out = xhat * self.params["gamma"][:, None]
        out += self.params["beta"][:, None]
        return out.reshape(b, c, t, f)

    def backward(self, dy):
        xhat, inv, train = self._cache
        b, c, t, f = dy.shape
        dyv = dy.reshape(b, c, t * f)
        sum_dy = np.einsum("bcn->c", dyv)
        sum_dyx = np.einsum("bcn,bcn->c", dyv, xhat)
        self.grads["gamma"] += sum_dyx
        self.grads["beta"] += sum_dy
        scale = self.params["gamma"] * inv
        dx = dyv * scale[:, None]
        if train:
            n = b * t * f
            dx -= xhat * (scale * sum_dyx / n)[:, None]
            dx -= (scale * sum_dy / n)[:, None]
        return dx.reshape(b, c, t, f)


class ReLU(Layer):
    def forward(self, x, train=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask


class MaxPoolFreq(Layer):
    """Max pooling over the frequency axis only, window = stride = factor.
    Trailing bins that do not fill a window are dropped."""

    def __init__(self, factor):
        self.factor = factor

    def forward(self, x, train=False):
        b, c, t, f = x.shape
        k = self.factor
        f_out = f // k
        blocks = x[:, :, :, : f_out * k].reshape(b, c, t, f_out, k)
        self._argmax = blocks.argmax(axis=4)[..., None]
        self._in_bins = f
        return np.take_along_axis(blocks, self._argmax, axis=4)[..., 0]

    def backward(self, dy):
        b, c, t, f_out = dy.shape
        k = self.factor
        dx = np.zeros((b, c, t, self._in_bins))
        # splitting the bin axis of a slice is a view, so the scatter lands in dx
        dblocks = dx[:, :, :, : f_out * k].reshape(b, c, t, f_out, k)
        np.put_along_axis(dblocks, self._argmax, dy[..., None], axis=4)
        return dx


class FrameFlatten(Layer):
    """(batch, channels, frames, bins) -> (batch, frames, channels * bins)."""

    def forward(self, x, train=False):
        self._shape = x.shape
        b, c, t, f = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, c * f)

    def backward(self, dy):
        b, c, t, f = self._shape
        return dy.reshape(b, t, c, f).transpose(0, 2, 1, 3)


class BiLSTM(Layer):
    """Bidirectional LSTM; output concatenates both directions per frame.

    Both directions step through one time loop, stacked on a leading axis of
    size 2: direction 0 reads the input forward in time, direction 1 reads it
    reversed. ``w``, ``u`` and ``b`` hold both directions' weights, and
    ``params``/``grads`` name each direction's slice ``{w,u,b}_{fwd,bwd}``.
    Gate order (input, forget, cell, output).
    """

    def __init__(self, d_in, hidden, rng):
        h = self.hidden = hidden
        self.w = np.empty((2, 4 * h, d_in))
        self.u = np.empty((2, 4 * h, h))
        self.b = np.empty((2, 4 * h))
        self.dw, self.du, self.db = (np.zeros_like(a) for a in (self.w, self.u, self.b))
        self.params, self.grads = {}, {}
        for d, side in enumerate(("fwd", "bwd")):  # fwd's w, u, b are drawn before bwd's
            for k, p, g, fan_in in (("w", self.w, self.dw, d_in),
                                    ("u", self.u, self.du, h),
                                    ("b", self.b, self.db, h)):
                p[d] = _uniform_init(rng, p.shape[1:], fan_in)
                self.params[f"{k}_{side}"] = p[d]
                self.grads[f"{k}_{side}"] = g[d]

    def forward(self, x, train=False):
        b, t, _ = x.shape
        h = self.hidden
        xs = np.stack([x, x[:, ::-1]])
        w_t, u_t = self.w.transpose(0, 2, 1), self.u.transpose(0, 2, 1)
        hs = np.empty((2, b, t, h))
        cache = []
        h_prev = np.zeros((2, b, h))
        c_prev = np.zeros((2, b, h))
        for step in range(t):
            x_t = xs[:, :, step]
            z = x_t @ w_t + h_prev @ u_t + self.b[:, None]
            s = _sigmoid(z)
            i, f, o = s[..., :h], s[..., h : 2 * h], s[..., 3 * h :]
            g = np.tanh(z[..., 2 * h : 3 * h])
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h_now = o * tanh_c
            hs[:, :, step] = h_now
            cache.append((x_t, h_prev, c_prev, i, f, g, o, tanh_c))
            h_prev, c_prev = h_now, c
        self._cache = cache
        return np.concatenate([hs[0], hs[1, :, ::-1]], axis=2)

    def backward(self, dy):
        b, t, _ = dy.shape
        h = self.hidden
        dhs = np.stack([dy[:, :, :h], dy[:, ::-1, h:]])
        dxs = np.empty((2, b, t, self.w.shape[2]))
        dh_next = np.zeros((2, b, h))
        dc_next = np.zeros((2, b, h))
        for step in range(t - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, tanh_c = self._cache[step]
            dh = dhs[:, :, step] + dh_next
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1 - i),
                    df * f * (1 - f),
                    dg * (1 - g**2),
                    do * o * (1 - o),
                ],
                axis=2,
            )
            dz_t = dz.transpose(0, 2, 1)
            self.dw += dz_t @ x_t
            self.du += dz_t @ h_prev
            self.db += dz.sum(axis=1)
            dxs[:, :, step] = dz @ self.w
            dh_next = dz @ self.u
        return dxs[0] + dxs[1, :, ::-1]


class TimeDense(Layer):
    """Affine map applied independently at every frame."""

    def __init__(self, d_in, d_out, rng):
        self._declare(w=_uniform_init(rng, (d_out, d_in), d_in),
                      b=_uniform_init(rng, (d_out,), d_in))

    def forward(self, x, train=False):
        self._x = x
        return x @ self.params["w"].T + self.params["b"]

    def backward(self, dy):
        self.grads["w"] += np.einsum("bto,bti->oi", dy, self._x, optimize=True)
        self.grads["b"] += dy.sum(axis=(0, 1))
        return dy @ self.params["w"]
