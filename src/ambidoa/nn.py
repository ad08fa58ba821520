"""Minimal neural-network layers with analytic backpropagation.

Everything runs on float64 numpy so gradients can be validated against
central finite differences to tight tolerances. Layers follow a common
shape contract: convolutional stages work on (batch, channels, frames, bins)
tensors, recurrent/dense stages on (batch, frames, features).

Weight initialization is fan-in-scaled uniform, drawn from a caller-supplied
generator so a fixed seed reproduces parameters bit for bit. Weight gradients
reduce over batch x frames (x bins) rows in fixed pieces of at most
``K_CHUNK`` rows, added in order, so their bits do not depend on the number
of BLAS threads.
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
# Longest reduction of one weight-gradient GEMM. Every layer sums its weight
# gradient over batch x frames (x bins) rows in fixed pieces of at most this
# many rows, added in order: OpenBLAS splits a longer reduction across its
# threads (400 rows as 200 + 200 on two), so the bits would depend on the
# thread count.
K_CHUNK = 256


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
    keyed by name.

    ``backward`` follows a training forward (``train=True``): only that keeps
    what ``backward`` reads. An inference forward keeps none of it, so no
    activation outlives an inference pass, and ``backward`` after one
    raises."""

    params = grads = buffers = MappingProxyType({})

    def _declare(self, **params):
        """Name each trainable array once; its gradient accumulator follows."""
        self.params = params
        self.grads = {name: np.zeros_like(p) for name, p in params.items()}


class Conv2d(Layer):
    """3x3 same-padded convolution over (frames, bins), lowered to one GEMM
    per sample: im2col gathers a (c_in*9, frames*bins) column matrix. The
    input gradient is the transposed convolution, the same lowering applied
    to the zero-padded output gradient with the kernels flipped in both axes
    and their channel axes swapped. Columns are built for one sample at a
    time, so the buffers never hold the whole batch. ``backward(dy,
    need_dx=False)`` builds only the parameter gradients: the network's first
    layer has no use for the gradient of its input features."""

    def __init__(self, c_in, c_out, rng):
        self.c_out = c_out
        fan_in = c_in * 9
        self._declare(w=_uniform_init(rng, (c_out, c_in, 3, 3), fan_in),
                      b=_uniform_init(rng, (c_out,), fan_in))

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
        xpad = np.zeros((b, c, t + 2, f + 2))  # the border stays zero
        xpad[:, :, 1:-1, 1:-1] = x
        self._xpad = xpad if train else None
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
        dw = self.grads["w"].reshape(self.c_out, c * 9)  # a view: += accumulates
        cols = np.empty((c, 3, 3, t, f))
        if need_dx:
            w_flip = self.params["w"][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            w_flip = w_flip.reshape(c, self.c_out * 9)
            dypad = np.zeros((self.c_out, tp, fp))  # the border stays zero
            dcols = np.empty((self.c_out, 3, 3, t, f))
            dx = np.empty((b, c, t, f))
        for i in range(b):
            self._im2col(xpad[i], cols)
            dy_i = dy[i].reshape(self.c_out, t * f)
            cols_i = cols.reshape(c * 9, t * f)
            for k in range(0, t * f, K_CHUNK):  # fixed chunks, summed in order
                dw += dy_i[:, k : k + K_CHUNK] @ cols_i[:, k : k + K_CHUNK].T
            if need_dx:
                dypad[:, 1:-1, 1:-1] = dy[i]
                self._im2col(dypad, dcols)
                np.matmul(w_flip, dcols.reshape(self.c_out * 9, t * f),
                          out=dx[i].reshape(c, t * f))
        self.grads["b"] += dy.sum(axis=(0, 2, 3))
        return dx if need_dx else None


class BatchNorm2d(Layer):
    """Per-channel normalization over (batch, frames, bins).

    Training mode normalizes by batch statistics and refreshes the running
    averages (momentum ``BN_MOMENTUM``); inference mode uses the running
    averages. ``BN_EPS`` is added to the variance. ``backward`` is that of
    training mode, through the batch statistics.
    """

    def __init__(self, channels):
        self._declare(gamma=np.ones(channels), beta=np.zeros(channels))
        self.buffers = {"run_mean": np.zeros(channels), "run_var": np.ones(channels)}

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
        self._cache = (xhat, inv) if train else None
        out = xhat * self.params["gamma"][:, None]
        out += self.params["beta"][:, None]
        return out.reshape(b, c, t, f)

    def backward(self, dy):
        xhat, inv = self._cache
        b, c, t, f = dy.shape
        n = b * t * f
        dyv = dy.reshape(b, c, t * f)
        sum_dy = np.einsum("bcn->c", dyv)
        sum_dyx = np.einsum("bcn,bcn->c", dyv, xhat)
        self.grads["gamma"] += sum_dyx
        self.grads["beta"] += sum_dy
        scale = self.params["gamma"] * inv
        dx = dyv * scale[:, None]
        dx -= xhat * (scale * sum_dyx / n)[:, None]
        dx -= (scale * sum_dy / n)[:, None]
        return dx.reshape(b, c, t, f)


class ReLU(Layer):
    def forward(self, x, train=False):
        mask = x > 0
        self._mask = mask if train else None
        return x * mask

    def backward(self, dy):
        return dy * self._mask


class MaxPoolFreq(Layer):
    """Max pooling over the frequency axis only, window = stride = factor.
    Trailing bins that do not fill a window are dropped.

    The two forward modes give the same bits. Training mode takes each
    window's argmax, which ``backward`` routes the gradient to and the
    gradient check reads as the active piece. Inference mode takes
    ``np.maximum`` over the factor strided columns instead, a fraction of the
    argmax's cost."""

    def __init__(self, factor):
        self.factor = factor

    def _blocks(self, x):
        b, c, t, f = x.shape
        k = self.factor
        return x[:, :, :, : f // k * k].reshape(b, c, t, f // k, k)

    def forward(self, x, train=False):
        if not train:
            self._in_bins = self._argmax = None
            k = self.factor
            n = x.shape[3] // k * k
            out = x[..., 0:n:k].copy()
            for j in range(1, k):
                np.maximum(out, x[..., j:n:k], out=out)
            # np.maximum may return either of two equal zeros (+0.0, -0.0) or
            # NaNs; training takes the first, so those windows take it too
            if not out.all() or np.isnan(out).any():
                fix = np.nonzero(~(np.abs(out) > 0))
                blocks = self._blocks(x)[fix]
                out[fix] = blocks[np.arange(len(blocks)), blocks.argmax(axis=1)]
            return out
        blocks = self._blocks(x)
        self._in_bins, self._argmax = x.shape[3], blocks.argmax(axis=4)[..., None]
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
        self._shape = x.shape if train else None
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

    The input projection of every step is one GEMM per direction before the
    time loop, and the backward loop keeps only the recurrence: it stores
    each step's pre-activation gradient, and the weight gradients are GEMMs
    over all steps' rows after it, in ``K_CHUNK``-row pieces.
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
        b, t, d = x.shape
        h = self.hidden
        xs = np.stack([x, x[:, ::-1]])
        xw = (xs.reshape(2, b * t, d) @ self.w.transpose(0, 2, 1)).reshape(2, b, t, 4 * h)
        u_t = self.u.transpose(0, 2, 1)
        # slot 0 is the zero initial state and step s writes slot s + 1, so
        # slot s is the h_prev of step s
        hs = np.zeros((2, b, t + 1, h))
        cache = [] if train else None
        c_prev = np.zeros((2, b, h))
        for step in range(t):
            z = xw[:, :, step] + hs[:, :, step] @ u_t
            z += self.b[:, None]
            s = _sigmoid(z)
            i, f, o = s[..., :h], s[..., h : 2 * h], s[..., 3 * h :]
            g = np.tanh(z[..., 2 * h : 3 * h])
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            hs[:, :, step + 1] = o * tanh_c
            if train:
                cache.append((c_prev, i, f, g, o, tanh_c))
            c_prev = c
        self._xs, self._hs, self._cache = (xs, hs, cache) if train else (None,) * 3
        return np.concatenate([hs[0, :, 1:], hs[1, :, :0:-1]], axis=2)

    def backward(self, dy):
        b, t, _ = dy.shape
        h = self.hidden
        dhs = np.stack([dy[:, :, :h], dy[:, ::-1, h:]])
        dz = np.empty((2, b, t, 4 * h))
        dh_next = np.zeros((2, b, h))
        dc_next = np.zeros((2, b, h))
        for step in range(t - 1, -1, -1):
            c_prev, i, f, g, o, tanh_c = self._cache[step]
            dh = dhs[:, :, step] + dh_next
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            dc_next = dc * f
            dz_t = dz[:, :, step]
            dz_t[..., :h] = dc * g * i * (1 - i)
            dz_t[..., h : 2 * h] = dc * c_prev * f * (1 - f)
            dz_t[..., 2 * h : 3 * h] = dc * i * (1 - g**2)
            dz_t[..., 3 * h :] = do * o * (1 - o)
            dh_next = dz_t @ self.u
        dz = dz.reshape(2, b * t, 4 * h)
        xs = self._xs.reshape(2, b * t, -1)
        h_prev = self._hs[:, :, :t].reshape(2, b * t, h)
        for k in range(0, b * t, K_CHUNK):
            dz_k = dz[:, k : k + K_CHUNK].transpose(0, 2, 1)
            self.dw += dz_k @ xs[:, k : k + K_CHUNK]
            self.du += dz_k @ h_prev[:, k : k + K_CHUNK]
        self.db += dz.sum(axis=1)
        dxs = (dz @ self.w).reshape(2, b, t, -1)
        return dxs[0] + dxs[1, :, ::-1]


class TimeDense(Layer):
    """Affine map applied independently at every frame; the weight gradient
    sums over batch x frames rows in ``K_CHUNK``-row pieces."""

    def __init__(self, d_in, d_out, rng):
        self._declare(w=_uniform_init(rng, (d_out, d_in), d_in),
                      b=_uniform_init(rng, (d_out,), d_in))

    def forward(self, x, train=False):
        self._x = x if train else None
        return x @ self.params["w"].T + self.params["b"]

    def backward(self, dy):
        d_out, d_in = self.params["w"].shape
        dy2, x2 = dy.reshape(-1, d_out), self._x.reshape(-1, d_in)
        for k in range(0, len(dy2), K_CHUNK):  # fixed chunks, summed in order
            self.grads["w"] += dy2[k : k + K_CHUNK].T @ x2[k : k + K_CHUNK]
        self.grads["b"] += dy.sum(axis=(0, 1))
        return dy @ self.params["w"]
