"""Layer math for the 1-D convolutional autoencoder.

Arrays are float64, shaped (batch, length, channels). A training-mode
forward caches what ``backward`` needs; an inference-mode forward caches
nothing, so it may run between a training forward and its backward. A
training forward's cache serves one backward: ``Sequential.backward`` drops
each layer's cache as soon as that layer's backward returns, so a model
holds no activations between its batches.
``backward`` accumulates parameter gradients and returns the input gradient.
Convolutions use valid padding and stride 1; the decoder recovers length
through nearest-neighbour upsampling and transposed convolutions. A
transposed convolution runs the upsampling before it as one polyphase
layer (see ``ConvTranspose1D``), in training, validation, the cross-loss
matrix and scoring alike, so an upsampling layer only runs where no
transposed convolution follows it.

Fast paths: ReLU, max pooling, the upsampling gradient and batch norm use
masks kept from the forward pass instead of ``np.where`` or an argmax
scatter, whole-array ufunc calls instead of strided reductions, and
arithmetic in place. Each performs the same float operations in the same
order as its textbook form (kept as the oracle in ``tests/test_layers.py``),
so it returns the same bits, with three exceptions. A masked-out gradient may
be -0.0 where the textbook form wrote 0.0. ReLU maps NaN to NaN where the
textbook form gave 0.0, and max pooling routes no gradient into a window
whose maximum is NaN. Batch norm's input gradient reuses the sums of its
parameter gradients (see ``BatchNorm``), so it differs from the textbook
form by rounding; its forward pass, running stats, dgamma and dbeta keep the
textbook bits.

Each layer class is the one description of its kind. Its constructor reads
the spec's arguments and allocates its state; its ``forward`` raises
ShapeMismatch on an input it cannot take, so the output of ``forward`` is
the kind's shape rule; and its size (``param_count``) is the element count
of its ``state()``. A chain is validated by running it (see
``AutoencoderSpec``), not by a second set of shape rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatch


@dataclass(frozen=True)
class LayerSpec:
    """Declarative layer description; the unit of checkpoint headers."""

    kind: str
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.args}

    @classmethod
    def from_dict(cls, data: dict) -> "LayerSpec":
        args = {k: v for k, v in data.items() if k != "kind"}
        return cls(kind=data["kind"], args=args)


def conv1d(c_in: int, c_out: int, kernel: int) -> LayerSpec:
    return LayerSpec("conv1d", {"in_channels": c_in, "out_channels": c_out, "kernel": kernel})


def conv1d_transpose(c_in: int, c_out: int, kernel: int) -> LayerSpec:
    return LayerSpec("conv1d_transpose", {"in_channels": c_in, "out_channels": c_out, "kernel": kernel})


def maxpool(pool: int = 2) -> LayerSpec:
    return LayerSpec("maxpool", {"pool": pool})


def upsample(factor: int = 2) -> LayerSpec:
    return LayerSpec("upsample", {"factor": factor})


def batchnorm(channels: int) -> LayerSpec:
    return LayerSpec("batchnorm", {"channels": channels})


def dense(n_in: int, n_out: int, out_shape: tuple[int, int] | None = None) -> LayerSpec:
    args = {"in_units": n_in, "out_units": n_out}
    if out_shape is not None:
        args["out_shape"] = list(out_shape)
    return LayerSpec("dense", args)


def relu() -> LayerSpec:
    return LayerSpec("activation", {"fn": "relu"})


class Layer:
    """Base layer; parameter-free by default.

    Private attributes (a leading underscore) hold only what a training
    forward keeps for backward.
    """

    spec: LayerSpec

    def drop_cache(self) -> None:
        """Forget what the last training forward kept for backward.

        ``Sequential.backward`` calls it on each layer right after that
        layer's backward, so a training forward's cache serves one backward.
        """
        for name in vars(self):
            if name.startswith("_"):
                setattr(self, name, None)

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []

    def buffers(self) -> list[np.ndarray]:
        """Non-trained state (batch-norm running stats)."""
        return []

    def state(self) -> list[np.ndarray]:
        return self.params() + self.buffers()

    def param_count(self) -> int:
        """Trained parameters plus buffers: the element count of state()."""
        return sum(a.size for a in self.state())

    def zero_grads(self) -> None:
        for g in self.grads():
            g.fill(0.0)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients and return the input gradient.

        With input_grad False the caller needs no input gradient; the
        convolutions then skip it and return None. The parameter gradients
        are the same bits either way.
        """
        raise NotImplementedError


def _weights(rng: np.random.Generator | None, shape: tuple, fan_in: int,
             fan_out: int) -> np.ndarray:
    """Glorot-uniform weights drawn from rng, or zeros without one."""
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv(Layer):
    """State shared by Conv1D and ConvTranspose1D: taps (k, c_in, c_out), bias."""

    def __init__(self, spec: LayerSpec, rng: np.random.Generator | None):
        self.spec = spec
        self.c_in = spec.args["in_channels"]
        self.c_out = spec.args["out_channels"]
        self.k = spec.args["kernel"]
        self.w = _weights(rng, (self.k, self.c_in, self.c_out),
                          self.k * self.c_in, self.k * self.c_out)
        self.b = np.zeros(self.c_out)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]


class Conv1D(Conv):
    def forward(self, x, training):
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise ShapeMismatch(f"conv1d expected (b, L, {self.c_in}), got {x.shape}")
        if x.shape[1] < self.k:
            raise ShapeMismatch(f"conv1d input length {x.shape[1]} < kernel {self.k}")
        if training:
            self._x = x
        l_out = x.shape[1] - self.k + 1
        # t0 + b has the bits of b + t0, so the first tap's product can
        # take the bias in place instead of a broadcast copy of it
        y = x[:, :l_out, :] @ self.w[0]
        y += self.b
        for i in range(1, self.k):
            y += x[:, i:i + l_out, :] @ self.w[i]
        return y

    def backward(self, dy, input_grad=True):
        x = self._x
        l_out = dy.shape[1]
        dx = np.zeros_like(x) if input_grad else None
        for i in range(self.k):
            x_slice = x[:, i:i + l_out, :]
            self.dw[i] += x_slice.reshape(-1, self.c_in).T @ dy.reshape(-1, self.c_out)
            if input_grad:
                dx[:, i:i + l_out, :] += dy @ self.w[i].T
        self.db += _channel_sums(dy)
        return dx


class ConvTranspose1D(Conv):
    """Transposed convolution of the input upsampled by ``factor``, in one
    polyphase (sub-pixel) GEMM (Shi et al. 2016, arXiv:1609.05158).

    ``Sequential`` sets ``factor`` to that of a nearest upsampling directly
    before the layer and leaves the upsampling out of its run order; alone,
    the layer is a plain transposed convolution (factor 1). Output row
    f*j + r of upsample-then-convolve is the sum over m = 0..M of
    u[j - m] @ P[m, r], with M = ceil((k - 1) / f) and P[m, r] the sum of the
    taps w_i with ceil((i - r) / f) = m. Forward lays the M + 1 shifted
    copies of u (zero-padded by M rows at each end) side by side along
    channels and multiplies them by the stacked P, so every phase r comes
    out of one GEMM without the repeated rows of the upsampled input. For
    f = 2, k = 3, P is [[w0, w0 + w1], [w1 + w2, w2]] with rows m = 0, 1
    and columns r = 0, 1; for f = 1, P[m, 0] is tap w_m. Backward is that
    GEMM's: dP is the stacked input transposed times dy, each dw_i the sum
    of its P blocks' gradients, and dx the shifted sum of the M + 1 blocks
    of dy @ P^T.
    """

    factor = 1
    # stacked() of an inference-only copy whose weights never change, taken
    # once (see model.fold_for_scoring); None stacks them on every forward
    frozen: tuple[np.ndarray, np.ndarray] | None = None

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """P as a matrix, row q * c_in + ci and column r * c_out + co, with
        block q holding lag m = M - q; and the bias tiled once per phase."""
        f, k, c_in, c_out = self.factor, self.k, self.c_in, self.c_out
        taps = (_phase_map(f, k) @ self.w.reshape(k, -1)).reshape(-1, f, c_in, c_out)
        return (taps.transpose(0, 2, 1, 3).reshape(-1, f * c_out),
                np.concatenate((self.b,) * f))

    def forward(self, x, training):
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise ShapeMismatch(f"conv1d_transpose expected (b, L, {self.c_in}), got {x.shape}")
        f, c_in = self.factor, self.c_in
        taps, bias = self.stacked() if self.frozen is None else self.frozen
        m = taps.shape[0] // c_in - 1
        n, l_in, _ = x.shape
        rows = l_in + m
        stacked = np.zeros((n * rows, (m + 1) * c_in))
        blocks = stacked.reshape(n, rows, m + 1, c_in)
        for q in range(m + 1):
            blocks[:, m - q:m - q + l_in, q, :] = x
        if training:
            self._x = (stacked, taps, l_in)
        y = stacked @ taps
        y += bias
        return y.reshape(n, rows * f, self.c_out)[:, :f * l_in + self.k - 1]

    def backward(self, dy, input_grad=True):
        stacked, taps, l_in = self._x
        f, k, c_in, c_out = self.factor, self.k, self.c_in, self.c_out
        m = taps.shape[0] // c_in - 1
        n, rows = dy.shape[0], l_in + m
        if dy.shape[1] < rows * f:
            # rows the forward cropped have zero gradient
            full = np.zeros((n, rows * f, c_out))
            full[:, :dy.shape[1]] = dy
        else:
            full = dy
        dy2 = full.reshape(n * rows, f * c_out)
        # dw_i sums the gradients of the P blocks that hold w_i
        d_taps = (stacked.T @ dy2).reshape(m + 1, c_in, f, c_out).transpose(0, 2, 1, 3)
        self.dw += (_phase_map(f, k).T @ d_taps.reshape((m + 1) * f, -1)).reshape(k, c_in, c_out)
        self.db += _channel_sums(dy)
        if not input_grad:
            return None
        d_blocks = (dy2 @ taps.T).reshape(n, rows, m + 1, c_in)
        dx = d_blocks[:, m:m + l_in, 0, :].copy()
        for q in range(1, m + 1):
            dx += d_blocks[:, m - q:m - q + l_in, q, :]
        return dx


@functools.lru_cache(maxsize=None)
def _phase_map(factor: int, kernel: int) -> np.ndarray:
    """The 0/1 map from taps to polyphase blocks: row q * factor + r has a 1
    in column i iff tap w_i adds into block (q, r), i.e. q = M + (r - i) // f
    with M = ceil((kernel - 1) / factor). Read only."""
    lag = -(-(kernel - 1) // factor)
    phases = np.zeros(((lag + 1) * factor, kernel))
    for r in range(factor):
        for i in range(kernel):
            phases[(lag + (r - i) // factor) * factor + r, i] = 1.0
    phases.flags.writeable = False
    return phases


def _fold(op, blocks: np.ndarray) -> np.ndarray:
    """Reduce axis 2 of (b, l, p, c) with a binary ufunc, left to right.

    The same order as ``op.reduce(blocks, axis=2)``, whose strided inner loop
    is several times slower than p - 1 whole-array calls.
    """
    p = blocks.shape[2]
    out = blocks[:, :, 0].copy() if p == 1 else op(blocks[:, :, 0], blocks[:, :, 1])
    for j in range(2, p):
        op(out, blocks[:, :, j], out=out)
    return out


class MaxPool1D(Layer):
    """Non-overlapping max pooling along length; trailing remainder dropped.

    Training mode keeps a mask of the first maximum in each window, so a tie
    routes the gradient where ``argmax`` would.
    """

    def __init__(self, spec: LayerSpec, rng: np.random.Generator | None):
        self.spec = spec
        self.pool = spec.args["pool"]
        self._mask: np.ndarray | None = None
        self._in_shape: tuple | None = None

    def forward(self, x, training):
        p = self.pool
        l_out = x.shape[1] // p
        trimmed = x[:, :l_out * p, :].reshape(x.shape[0], l_out, p, x.shape[2])
        y = _fold(np.maximum, trimmed)
        if training:
            mask = trimmed == y[:, :, None, :]
            for j in range(1, p):
                mask[:, :, j] &= ~mask[:, :, :j].any(axis=2)
            self._mask = mask
            self._in_shape = x.shape
        return y

    def backward(self, dy, input_grad=True):
        b, l_out, c = dy.shape
        p = self.pool
        dx = np.empty(self._in_shape)
        dx[:, l_out * p:, :] = 0.0
        windows = dx[:, :l_out * p, :].reshape(b, l_out, p, c)
        np.multiply(self._mask, dy[:, :, None, :], out=windows)
        return dx


class UpsampleNearest(Layer):
    def __init__(self, spec: LayerSpec, rng: np.random.Generator | None):
        self.spec = spec
        self.factor = spec.args["factor"]

    def forward(self, x, training):
        return np.repeat(x, self.factor, axis=1)

    def backward(self, dy, input_grad=True):
        b, l_out, c = dy.shape
        return _fold(np.add, dy.reshape(b, l_out // self.factor, self.factor, c))


def _channel_sums(a: np.ndarray) -> np.ndarray:
    """Per-channel sums of a (batch, length, channels) array.

    The same bits as ``a.sum(axis=(0, 1))``, which adds rows one after
    another: einsum adds them in that order too and runs several times
    faster. For a single channel numpy's sum turns pairwise, so it stays.
    """
    flat = a.reshape(-1, a.shape[-1])
    return np.einsum("ij->j", flat) if flat.shape[1] > 1 else flat.sum(axis=0)


def _channel_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sums of a * b: the bits of ``_channel_sums(a * b)``.

    einsum multiplies and adds row by row without the product array; a
    single channel keeps multiply-then-sum, as ``_channel_sums`` does.
    """
    fa, fb = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])
    return np.einsum("ij,ij->j", fa, fb) if fa.shape[1] > 1 else (fa * fb).sum(axis=0)


class BatchNorm(Layer):
    """Per-channel normalization over (batch, length).

    Training mode uses batch statistics (population convention) and updates
    running stats with momentum 0.9; inference mode uses running stats.

    Backward (Ioffe & Szegedy 2015, arXiv:1502.03167, sec. 3): with
    a = gamma * inv_std,

        dx = a * dy - x_hat * (a * sum(dy * x_hat) / n) - a * sum(dy) / n,

    the textbook (dxhat - mean(dxhat) - x_hat * mean(dxhat * x_hat)) * inv_std
    with dxhat = gamma * dy and gamma taken out of both sums. Those two sums
    are dgamma's and dbeta's, so each is taken once. The forward pass, the
    running stats, dgamma and dbeta keep the textbook bits; dx differs from
    the textbook form by rounding only. Backward scales the cached x_hat in
    place, so it runs once per training forward.
    """

    MOMENTUM = 0.9
    EPS = 1e-5

    def __init__(self, spec: LayerSpec, rng: np.random.Generator | None):
        self.spec = spec
        c = spec.args["channels"]
        self.channels = c
        self.gamma = np.ones(c)
        self.beta = np.zeros(c)
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)
        self.dgamma = np.zeros(c)
        self.dbeta = np.zeros(c)
        self._cache: tuple | None = None

    def params(self):
        return [self.gamma, self.beta]

    def grads(self):
        return [self.dgamma, self.dbeta]

    def buffers(self):
        return [self.running_mean, self.running_var]

    def forward(self, x, training):
        if x.ndim != 3 or x.shape[2] != self.channels:
            raise ShapeMismatch(f"batchnorm expected (b, L, {self.channels}), got {x.shape}")
        if not training:
            y = x - self.running_mean
            y *= 1.0 / np.sqrt(self.running_var + self.EPS)
            y *= self.gamma
            y += self.beta
            return y
        n = x.shape[0] * x.shape[1]
        mean = _channel_sums(x) / n
        # x - mean serves the variance (as in np.var) and then x_hat
        x_hat = x - mean
        var = _channel_dots(x_hat, x_hat) / n
        self.running_mean *= self.MOMENTUM
        self.running_mean += (1.0 - self.MOMENTUM) * mean
        self.running_var *= self.MOMENTUM
        self.running_var += (1.0 - self.MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        x_hat *= inv_std
        self._cache = (x_hat, inv_std, n)
        y = x_hat * self.gamma
        y += self.beta
        return y

    def backward(self, dy, input_grad=True):
        x_hat, inv_std, n = self._cache
        dot = _channel_dots(dy, x_hat)
        total = _channel_sums(dy)
        self.dgamma += dot
        self.dbeta += total
        a = self.gamma * inv_std
        dx = np.multiply(dy, a)
        # the cache is spent: x_hat takes its term in place
        self._cache = None
        x_hat *= a * dot / n
        dx -= x_hat
        dx -= a * total / n
        return dx


class Dense(Layer):
    """Fully connected layer; flattens (b, L, c) inputs and can reshape output."""

    def __init__(self, spec: LayerSpec, rng: np.random.Generator | None):
        self.spec = spec
        self.n_in = spec.args["in_units"]
        self.n_out = spec.args["out_units"]
        self.out_shape = tuple(spec.args["out_shape"]) if "out_shape" in spec.args else None
        if self.out_shape is not None and math.prod(self.out_shape) != self.n_out:
            raise ShapeMismatch(f"dense out_shape {self.out_shape} does not hold "
                                f"{self.n_out} units")
        self.w = _weights(rng, (self.n_in, self.n_out), self.n_in, self.n_out)
        self.b = np.zeros(self.n_out)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x2d: np.ndarray | None = None
        self._in_shape: tuple | None = None

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def forward(self, x, training):
        x2d = x.reshape(x.shape[0], -1)
        if x2d.shape[1] != self.n_in:
            raise ShapeMismatch(f"dense expected {self.n_in} inputs, got {x2d.shape[1]}")
        if training:
            self._in_shape = x.shape
            self._x2d = x2d
        y = x2d @ self.w + self.b
        if self.out_shape is not None:
            y = y.reshape(x.shape[0], *self.out_shape)
        return y

    def backward(self, dy, input_grad=True):
        dy2d = dy.reshape(dy.shape[0], -1)
        self.dw += self._x2d.T @ dy2d
        self.db += dy2d.sum(axis=0)
        return (dy2d @ self.w.T).reshape(self._in_shape)


class Activation(Layer):
    def __init__(self, spec: LayerSpec, rng: np.random.Generator | None):
        self.spec = spec
        if spec.args["fn"] != "relu":
            raise ValueError(f"unsupported activation {spec.args['fn']!r}")
        self._mask: np.ndarray | None = None

    def forward(self, x, training):
        if training:
            self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, dy, input_grad=True):
        return np.multiply(dy, self._mask)


LAYER_CLASSES: dict[str, type[Layer]] = {
    "conv1d": Conv1D,
    "conv1d_transpose": ConvTranspose1D,
    "maxpool": MaxPool1D,
    "upsample": UpsampleNearest,
    "batchnorm": BatchNorm,
    "dense": Dense,
    "activation": Activation,
}


def build_layer(spec: LayerSpec, rng: np.random.Generator | None = None) -> Layer:
    """A layer of spec's kind: weights drawn from rng, or all state zero
    (batch-norm gamma and running_var one) without one."""
    if spec.kind not in LAYER_CLASSES:
        raise ValueError(f"unknown layer kind {spec.kind!r}")
    return LAYER_CLASSES[spec.kind](spec, rng)
