"""Sequential model container, the default autoencoder architecture, and the
scoring fold.

A ``Sequential`` runs each nearest upsampling that directly precedes a
transposed convolution inside it: the convolution takes the upsampling
factor and computes the pair as one polyphase GEMM (see
``layers.ConvTranspose1D``), and the upsampling leaves the run order. It
stays in ``layers``, so checkpoint headers keep its spec and the state order
is unchanged. Training, validation, the grouping's cross-loss matrix and
scoring all run that one layer.

``fold_for_scoring`` builds, for inference only, a model that computes the
stored model's inference forward pass with each convolution -> batch norm
pair merged. In inference mode a batch norm is the fixed per-channel affine
map y -> (y - running_mean) * s + beta with s = gamma / sqrt(running_var +
EPS), so the pair is a single convolution of the same class (and upsampling
factor) with weights w * s and bias (b - running_mean) * s + beta (Ioffe &
Szegedy 2015, sec. 3.1). The fold agrees with the layer-by-layer form up to
rounding, a few ULPs per element. Validation, the cross-loss matrix and
scoring run the fold; training and checkpoints use the stored model.

Only ``build_encoder``/``build_decoder`` draw weights from a random
generator. The fold's new layers, a loaded checkpoint and the one-window
shape checks of ``AutoencoderSpec`` and ``default_autoencoder_spec`` build
with zero state (``Sequential.build`` without a generator), since their
weights are overwritten or do not matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from . import layers as L
from .layers import LayerSpec, build_layer


class Sequential:
    """Ordered layer stack with cached-activation backprop."""

    def __init__(self, layers: list[L.Layer]):
        self.layers = list(layers)
        # what forward runs: layers minus each upsampling a transposed
        # convolution takes over
        self.run_order: list[L.Layer] = []
        for layer in self.layers:
            if (isinstance(layer, L.ConvTranspose1D) and self.run_order
                    and isinstance(self.run_order[-1], L.UpsampleNearest)):
                layer.factor = self.run_order.pop().factor
            self.run_order.append(layer)

    @classmethod
    def build(cls, specs: list[LayerSpec],
              rng: np.random.Generator | None = None) -> "Sequential":
        """Layers for specs, weights drawn from rng; zero state without one."""
        return cls([build_layer(s, rng) for s in specs])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.run_order:
            x = layer.forward(x, training)
        return x

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through the run order; with input_grad False the first
        layer may skip the input gradient and return None.

        Each layer's cache is dropped as soon as its backward returns, so a
        training forward's cache serves exactly one backward.
        """
        first, *rest = self.run_order
        for layer in reversed(rest):
            dy = layer.backward(dy)
            layer.drop_cache()
        dx = first.backward(dy, input_grad=input_grad)
        first.drop_cache()
        return dx

    def params(self) -> list[np.ndarray]:
        return [a for layer in self.layers for a in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [a for layer in self.layers for a in layer.grads()]

    def state(self) -> list[np.ndarray]:
        """Every state array (params then buffers, per layer, in order)."""
        return [a for layer in self.layers for a in layer.state()]

    def snapshot(self) -> list[np.ndarray]:
        return [a.copy() for a in self.state()]

    def restore(self, snapshot: list[np.ndarray]) -> None:
        state = self.state()
        if len(state) != len(snapshot):
            raise ShapeMismatch("snapshot does not match model state")
        for dst, src in zip(state, snapshot):
            dst[...] = src

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)

    def spec_dicts(self) -> list[dict]:
        return [layer.spec.to_dict() for layer in self.layers]


def fold_for_scoring(model: Sequential) -> Sequential:
    """An inference-only model computing model's inference forward pass with
    every convolution -> batch norm pair of its run order merged into one
    convolution.

    A merged pair, and every transposed convolution, becomes a new layer
    instance, never a copy of the old one, so nothing set on the old
    instances (such as a wrapper around their ``forward``) carries over with
    the old weights. A new transposed convolution stacks its polyphase taps
    and bias once, here, instead of on every forward. Every other layer is shared
    with model. A new layer holds the weights as they stand at the call, so
    a fold is stale once model's state changes.
    """
    out: list[L.Layer] = []
    for layer in model.run_order:
        if isinstance(layer, L.BatchNorm) and out and isinstance(out[-1], L.Conv):
            conv = out[-1]
            scale = layer.gamma / np.sqrt(layer.running_var + layer.EPS)
            out[-1] = _fresh(conv, conv.w * scale,
                             (conv.b - layer.running_mean) * scale + layer.beta)
        elif isinstance(layer, L.ConvTranspose1D):
            out.append(_fresh(layer, layer.w.copy(), layer.b.copy()))
        else:
            out.append(layer)
    return Sequential(out)


def _fresh(conv: L.Conv, w: np.ndarray, b: np.ndarray) -> L.Conv:
    """A new instance of conv's class (and upsampling factor) holding w, b."""
    fresh = build_layer(conv.spec)
    fresh.w, fresh.b = w, b
    if isinstance(conv, L.ConvTranspose1D):
        fresh.factor = conv.factor
        fresh.frozen = fresh.stacked()
    return fresh


@dataclass(frozen=True)
class AutoencoderSpec:
    """Input shape, encoder chain, latent width, decoder chain.

    The chain is validated end to end by running one zero window through
    it, so each layer's own input check refuses a mismatched chain: the
    encoder must emit ``latent`` units and the decoder must restore the
    input shape exactly.
    """

    input_shape: tuple[int, int]
    encoder: tuple[LayerSpec, ...]
    latent: int
    decoder: tuple[LayerSpec, ...]

    def __post_init__(self):
        # Sequential.build, not build_encoder/build_decoder, so that nothing
        # hooked on those (such as a tracer) sees these throwaway models;
        # zero state, since only shapes matter here
        z = Sequential.build(self.encoder).forward(np.zeros((1, *self.input_shape)))
        if z.shape[1:] != (self.latent,):
            raise ShapeMismatch(
                f"encoder emits {z.shape[1:]}, expected latent size {self.latent}")
        out_shape = Sequential.build(self.decoder).forward(z).shape[1:]
        if out_shape != self.input_shape:
            raise ShapeMismatch(
                f"decoder emits {out_shape}, expected input shape {self.input_shape}")

    def build_encoder(self, rng: np.random.Generator) -> Sequential:
        return Sequential.build(self.encoder, rng)

    def build_decoder(self, rng: np.random.Generator) -> Sequential:
        return Sequential.build(self.decoder, rng)

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "latent": self.latent,
            "encoder": [s.to_dict() for s in self.encoder],
            "decoder": [s.to_dict() for s in self.decoder],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AutoencoderSpec":
        return cls(
            input_shape=tuple(data["input_shape"]),
            encoder=tuple(LayerSpec.from_dict(d) for d in data["encoder"]),
            latent=data["latent"],
            decoder=tuple(LayerSpec.from_dict(d) for d in data["decoder"]),
        )


def default_autoencoder_spec(window_len: int = 50, channels: int = 6,
                             latent: int = 75) -> AutoencoderSpec:
    """Smallest stack exercising every layer kind.

    Encoder: conv(6->16,k3), bn, relu, pool2, conv(16->32,k3), bn, relu,
    pool2, dense->latent. Decoder mirrors it with nearest upsampling and
    transposed convolutions; the output layer is linear (targets are
    z-scored).
    """
    conv_pool = (
        L.conv1d(channels, 16, 3),
        L.batchnorm(16),
        L.relu(),
        L.maxpool(2),
        L.conv1d(16, 32, 3),
        L.batchnorm(32),
        L.relu(),
        L.maxpool(2),
    )
    # the Dense layers' width is what the conv/pool prefix makes of a window;
    # AutoencoderSpec refuses a window length the decoder does not restore
    length, width = Sequential.build(conv_pool).forward(
        np.zeros((1, window_len, channels))).shape[1:]
    encoder = (*conv_pool, L.dense(length * width, latent))
    decoder = (
        L.dense(latent, length * width, out_shape=(length, width)),
        L.relu(),
        L.upsample(2),
        L.conv1d_transpose(32, 16, 3),
        L.batchnorm(16),
        L.relu(),
        L.upsample(2),
        L.conv1d_transpose(16, channels, 3),
    )
    return AutoencoderSpec(input_shape=(window_len, channels), encoder=encoder,
                           latent=latent, decoder=decoder)


def mse_per_sample(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """Mean-over-elements squared error per sample; shape (batch,)."""
    if x.shape != x_hat.shape:
        raise ShapeMismatch(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    squares = (x_hat - x).reshape(x.shape[0], -1)
    squares *= squares
    # the float operations of .mean(axis=1), without its Python-level overhead
    return squares.sum(axis=1) / squares.shape[1]
