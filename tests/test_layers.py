"""Analytic gradients vs central finite differences, per layer kind, and the
fast layer paths vs their textbook forms.

Each gradcheck case runs a scalar loss ``sum(w * layer(x))`` so the upstream
gradient is the fixed random tensor ``w``. A gradient entry passes when it
matches the finite-difference estimate within 1e-4 relative error, or 1e-8
absolute for entries whose true gradient is numerically zero. The fast-path
cases require exact equality with the textbook forms, except batch norm's
input gradient, held within 1e-12 of the textbook one. The last section
checks the polyphase layer that a nearest upsampling followed by a
transposed convolution runs as, forward and every gradient, against the
textbook pair it replaces, and the scoring fold built on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxae.errors import ShapeMismatch
from ctxae.net.layers import (
    LayerSpec,
    _channel_sums,
    batchnorm,
    build_layer,
    conv1d,
    conv1d_transpose,
    dense,
    maxpool,
    relu,
    upsample,
)
from ctxae.net.checkpoint import load_checkpoint, save_checkpoint
from ctxae.net.model import (AutoencoderSpec, Sequential, default_autoencoder_spec,
                             fold_for_scoring, mse_per_sample)

REL_TOL = 1e-4
ABS_TOL = 1e-8
FD_EPS = 1e-6


def _fd_grad(fn, arr):
    """Central finite differences of a scalar function w.r.t. every entry."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + FD_EPS
        hi = fn()
        arr[idx] = orig - FD_EPS
        lo = fn()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * FD_EPS)
        it.iternext()
    return grad


def _assert_close(analytic, numeric, label):
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff < ABS_TOL) | (diff / np.maximum(denom, 1e-300) < REL_TOL)
    worst = np.unravel_index(np.argmax(np.where(ok, 0.0, diff)), diff.shape)
    assert ok.all(), (
        f"{label}: worst mismatch at {worst}: "
        f"analytic={analytic[worst]:.3e} fd={numeric[worst]:.3e}")


def _check_layer(spec: LayerSpec, in_shape: tuple, seed: int) -> None:
    rng = np.random.default_rng(seed)
    _check_unit(build_layer(spec, rng), in_shape, rng, spec.kind)


def _check_unit(unit, in_shape: tuple, rng, label: str) -> None:
    """Gradcheck a layer or a Sequential: anything with forward, backward,
    params and grads."""
    x = rng.normal(0.0, 1.0, size=in_shape)
    out = unit.forward(x, training=True)
    w = rng.normal(0.0, 1.0, size=out.shape)

    def loss():
        return float(np.sum(w * unit.forward(x, training=True)))

    unit.forward(x, training=True)
    dx = unit.backward(w.copy())

    _assert_close(dx, _fd_grad(loss, x), f"{label} input grad")
    for i, (p, g) in enumerate(zip(unit.params(), unit.grads())):
        _assert_close(g, _fd_grad(loss, p), f"{label} param[{i}] grad")


CASES = [
    (conv1d(2, 3, 3), (2, 7, 2)),
    (conv1d(1, 2, 2), (3, 5, 1)),
    (conv1d_transpose(3, 2, 3), (2, 5, 3)),
    (conv1d_transpose(2, 1, 2), (3, 4, 2)),
    (maxpool(2), (2, 8, 3)),
    (maxpool(2), (3, 6, 2)),
    (upsample(2), (2, 4, 3)),
    (upsample(3), (2, 3, 2)),
    (batchnorm(3), (4, 5, 3)),
    (batchnorm(2), (3, 7, 2)),
    (dense(12, 5), (3, 12)),
    (dense(8, 6, out_shape=(3, 2)), (2, 8)),
    (relu(), (2, 6, 3)),
    (relu(), (4, 9, 1)),
]


@pytest.mark.parametrize("spec,shape", CASES,
                         ids=[f"{s.kind}-{i}" for i, (s, _) in enumerate(CASES)])
@pytest.mark.parametrize("seed", [11, 12])
def test_gradcheck(spec, shape, seed):
    _check_layer(spec, shape, seed)


def test_gradcheck_covers_at_least_twenty_instances():
    assert len(CASES) * 2 >= 20


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(0)
    layer = build_layer(batchnorm(2), rng)
    x = rng.normal(3.0, 2.0, size=(8, 4, 2))
    for _ in range(200):
        layer.forward(x, training=True)
    y_train = layer.forward(x, training=True)
    y_eval = layer.forward(x, training=False)
    # after convergence the running stats track the batch stats
    assert np.allclose(y_train, y_eval, atol=1e-2)
    # eval mode must not mutate the running buffers
    before = [b.copy() for b in layer.buffers()]
    layer.forward(rng.normal(size=(8, 4, 2)), training=False)
    for b0, b1 in zip(before, layer.buffers()):
        assert np.array_equal(b0, b1)


def test_maxpool_routes_gradient_to_argmax():
    layer = build_layer(maxpool(2), np.random.default_rng(0))
    # the last window ties: its gradient goes to the first maximum only
    x = np.array([[[1.0], [4.0], [2.0], [3.0], [5.0], [5.0]]])
    out = layer.forward(x, training=True)
    assert out.tolist() == [[[4.0], [3.0], [5.0]]]
    dx = layer.backward(np.array([[[10.0], [20.0], [30.0]]]))
    assert dx.tolist() == [[[0.0], [10.0], [0.0], [20.0], [30.0], [0.0]]]


def test_upsample_repeats_and_sums_back():
    layer = build_layer(upsample(2), np.random.default_rng(0))
    x = np.array([[[1.0], [2.0]]])
    out = layer.forward(x, training=True)
    assert out.tolist() == [[[1.0], [1.0], [2.0], [2.0]]]
    dx = layer.backward(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    assert dx.tolist() == [[[3.0], [7.0]]]


def test_relu_masks_negatives():
    layer = build_layer(relu(), np.random.default_rng(0))
    x = np.array([[[-1.0], [2.0], [0.0]]])
    out = layer.forward(x, training=True)
    assert out.tolist() == [[[0.0], [2.0], [0.0]]]
    dx = layer.backward(np.ones_like(x))
    assert dx.tolist() == [[[0.0], [1.0], [0.0]]]


def test_relu_propagates_nan_and_blocks_its_gradient():
    layer = build_layer(relu(), np.random.default_rng(0))
    x = np.array([[[np.nan], [2.0], [-np.inf]]])
    out = layer.forward(x, training=True)
    assert np.isnan(out[0, 0, 0]) and out[0, 1:, 0].tolist() == [2.0, 0.0]
    assert layer.backward(np.ones_like(x)).tolist() == [[[0.0], [1.0], [0.0]]]


def test_maxpool_of_a_nan_window_is_nan_and_routes_no_gradient():
    layer = build_layer(maxpool(2), np.random.default_rng(0))
    x = np.array([[[1.0], [np.nan], [2.0], [3.0]]])
    out = layer.forward(x, training=True)
    assert np.isnan(out[0, 0, 0]) and out[0, 1, 0] == 3.0
    assert layer.backward(np.array([[[10.0], [20.0]]])).tolist() \
        == [[[0.0], [0.0], [0.0], [20.0]]]


@pytest.mark.parametrize("spec,count", [
    (conv1d(6, 16, 3), 6 * 16 * 3 + 16),
    (conv1d_transpose(16, 6, 3), 16 * 6 * 3 + 6),
    (dense(352, 75), 352 * 75 + 75),
    (batchnorm(16), 64),   # affine pair plus running-stat buffers
    (maxpool(2), 0),
    (upsample(2), 0),
    (relu(), 0),
])
def test_param_counts(spec, count):
    layer = build_layer(spec, np.random.default_rng(0))
    assert layer.param_count() == count
    assert layer.param_count() == sum(a.size for a in layer.state())


def test_desk_encoder_chain_shape():
    specs = [conv1d(6, 16, 3), maxpool(2), conv1d(16, 32, 3), maxpool(2)]
    model = Sequential.build(specs, np.random.default_rng(0))
    assert model.forward(np.zeros((2, 50, 6))).shape == (2, 11, 32)


def test_a_chain_with_a_channel_mismatch_is_refused():
    model = Sequential.build([conv1d(4, 16, 3)], np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((1, 50, 6)))


# a valid (10, 2) -> 4 -> (10, 2) chain; each case below breaks one link
_ENCODER = (conv1d(2, 3, 3), batchnorm(3), relu(), dense(24, 4))
_DECODER = (dense(4, 24, out_shape=(8, 3)), relu(), batchnorm(3),
            conv1d_transpose(3, 2, 3))


def _spec(encoder=_ENCODER, decoder=_DECODER, latent=4) -> AutoencoderSpec:
    return AutoencoderSpec(input_shape=(10, 2), encoder=tuple(encoder),
                           latent=latent, decoder=tuple(decoder))


def test_the_reference_chain_is_valid():
    assert _spec().latent == 4


@pytest.mark.parametrize("broken", [
    dict(encoder=(conv1d(3, 3, 3), batchnorm(3), relu(), dense(24, 4))),
    dict(decoder=_DECODER[:3] + (conv1d_transpose(4, 2, 3),)),
    dict(encoder=(conv1d(2, 3, 3), batchnorm(4), relu(), dense(24, 4))),
    dict(decoder=(dense(4, 24, out_shape=(8, 3)), relu(), batchnorm(2),
                  conv1d_transpose(3, 2, 3))),
    dict(encoder=(conv1d(2, 3, 11), relu(), dense(0, 4))),
    dict(encoder=_ENCODER[:3] + (dense(25, 4),)),
    dict(decoder=(dense(5, 24, out_shape=(8, 3)),) + _DECODER[1:]),
    dict(decoder=(dense(4, 24, out_shape=(8, 4)),) + _DECODER[1:]),
    dict(latent=5),
    dict(encoder=_ENCODER[:3]),
    dict(decoder=_DECODER[:3] + (conv1d_transpose(3, 2, 2),)),
    dict(decoder=_DECODER[:3] + (conv1d_transpose(3, 3, 3),)),
], ids=["conv-channels", "transposed-conv-channels", "encoder-batchnorm-channels",
        "decoder-batchnorm-channels", "conv-shorter-than-kernel", "dense-in-units",
        "decoder-dense-in-units", "out-shape-vs-out-units", "wrong-latent",
        "encoder-emits-no-latent", "wrong-output-length", "wrong-output-channels"])
def test_autoencoder_spec_refuses_a_broken_chain(broken):
    with pytest.raises(ShapeMismatch):
        _spec(**broken)


def test_conv1d_forward_matches_loop_oracle():
    rng = np.random.default_rng(5)
    layer = build_layer(conv1d(2, 3, 3), rng)
    x = rng.normal(size=(2, 6, 2))
    out = layer.forward(x, training=False)
    kernel, bias = layer.params()
    expected = np.zeros((2, 4, 3))
    for b in range(2):
        for t in range(4):
            for co in range(3):
                acc = bias[co]
                for dt in range(3):
                    for ci in range(2):
                        acc += x[b, t + dt, ci] * kernel[dt, ci, co]
                expected[b, t, co] = acc
    assert np.allclose(out, expected, atol=1e-12)


def test_conv1d_transpose_forward_matches_loop_oracle():
    rng = np.random.default_rng(6)
    layer = build_layer(conv1d_transpose(2, 3, 3), rng)
    x = rng.normal(size=(2, 4, 2))
    out = layer.forward(x, training=False)
    kernel, bias = layer.params()
    expected = np.tile(bias, (2, 6, 1))
    for b in range(2):
        for t in range(4):
            for dt in range(3):
                for ci in range(2):
                    for co in range(3):
                        expected[b, t + dt, co] += x[b, t, ci] * kernel[dt, ci, co]
    assert np.allclose(out, expected, atol=1e-12)


# --- fast paths against their reference forms --------------------------------
# ReLU, MaxPool, UpsampleNearest, BatchNorm and the Conv1D forward run fast
# paths that must equal these textbook forms element for element (the
# upsampling gradient, Conv1D and every BatchNorm output but dx bit for bit).
# BatchNorm's dx takes gamma out of its two sums, so it is held within 1e-12
# of the textbook dx's largest element.

def _reference_relu(x, dy):
    mask = x > 0.0
    return np.where(mask, x, 0.0), np.where(mask, dy, 0.0)


def _reference_maxpool(x, dy, pool):
    b, length, c = x.shape
    l_out = length // pool
    trimmed = x[:, :l_out * pool, :].reshape(b, l_out, pool, c)
    argmax = trimmed.argmax(axis=2)
    dx = np.zeros(x.shape)
    windows = dx[:, :l_out * pool, :].reshape(b, l_out, pool, c)
    bi, li, ci = np.ogrid[:b, :l_out, :c]
    windows[bi, li, argmax, ci] = dy
    return trimmed.max(axis=2), dx


def _reference_batchnorm(x, dy, gamma, beta, eps):
    mean = x.mean(axis=(0, 1))
    var = x.var(axis=(0, 1))
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    y = gamma * x_hat + beta
    dgamma = (dy * x_hat).sum(axis=(0, 1))
    dbeta = dy.sum(axis=(0, 1))
    dxhat = dy * gamma
    term = dxhat - dxhat.mean(axis=(0, 1)) - x_hat * (dxhat * x_hat).mean(axis=(0, 1))
    return y, term * inv_std, dgamma, dbeta, mean, var


def _reference_batchnorm_infer(x, gamma, beta, running_mean, running_var, eps):
    x_hat = (x - running_mean) * (1.0 / np.sqrt(running_var + eps))
    return gamma * x_hat + beta


def _input(rng, shape, fill):
    if fill == "normal":
        return rng.normal(size=shape)
    if fill == "offset":
        # large mean, small spread: an E[x^2] - mean^2 variance loses every digit
        return 1e4 + 1e-3 * rng.normal(size=shape)
    if fill == "ties":
        # small integers: ties in every pooling window, exact zeros everywhere
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    # signed zeros mixed into normal values
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.3] = 0.0
    x[rng.random(shape) < 0.3] = -0.0
    return x


def _equal(fast, ref):
    assert fast.shape == ref.shape and np.array_equal(fast, ref)


def _same_bits(fast, ref):
    assert fast.shape == ref.shape and fast.dtype == ref.dtype
    assert fast.tobytes() == ref.tobytes()


SHAPES = [(1, 7, 3), (1, 8, 1), (3, 20, 1), (3, 9, 2), (4, 50, 16), (2, 11, 5)]
FILLS = ["normal", "ties", "signed_zeros"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fill", FILLS)
def test_relu_matches_reference(shape, fill):
    rng = np.random.default_rng(21)
    layer = build_layer(relu(), rng)
    x, dy = _input(rng, shape, fill), _input(rng, shape, fill)
    y_ref, dx_ref = _reference_relu(x, dy)
    _equal(layer.forward(x, training=True), y_ref)
    # an inference pass between forward and backward leaves the gradient alone
    other = _input(rng, shape, fill)
    _equal(layer.forward(other, training=False), _reference_relu(other, dy)[0])
    _equal(layer.backward(dy), dx_ref)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_matches_reference(shape, fill, pool):
    rng = np.random.default_rng(22)
    layer = build_layer(maxpool(pool), rng)
    x = _input(rng, shape, fill)
    dy = _input(rng, (shape[0], shape[1] // pool, shape[2]), fill)
    y_ref, dx_ref = _reference_maxpool(x, dy, pool)
    _equal(layer.forward(x, training=True), y_ref)
    other = _input(rng, shape, fill)
    _equal(layer.forward(other, training=False), _reference_maxpool(other, dy, pool)[0])
    _equal(layer.backward(dy), dx_ref)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fill", FILLS + ["offset"])
def test_batchnorm_matches_reference_bit_for_bit(shape, fill):
    rng = np.random.default_rng(23)
    c = shape[2]
    layer = build_layer(batchnorm(c), rng)
    layer.gamma[:] = rng.normal(1.0, 0.5, size=c)
    layer.beta[:] = rng.normal(0.0, 0.5, size=c)
    layer.running_mean[:] = rng.normal(size=c)
    layer.running_var[:] = rng.uniform(0.5, 2.0, size=c)
    running = [b.copy() for b in layer.buffers()]
    # the offset is for x; in dy it would cancel in both forms of dx alike
    x, dy = _input(rng, shape, fill), _input(rng, shape, fill.replace("offset", "normal"))
    y_ref, dx_ref, dgamma_ref, dbeta_ref, mean, var = _reference_batchnorm(
        x, dy, layer.gamma, layer.beta, layer.EPS)

    _same_bits(layer.forward(x, training=True), y_ref)
    m = layer.MOMENTUM
    _same_bits(layer.running_mean, m * running[0] + (1.0 - m) * mean)
    _same_bits(layer.running_var, m * running[1] + (1.0 - m) * var)
    other = _input(rng, shape, fill)
    _same_bits(layer.forward(other, training=False), _reference_batchnorm_infer(
        other, layer.gamma, layer.beta, layer.running_mean, layer.running_var, layer.EPS))
    _close_to(layer.backward(dy), dx_ref)
    _same_bits(layer.dgamma, dgamma_ref)
    _same_bits(layer.dbeta, dbeta_ref)


@pytest.mark.parametrize("shape", [(1, 4, 1), (3, 9, 2), (4, 24, 16)])
@pytest.mark.parametrize("factor", [1, 2, 3])
def test_upsample_gradient_matches_reference_bit_for_bit(shape, factor):
    rng = np.random.default_rng(24)
    layer = build_layer(upsample(factor), rng)
    x = rng.normal(size=shape)
    _same_bits(layer.forward(x, training=True), np.repeat(x, factor, axis=1))
    # magnitudes far apart, so that another order of addition rounds differently
    dy = rng.normal(size=(shape[0], shape[1] * factor, shape[2]))
    dy *= 10.0 ** rng.integers(-8, 8, size=dy.shape)
    ref = dy.reshape(shape[0], shape[1], factor, shape[2]).sum(axis=2)
    _same_bits(layer.backward(dy), ref)


def _reference_conv1d(x, kernel, bias):
    """The broadcast-bias form: the bias first, then each tap's product."""
    k = kernel.shape[0]
    l_out = x.shape[1] - k + 1
    y = np.broadcast_to(bias, (x.shape[0], l_out, kernel.shape[2])).copy()
    for i in range(k):
        y += x[:, i:i + l_out, :] @ kernel[i]
    return y


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fill", FILLS)
def test_conv1d_forward_matches_reference_bit_for_bit(shape, fill):
    rng = np.random.default_rng(25)
    c_out = 4
    layer = build_layer(conv1d(shape[2], c_out, 3), rng)
    # signed zeros in the bias too: the order of b + t0 must not matter
    layer.b[:] = _input(rng, (c_out,), fill)
    x = _input(rng, shape, fill)
    for training in (True, False):
        _same_bits(layer.forward(x, training=training),
                   _reference_conv1d(x, layer.w, layer.b))


def test_bias_gradients_are_the_bits_of_the_textbook_sum():
    """_channel_sums against dy.sum(axis=(0, 1)) on the convolution outputs
    of the default autoencoder at batch 128 and on a short batch, directly
    and through each convolution's bias gradient."""
    rng = np.random.default_rng(26)
    for shape in [(128, 48, 16), (128, 22, 32), (128, 24, 16), (128, 50, 6),
                  (74, 48, 16)]:
        # magnitudes far apart, so that another order of addition rounds differently
        dy = rng.normal(size=shape)
        dy *= 10.0 ** rng.integers(-8, 8, size=shape)
        ref = dy.sum(axis=(0, 1))
        _same_bits(_channel_sums(dy), ref)
        conv = build_layer(conv1d(2, shape[2], 3), rng)
        conv.forward(rng.normal(size=(shape[0], shape[1] + 2, 2)), training=True)
        conv.backward(dy)
        _same_bits(conv.db, ref)
        up_conv = _pair(2, 3, 2, shape[2], rng)
        up_conv.forward(rng.normal(size=(shape[0], (shape[1] - 2) // 2, 2)), training=True)
        up_conv.backward(dy)
        _same_bits(up_conv.layers[1].db, ref)


# --- nearest upsampling -> transposed convolution as one polyphase layer ---------

def _reference_conv_transpose(x, kernel, bias, dy):
    """The per-tap transposed convolution: output, dx, dw, db."""
    k, l_in = kernel.shape[0], x.shape[1]
    y = np.zeros((x.shape[0], l_in + k - 1, kernel.shape[2]))
    dx = np.zeros_like(x)
    dw = np.zeros_like(kernel)
    for i in range(k):
        y[:, i:i + l_in, :] += x @ kernel[i]
        dy_slice = dy[:, i:i + l_in, :]
        dw[i] = x.reshape(-1, x.shape[2]).T @ dy_slice.reshape(-1, kernel.shape[2])
        dx += dy_slice @ kernel[i].T
    return y + bias, dx, dw, dy.sum(axis=(0, 1))


def _reference_pair(x, factor, kernel, bias, dy):
    """np.repeat, the per-tap transposed convolution, then the upsampling's
    gradient: each input row sums the gradients of its copies."""
    y, du, dw, db = _reference_conv_transpose(np.repeat(x, factor, axis=1),
                                              kernel, bias, dy)
    dx = du.reshape(x.shape[0], x.shape[1], factor, x.shape[2]).sum(axis=2)
    return y, dx, dw, db


def _pair(factor, kernel, c_in, c_out, rng) -> Sequential:
    model = Sequential.build([upsample(factor), conv1d_transpose(c_in, c_out, kernel)], rng)
    model.layers[1].b[:] = rng.normal(size=c_out)
    return model


def _close_to(got, want):
    """Within 1e-12 of want's largest element."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


PAIRS = [(2, 3), (2, 1), (2, 2), (2, 5), (3, 2), (3, 7), (1, 3)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PAIRS), st.integers(1, 4), st.integers(1, 13),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_merged_upsample_conv_transpose_equals_the_pair(fk, batch, length, c_in, c_out, seed):
    factor, kernel = fk
    rng = np.random.default_rng(seed)
    model = _pair(factor, kernel, c_in, c_out, rng)
    up, conv = model.layers
    assert model.run_order == [conv] and conv.factor == factor
    x = rng.normal(size=(batch, length, c_in))
    dy = rng.normal(size=(batch, factor * length + kernel - 1, c_out))
    y_ref, dx_ref, dw_ref, db_ref = _reference_pair(x, factor, conv.w, conv.b, dy)
    _close_to(model.forward(x, training=False), y_ref)
    _close_to(model.forward(x, training=True), y_ref)
    _close_to(model.backward(dy), dx_ref)
    _close_to(conv.dw, dw_ref)
    _close_to(conv.db, db_ref)


@pytest.mark.parametrize("fk", PAIRS)
@pytest.mark.parametrize("seed", [13, 14])
def test_merged_upsample_conv_transpose_gradcheck(fk, seed):
    factor, kernel = fk
    rng = np.random.default_rng(seed)
    _check_unit(_pair(factor, kernel, 3, 2, rng), (2, 4, 3), rng,
                f"upsample({factor}) -> conv1d_transpose(k={kernel})")


def test_merged_upsample_conv_transpose_refuses_a_channel_mismatch():
    model = _pair(2, 3, 4, 2, np.random.default_rng(3))
    with pytest.raises(ShapeMismatch, match="conv1d_transpose"):
        model.forward(np.zeros((1, 5, 3)), False)


def test_the_fold_merges_only_an_upsampling_followed_by_a_transposed_convolution():
    rng = np.random.default_rng(8)
    model = Sequential.build([upsample(2), conv1d(3, 4, 2), batchnorm(4), relu(),
                              upsample(3), conv1d_transpose(4, 2, 3)], rng)
    # one instance per spec; only the upsampling before the transposed
    # convolution leaves the run order
    assert len(model.layers) == 6
    assert model.run_order == [model.layers[i] for i in (0, 1, 2, 3, 5)]
    assert model.layers[5].factor == 3
    bn = model.layers[2]
    bn.running_mean[:] = rng.normal(size=4)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=4)
    folded = fold_for_scoring(model)
    assert [type(layer).__name__ for layer in folded.layers] == [
        "UpsampleNearest", "Conv1D", "Activation", "ConvTranspose1D"]
    assert folded.run_order == folded.layers and folded.layers[3].factor == 3
    # layers without weights are the stored instances, convolutions are fresh
    assert folded.layers[0] is model.layers[0] and folded.layers[2] is model.layers[3]
    assert not any(folded.layers[i] is stored for i in (1, 3) for stored in model.layers)
    x = rng.normal(size=(5, 6, 3))
    target = rng.normal(size=(5, 35, 2))
    np.testing.assert_allclose(
        mse_per_sample(target, folded.forward(x, training=False)),
        mse_per_sample(target, model.forward(x, training=False)), rtol=1e-12, atol=0.0)
    # the fold keeps the taps of the call: a later step on the stored model
    # leaves it alone
    before = folded.forward(x, training=False)
    model.layers[5].w += 1.0
    np.testing.assert_array_equal(folded.forward(x, training=False), before)


def test_the_default_decoder_keeps_its_specs_and_state_order(tmp_path):
    spec = default_autoencoder_spec()
    decoder = spec.build_decoder(np.random.default_rng(4))
    assert [layer.spec for layer in decoder.layers] == list(spec.decoder)
    assert [layer.spec.kind for layer in decoder.run_order] == [
        "dense", "activation", "conv1d_transpose", "batchnorm", "activation",
        "conv1d_transpose"]
    assert decoder.param_count() == 28_662
    save_checkpoint(tmp_path / "dec.ckpt", decoder)
    loaded, _ = load_checkpoint(tmp_path / "dec.ckpt")
    assert loaded.spec_dicts() == decoder.spec_dicts() == [s.to_dict() for s in spec.decoder]
    assert [a.shape for a in loaded.state()] == [a.shape for a in decoder.state()]
    assert [layer.factor for layer in loaded.run_order
            if layer.spec.kind == "conv1d_transpose"] == [2, 2]
    x = np.random.default_rng(5).normal(size=(3, spec.latent))
    np.testing.assert_array_equal(loaded.forward(x), decoder.forward(x))
