"""Training loop, scoring, checkpoints and the desk architecture counts."""

import re
import struct

import numpy as np
import pytest

import ctxae.net.training as training_mod
from ctxae.errors import EmptyTrainingSet, NonFiniteLoss, ShapeMismatch
from ctxae.net.checkpoint import load_checkpoint, save_checkpoint
from ctxae.net.model import (
    AutoencoderSpec,
    default_autoencoder_spec,
    mse_per_sample,
)
from ctxae.net.training import (
    BETA1,
    BETA2,
    EPSILON,
    LEARNING_RATE,
    Adam,
    TrainConfig,
    adam_scratch,
    score_windows,
    train_autoencoder,
    train_multi_decoder,
)

ENCODER_PARAMS = 28_539
DECODER_PARAMS = 28_662


def _toy_spec(window_len=10, channels=2, latent=4) -> AutoencoderSpec:
    from ctxae.net import layers as L

    flat = (window_len - 2) * 3
    return AutoencoderSpec(
        input_shape=(window_len, channels),
        encoder=(L.conv1d(channels, 3, 3), L.relu(), L.dense(flat, latent)),
        latent=latent,
        decoder=(L.dense(latent, flat, out_shape=(window_len - 2, 3)),
                 L.relu(), L.conv1d_transpose(3, channels, 3)),
    )


def _toy_data(rng, n=64, window_len=10, channels=2):
    t = np.linspace(0, 2 * np.pi, window_len)
    phase = rng.uniform(0, 2 * np.pi, size=(n, 1, 1))
    base = np.sin(t[None, :, None] + phase)
    return np.concatenate([base] * channels, axis=2) + rng.normal(
        0, 0.05, size=(n, window_len, channels))


def _build_pair(spec, seed=0):
    rng = np.random.default_rng(seed)
    return spec.build_encoder(rng), spec.build_decoder(rng)


def test_mse_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 5, 3))
    y = rng.normal(size=(4, 5, 3))
    got = mse_per_sample(x, y)
    total = 0.0
    for b in range(4):
        acc = 0.0
        for t in range(5):
            for c in range(3):
                acc += (x[b, t, c] - y[b, t, c]) ** 2
        assert abs(got[b] - acc / 15.0) < 1e-9
        total += acc
    assert abs(got.mean() - total / 60.0) < 1e-9


def _count_rows(monkeypatch, model, calls):
    """Record the row count of each forward pass of one model instance."""
    forward = model.forward

    def counting(x, training=False):
        calls.append(x.shape[0])
        return forward(x, training)
    monkeypatch.setattr(model, "forward", counting)


def test_score_windows_matches_per_sample_mse(rng, monkeypatch):
    """Each span scores as one pass over its rows would, whatever the chunks."""
    spec = _toy_spec()
    enc = spec.build_encoder(np.random.default_rng(0))
    decs = [spec.build_decoder(np.random.default_rng(i)) for i in range(4)]
    x = _toy_data(rng, n=10)
    # chunks of three rows: [0, 3), [3, 6), [6, 9), [9, 10)
    monkeypatch.setattr(training_mod, "SCORE_BATCH", 3)
    spans = [(decs[0], 0, 10),     # every row, across every chunk edge
             (decs[1], 2, 7),      # starts after row 0, overlaps the first
             (decs[2], 4, 5),      # one row: no rows in three of the chunks
             (decs[3], 8, 10),     # overlaps the first two at the tail
             (decs[0], 3, 6)]      # one whole chunk, through a reused decoder
    encoder_rows, decoder_rows = [], [[] for _ in decs]
    _count_rows(monkeypatch, enc, encoder_rows)
    for dec, rows in zip(decs, decoder_rows):
        _count_rows(monkeypatch, dec, rows)
    scores = score_windows(enc, x, spans)

    # decs[0] runs for both of its spans in chunk [3, 6); decs[2] only there
    passes = ([3, 3, 3, 1], [[3, 3, 3, 3, 1], [1, 3, 1], [1], [1, 1]])
    assert (encoder_rows, decoder_rows) == passes
    # no rows: one empty array per span, and no model runs
    empty = score_windows(enc, x[:0], [(decs[0], 0, 0), (decs[1], 0, 0)])
    assert [a.shape for a in empty] == [(0,), (0,)]
    assert (encoder_rows, decoder_rows) == passes
    monkeypatch.undo()
    assert [a.shape for a in scores] == [(hi - lo,) for _, lo, hi in spans]
    for (dec, lo, hi), got in zip(spans, scores):
        # one pass over the span's rows, outside score_windows
        x_hat = dec.forward(enc.forward(x[lo:hi], training=False), training=False)
        np.testing.assert_allclose(got, mse_per_sample(x[lo:hi], x_hat),
                                   rtol=1e-12, atol=0.0)


def test_desk_architecture_parameter_counts():
    enc, dec = _build_pair(default_autoencoder_spec())
    assert enc.param_count() == ENCODER_PARAMS
    assert dec.param_count() == DECODER_PARAMS
    assert enc.param_count() + dec.param_count() == 57_201


def test_desk_architecture_refuses_a_window_the_decoder_cannot_restore():
    # 49 pools down to the same 10 steps as 46, which the decoder restores
    with pytest.raises(ShapeMismatch, match=r"decoder emits \(46, 6\)"):
        default_autoencoder_spec(window_len=49)


def test_training_reduces_loss_and_restores_best(rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec, seed=1)
    x = _toy_data(rng, n=96)
    cfg = TrainConfig(max_epochs=30, patience=29, batch_size=16, seed=3)
    report = train_autoencoder(enc, dec, x[:64], x[64:], cfg)
    assert report.train_losses[-1] < report.train_losses[0]
    assert report.best_val_loss == min(report.val_losses)
    # restored state reproduces the best validation loss exactly
    losses, = score_windows(enc, x[64:], [(dec, 0, 32)])
    assert losses.mean() == pytest.approx(report.best_val_loss, abs=1e-12)


def test_training_is_deterministic(rng):
    spec = _toy_spec()
    x = _toy_data(rng, n=48)
    reports = []
    finals = []
    for _ in range(2):
        enc, dec = _build_pair(spec, seed=7)
        cfg = TrainConfig(max_epochs=5, patience=4, batch_size=16, seed=11)
        reports.append(train_autoencoder(enc, dec, x[:32], x[32:], cfg))
        finals.append([p.copy() for p in enc.params() + dec.params()])
    assert reports[0].train_losses == reports[1].train_losses
    assert reports[0].val_losses == reports[1].val_losses
    for a, b in zip(*finals):
        assert np.array_equal(a, b)


def test_early_stopping_fires_after_patience(monkeypatch, rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec)
    x = _toy_data(rng, n=40)
    # scripted validation curve: improves twice, then a flat plateau
    seq = iter([1.0, 0.5] + [0.5] * 50)
    monkeypatch.setattr(training_mod, "score_windows",
                        lambda *a, **k: [np.full(1, next(seq))])
    cfg = TrainConfig(max_epochs=100, patience=10, batch_size=16, seed=0)
    report = train_autoencoder(enc, dec, x[:32], x[32:], cfg)
    assert report.best_epoch == 2
    assert report.stopped_epoch == 12    # 2 good epochs + 10 stale ones
    assert report.best_val_loss == 0.5


def test_early_stopping_keeps_going_while_improving(monkeypatch, rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec)
    x = _toy_data(rng, n=40)
    seq = iter(1.0 / (i + 1) for i in range(200))
    monkeypatch.setattr(training_mod, "score_windows",
                        lambda *a, **k: [np.full(1, next(seq))])
    cfg = TrainConfig(max_epochs=8, patience=3, batch_size=16, seed=0)
    report = train_autoencoder(enc, dec, x[:32], x[32:], cfg)
    assert report.stopped_epoch == 8
    assert report.best_epoch == 8


def test_samples_seen_audit_single(rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec)
    x = _toy_data(rng, n=50)
    cfg = TrainConfig(max_epochs=4, patience=3, batch_size=16, seed=0)
    report = train_autoencoder(enc, dec, x[:33], x[33:], cfg)
    assert report.samples_seen == {0: 33 * report.stopped_epoch}


def test_weighted_loss_matches_manual_average(rng):
    spec = _toy_spec()
    x = _toy_data(rng, n=8)
    w = rng.uniform(0.5, 2.0, size=4)

    enc, dec = _build_pair(spec, seed=5)
    x_hat = dec.forward(enc.forward(x[:4], training=True), training=True)
    expected = float(np.mean(w * mse_per_sample(x[:4], x_hat)))

    enc2, dec2 = _build_pair(spec, seed=5)
    loss = training_mod._weighted_batch_step(enc2, dec2, x[:4], w)
    assert loss == pytest.approx(expected, rel=1e-9)


def test_weighted_batch_step_gradients_match_reference(rng):
    spec = _toy_spec()
    x = _toy_data(rng, n=6)
    w = rng.uniform(0.5, 2.0, size=6)

    enc, dec = _build_pair(spec, seed=5)
    x_hat = dec.forward(enc.forward(x, training=True), training=True)
    d_xhat = (2.0 / (x.shape[0] * x[0].size)) * w[:, None, None] * (x_hat - x)
    enc.backward(dec.backward(d_xhat))

    enc2, dec2 = _build_pair(spec, seed=5)
    training_mod._weighted_batch_step(enc2, dec2, x, w)
    for g_ref, g in zip(enc.grads() + dec.grads(), enc2.grads() + dec2.grads()):
        assert g.tobytes() == g_ref.tobytes()


def test_training_rejects_empty_sets(rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec)
    x = _toy_data(rng, n=8)
    empty = np.zeros((0, 10, 2))
    cfg = TrainConfig(max_epochs=2, patience=1)
    with pytest.raises(EmptyTrainingSet):
        train_autoencoder(enc, dec, empty, x, cfg)
    with pytest.raises(EmptyTrainingSet):
        train_autoencoder(enc, dec, x, empty, cfg)


def test_training_raises_on_non_finite_loss(rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec)
    x = _toy_data(rng, n=16)
    x[3, 2, 1] = np.nan
    cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8)
    with pytest.raises(NonFiniteLoss, match="non-finite: nan"):
        train_autoencoder(enc, dec, x[:8], x[8:], cfg)


def test_multi_decoder_routes_batches_per_key(rng):
    spec = _toy_spec()
    srng = np.random.default_rng(9)
    enc = spec.build_encoder(srng)
    decoders = {5: spec.build_decoder(srng), 9: spec.build_decoder(srng)}
    train = {5: _toy_data(rng, n=20), 9: _toy_data(rng, n=12)}
    val = {5: _toy_data(rng, n=6), 9: _toy_data(rng, n=4)}
    cfg = TrainConfig(max_epochs=3, patience=2, batch_size=8, seed=2)
    report = train_multi_decoder(enc, decoders, train, val, cfg)
    ep = report.stopped_epoch
    assert report.samples_seen == {5: 20 * ep, 9: 12 * ep}


def test_single_pair_training_is_the_one_key_case(rng):
    spec = _toy_spec()
    x = _toy_data(rng, n=48)
    w = rng.uniform(0.5, 2.0, size=32)
    cfg = TrainConfig(max_epochs=4, patience=3, batch_size=8, seed=4)
    enc_a, dec_a = _build_pair(spec, seed=6)
    single = train_autoencoder(enc_a, dec_a, x[:32], x[32:], cfg, sample_weights=w)
    enc_b, dec_b = _build_pair(spec, seed=6)
    keyed = train_multi_decoder(enc_b, {0: dec_b}, {0: x[:32]}, {0: x[32:]}, cfg,
                                weights_by_key={0: w})
    assert single.train_losses == keyed.train_losses
    assert single.val_losses == keyed.val_losses
    assert single.samples_seen == keyed.samples_seen == {0: 32 * single.stopped_epoch}
    for a, b in zip(enc_a.state() + dec_a.state(), enc_b.state() + dec_b.state()):
        assert np.array_equal(a, b)


def _kept_caches(*models):
    """(layer, attribute) of every training cache still held."""
    return [(type(layer).__name__, name) for model in models
            for layer in model.layers for name, value in vars(layer).items()
            if name.startswith("_") and value is not None]


def test_layers_drop_their_caches_when_training_ends(rng):
    spec = default_autoencoder_spec()
    srng = np.random.default_rng(5)
    cfg = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=1)
    x = rng.normal(size=(24, 50, 6))
    enc, dec = spec.build_encoder(srng), spec.build_decoder(srng)
    enc.forward(x[:4], training=True)
    assert _kept_caches(enc)   # a training forward does fill them
    train_autoencoder(enc, dec, x[:16], x[16:], cfg)
    assert _kept_caches(enc, dec) == []
    decoders = {0: spec.build_decoder(srng), 3: spec.build_decoder(srng)}
    train_multi_decoder(enc, decoders, {0: x[:8], 3: x[8:16]},
                        {0: x[16:20], 3: x[20:]}, cfg)
    assert _kept_caches(enc, *decoders.values()) == []


def test_a_training_cache_dies_with_its_backward(rng):
    spec = default_autoencoder_spec()
    enc, dec = _build_pair(spec, seed=3)
    x = rng.normal(size=(6, 50, 6))
    training_mod._weighted_batch_step(enc, dec, x, np.ones(6))
    assert _kept_caches(enc, dec) == []


def test_idle_decoders_hold_no_batch(rng, monkeypatch):
    spec = default_autoencoder_spec()
    srng = np.random.default_rng(6)
    enc = spec.build_encoder(srng)
    decoders = {0: spec.build_decoder(srng), 3: spec.build_decoder(srng)}
    x = rng.normal(size=(40, 50, 6))
    step = training_mod._weighted_batch_step
    batches = []

    def checked(encoder, decoder, xb, wb):
        # every model is idle between batches, the one about to train too
        assert _kept_caches(encoder, *decoders.values()) == []
        batches.append(decoder)
        return step(encoder, decoder, xb, wb)

    monkeypatch.setattr(training_mod, "_weighted_batch_step", checked)
    train_multi_decoder(enc, decoders, {0: x[:16], 3: x[16:32]},
                        {0: x[32:36], 3: x[36:]},
                        TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=1))
    assert {id(d) for d in batches} == {id(d) for d in decoders.values()}
    assert len(batches) == 8


def test_multi_decoder_key_agreement_enforced(rng):
    spec = _toy_spec()
    srng = np.random.default_rng(9)
    enc = spec.build_encoder(srng)
    decoders = {1: spec.build_decoder(srng)}
    data = {1: _toy_data(rng, n=8), 2: _toy_data(rng, n=8)}
    with pytest.raises(ValueError):
        train_multi_decoder(enc, decoders, data, data,
                            TrainConfig(max_epochs=2, patience=1))


def test_multi_decoder_rejects_empty_branch(rng):
    spec = _toy_spec()
    srng = np.random.default_rng(9)
    enc = spec.build_encoder(srng)
    decoders = {1: spec.build_decoder(srng), 2: spec.build_decoder(srng)}
    train = {1: _toy_data(rng, n=8), 2: np.zeros((0, 10, 2))}
    val = {1: _toy_data(rng, n=4), 2: _toy_data(rng, n=4)}
    with pytest.raises(EmptyTrainingSet):
        train_multi_decoder(enc, decoders, train, val,
                            TrainConfig(max_epochs=2, patience=1))


def test_adam_matches_reference_formula():
    p = np.array([1.0, -2.0])
    params = [p]
    opt = Adam(params, adam_scratch(params))
    m = np.zeros(2)
    v = np.zeros(2)
    ref = p.copy()
    for t in range(1, 4):
        g = 2.0 * ref                       # gradient of sum(p^2)
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        ref = ref - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        opt.step(params, [2.0 * params[0]])
        assert np.allclose(params[0], ref, atol=1e-12)


def test_checkpoint_round_trip(tmp_path, rng):
    spec = _toy_spec()
    enc, _ = _build_pair(spec, seed=4)
    x = _toy_data(rng, n=6)

    path = tmp_path / "encoder.ckpt"
    save_checkpoint(path, enc, meta={"role": "encoder"})
    # saving snaps the live model to storage precision, so the file and the
    # in-memory model agree exactly from here on
    before = enc.forward(x, training=False)
    loaded, meta = load_checkpoint(path)
    assert meta["role"] == "encoder"
    after = loaded.forward(x, training=False)
    assert np.array_equal(before, after)

    # re-saving an untouched model is byte-stable
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, loaded, meta={"role": "encoder"})
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("tail", [b"\0" * 8, b"\1"])
def test_checkpoint_with_bytes_after_its_last_block_is_refused(tmp_path, tail):
    enc, _ = _build_pair(_toy_spec(), seed=4)
    path = tmp_path / "encoder.ckpt"
    save_checkpoint(path, enc)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ShapeMismatch, match=f"{len(tail)} bytes after the last state block"):
        load_checkpoint(path)
    path.write_bytes(path.read_bytes()[:-len(tail) - 1])
    with pytest.raises(ShapeMismatch, match="truncated parameter block"):
        load_checkpoint(path)


def _header_len(data: bytes, length: int) -> bytes:
    return data[:5] + struct.pack("<I", length) + data[9:]


@pytest.mark.parametrize("damage", [
    lambda data: data[:12] + bytes([data[12] ^ 0x80]) + data[13:],   # not UTF-8
    lambda data: data[:7],                                            # no header length
    lambda data: _header_len(data, len(data)),                        # past the end
    lambda data: b"CTAE1" + struct.pack("<I", 2) + b"[]",             # a JSON list
], ids=["flipped-byte-12", "seven-bytes", "length-past-the-end", "json-list"])
def test_a_damaged_checkpoint_header_is_refused(tmp_path, damage):
    enc, _ = _build_pair(_toy_spec(), seed=4)
    path = tmp_path / "encoder.ckpt"
    save_checkpoint(path, enc)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ShapeMismatch, match=f"{re.escape(str(path))}: damaged header"):
        load_checkpoint(path)


def test_checkpoint_preserves_running_stats(tmp_path, rng):
    spec = default_autoencoder_spec()
    enc, _ = _build_pair(spec, seed=2)
    x = rng.normal(size=(8, 50, 6))
    for _ in range(3):
        enc.forward(x, training=True)       # move batch-norm buffers
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc)
    before = enc.forward(x, training=False)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.forward(x, training=False), before)


def test_sequential_snapshot_restore_round_trip(rng):
    spec = _toy_spec()
    enc, _ = _build_pair(spec, seed=8)
    x = _toy_data(rng, n=4)
    snap = enc.snapshot()
    before = enc.forward(x, training=False)
    for p in enc.params():
        p += 0.5
    assert not np.array_equal(enc.forward(x, training=False), before)
    enc.restore(snap)
    assert np.array_equal(enc.forward(x, training=False), before)


class _ReferenceAdam:
    """The textbook out-of-place Adam update, kept as the in-place step's oracle."""

    def __init__(self, params):
        self.lr, self.eps, self.beta1, self.beta2 = LEARNING_RATE, EPSILON, BETA1, BETA2
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / correction1
            v_hat = self.v[i] / correction2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_adam_in_place_step_matches_out_of_place_reference(rng):
    # an encoder and two decoders of different shapes, the largest
    # parameter in a decoder, with one scratch pair built as _train builds it
    shapes = {"enc": [(7, 5), (5,), (3, 2, 4)],
              "a": [(4, 3), (9, 6)],
              "b": [(2, 11), (6,), (5, 5)]}
    params = {k: [rng.normal(size=s) for s in ss] for k, ss in shapes.items()}
    ref_params = {k: [p.copy() for p in ps] for k, ps in params.items()}
    scratch = adam_scratch(*params.values())
    assert scratch[0].shape == scratch[1].shape == (54,)
    opts = {k: Adam(ps, scratch) for k, ps in params.items()}
    refs = {k: _ReferenceAdam(ps) for k, ps in ref_params.items()}
    for _ in range(40):
        for k in ("enc", "a", "enc", "b"):
            grads = [rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=s)
                     for s in shapes[k]]
            grads[0][rng.random(shapes[k][0]) < 0.3] = 0.0
            opts[k].step(params[k], grads)
            refs[k].step(ref_params[k], [g.copy() for g in grads])
        for k in shapes:
            for p, p_ref in zip(params[k], ref_params[k]):
                assert p.tobytes() == p_ref.tobytes()


def test_skipping_the_input_gradient_keeps_every_parameter_gradient(rng):
    spec = default_autoencoder_spec()
    enc, dec = _build_pair(spec, seed=12)
    x = rng.normal(size=(20, 50, 6))
    grads = []
    for input_grad in (True, False):
        x_hat = dec.forward(enc.forward(x, training=True), training=True)
        dx = enc.backward(dec.backward(x_hat - x), input_grad=input_grad)
        assert (dx is None) == (not input_grad)
        grads.append([g.copy() for g in enc.grads() + dec.grads()])
    assert dx is None
    for with_dx, without in zip(*grads):
        assert with_dx.tobytes() == without.tobytes()


def test_validation_runs_the_scoring_fold(rng, monkeypatch):
    spec = default_autoencoder_spec()
    enc, dec = _build_pair(spec, seed=13)
    x = rng.normal(size=(24, 50, 6))
    seen = []
    monkeypatch.setattr(training_mod, "score_windows",
                        lambda e, v, spans: seen.append((e, spans[0][0])) or [np.ones(1)])
    train_autoencoder(enc, dec, x[:16], x[16:], TrainConfig(max_epochs=2, patience=1))
    assert len(seen) == 2
    for e, d in seen:
        # folded: the batch norms are merged away, the stored models untouched
        assert e is not enc and d is not dec
        assert "batchnorm" not in [layer.spec.kind for layer in e.run_order + d.run_order]
