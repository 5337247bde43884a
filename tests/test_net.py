"""Training loop, scoring, checkpoints and the desk architecture counts."""

import numpy as np
import pytest

import ctxae.net.training as training_mod
from ctxae.errors import EmptyTrainingSet, NumericalError
from ctxae.net.checkpoint import load_checkpoint, save_checkpoint
from ctxae.net.model import (
    AutoencoderSpec,
    Sequential,
    default_autoencoder_spec,
    mse,
    mse_per_sample,
)
from ctxae.net.training import (
    Adam,
    TrainConfig,
    evaluate_loss,
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
    for b in range(4):
        acc = 0.0
        for t in range(5):
            for c in range(3):
                acc += (x[b, t, c] - y[b, t, c]) ** 2
        assert abs(got[b] - acc / 15.0) < 1e-9
    assert abs(mse(x, y) - got.mean()) < 1e-9


def test_score_windows_matches_per_sample_mse(rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec)
    x = _toy_data(rng, n=10)
    scores = score_windows(enc, dec, x, batch_size=3)
    x_hat = dec.forward(enc.forward(x, training=False), training=False)
    assert np.allclose(scores, mse_per_sample(x, x_hat), atol=1e-12)
    assert abs(evaluate_loss(enc, dec, x, batch_size=4) - scores.mean()) < 1e-9


def test_desk_architecture_parameter_counts():
    spec = default_autoencoder_spec()
    assert spec.encoder_param_count() == ENCODER_PARAMS
    assert spec.decoder_param_count() == DECODER_PARAMS
    assert spec.encoder_param_count() + spec.decoder_param_count() == 57_201
    enc, dec = _build_pair(spec)
    assert enc.param_count() == ENCODER_PARAMS
    assert dec.param_count() == DECODER_PARAMS


def test_training_reduces_loss_and_restores_best(rng):
    spec = _toy_spec()
    enc, dec = _build_pair(spec, seed=1)
    x = _toy_data(rng, n=96)
    cfg = TrainConfig(max_epochs=30, patience=29, batch_size=16, seed=3)
    report = train_autoencoder(enc, dec, x[:64], x[64:], cfg)
    assert report.train_losses[-1] < report.train_losses[0]
    assert report.best_val_loss == min(report.val_losses)
    # restored state reproduces the best validation loss exactly
    assert evaluate_loss(enc, dec, x[64:]) == pytest.approx(
        report.best_val_loss, abs=1e-12)


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
    monkeypatch.setattr(training_mod, "evaluate_loss",
                        lambda *a, **k: next(seq))
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
    monkeypatch.setattr(training_mod, "evaluate_loss",
                        lambda *a, **k: next(seq))
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
    with pytest.raises(NumericalError):
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
    cfg = TrainConfig(learning_rate=0.01)
    p = np.array([1.0, -2.0])
    params = [p]
    opt = Adam(params, cfg)
    m = np.zeros(2)
    v = np.zeros(2)
    ref = p.copy()
    for t in range(1, 4):
        g = 2.0 * ref                       # gradient of sum(p^2)
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        ref = ref - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
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
