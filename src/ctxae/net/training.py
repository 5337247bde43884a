"""Adam optimizer, weighted-MSE training loop, and early stopping.

One epoch loop trains a shared encoder with one decoder per key;
``train_autoencoder`` is its single-key case under key 0 and
``train_multi_decoder`` its general case. Batch order is a deterministic
shuffle from the config seed, so identical config + seed reproduce identical
loss sequences. Re-running a plateaued validation loss keeps the earliest
best epoch (strict improvement only).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyTrainingSet, NonFiniteLoss
from .model import Sequential, mse_per_sample


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 250
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 128
    patience: int = 10
    seed: int = 0
    weighting: bool = True

    def __post_init__(self):
        if min(self.max_epochs, self.batch_size, self.patience) <= 0:
            raise ValueError("max_epochs, batch_size and patience must be positive")
        if self.learning_rate <= 0 or self.epsilon <= 0:
            raise ValueError("learning_rate and epsilon must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("moment decays must lie in [0, 1)")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0          # 1-based
    best_val_loss: float = float("inf")
    stopped_epoch: int = 0
    wall_time_s: float = 0.0
    # audit: training samples routed to each decoder key, summed over epochs
    samples_seen: dict[int, int] = field(default_factory=dict)


class Adam:
    """Standard bias-corrected Adam over a fixed list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], config: TrainConfig):
        self.lr = config.learning_rate
        self.beta1 = config.beta1
        self.beta2 = config.beta2
        self.eps = config.epsilon
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / correction1
            v_hat = self.v[i] / correction2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _check_finite(loss: float) -> None:
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"training loss became non-finite: {loss}")


def _weighted_batch_step(encoder: Sequential, decoder: Sequential,
                         x: np.ndarray, w: np.ndarray) -> float:
    """Forward/backward one batch; returns the weighted batch loss.

    Loss is (1/B) * sum_i w_i * mse_i, linear in the sample weights.
    """
    z = encoder.forward(x, training=True)
    x_hat = decoder.forward(z, training=True)
    per_sample = mse_per_sample(x, x_hat)
    loss = float((w * per_sample).mean())
    _check_finite(loss)
    batch, elements = x.shape[0], x[0].size
    d_xhat = (2.0 / (batch * elements)) * w[:, None, None] * (x_hat - x)
    encoder.zero_grads()
    decoder.zero_grads()
    dz = decoder.backward(d_xhat)
    encoder.backward(dz)
    return loss


def score_windows(encoder: Sequential, decoder: Sequential, x: np.ndarray,
                  batch_size: int = 512) -> np.ndarray:
    """Per-window reconstruction loss in inference mode; shape (n,)."""
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], batch_size):
        batch = x[start:start + batch_size]
        x_hat = decoder.forward(encoder.forward(batch, training=False), training=False)
        out[start:start + batch.shape[0]] = mse_per_sample(batch, x_hat)
    return out


def evaluate_loss(encoder: Sequential, decoder: Sequential, x: np.ndarray,
                  batch_size: int = 512) -> float:
    """Unweighted mean per-sample MSE in inference mode."""
    return float(score_windows(encoder, decoder, x, batch_size).mean())


def _train(encoder: Sequential, decoders: dict[int, Sequential],
           train_by_key: dict[int, np.ndarray], val_by_key: dict[int, np.ndarray],
           config: TrainConfig, weights_by_key: dict[int, np.ndarray] | None
           ) -> TrainReport:
    """The epoch loop: a shared encoder with one decoder branch per key.

    Every mini-batch is drawn from one key and flows through the shared
    encoder plus that key's decoder; batches from all keys are interleaved
    in a seeded shuffle. The encoder receives a gradient step on every
    batch, each decoder only on its own batches (per-branch Adam state).
    The validation loss is the per-key mean weighted by each key's share of
    the validation windows. Stops when it fails to improve for ``patience``
    consecutive epochs; the best-epoch state (parameters and batch-norm
    running stats) is restored before returning.
    """
    keys = sorted(decoders)
    if sorted(train_by_key) != keys or sorted(val_by_key) != keys:
        raise ValueError("decoders, train and val keys must agree")
    sizes = {k: train_by_key[k].shape[0] for k in keys}
    total = sum(sizes.values())
    if total == 0:
        raise EmptyTrainingSet("no training windows")
    if 0 in sizes.values():
        raise EmptyTrainingSet("a decoder key has no training windows")
    total_val = sum(val_by_key[k].shape[0] for k in keys)
    if total_val == 0:
        raise EmptyTrainingSet("no validation windows")
    if weights_by_key is None or not config.weighting:
        weights_by_key = {k: np.ones(sizes[k]) for k in keys}
    else:
        weights_by_key = {k: np.asarray(weights_by_key[k], dtype=np.float64)
                          for k in keys}
        if any(weights_by_key[k].shape[0] != sizes[k] for k in keys):
            raise ValueError("sample weights must match each key's training set")

    rng = np.random.default_rng(config.seed)
    enc_adam = Adam(encoder.params(), config)
    dec_adams = {k: Adam(decoders[k].params(), config) for k in keys}
    models = [encoder] + [decoders[k] for k in keys]
    report = TrainReport()
    best_state: list[list[np.ndarray]] | None = None
    bad_epochs = 0
    started = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        schedule: list[tuple[int, np.ndarray]] = []
        for k in keys:
            perm = rng.permutation(sizes[k])
            for start in range(0, sizes[k], config.batch_size):
                schedule.append((k, perm[start:start + config.batch_size]))
        if len(keys) > 1:
            # a single key's batches already come in permutation order
            rng.shuffle(schedule)

        epoch_loss = 0.0
        for k, idx in schedule:
            loss = _weighted_batch_step(encoder, decoders[k], train_by_key[k][idx],
                                        weights_by_key[k][idx])
            enc_adam.step(encoder.params(), encoder.grads())
            dec_adams[k].step(decoders[k].params(), decoders[k].grads())
            epoch_loss += loss * idx.shape[0]
            report.samples_seen[k] = report.samples_seen.get(k, 0) + idx.shape[0]
        report.train_losses.append(epoch_loss / total)

        val_loss = 0.0
        for k in keys:
            if val_by_key[k].shape[0]:
                val_loss += evaluate_loss(encoder, decoders[k], val_by_key[k]) \
                    * (val_by_key[k].shape[0] / total_val)
        _check_finite(val_loss)
        report.val_losses.append(val_loss)
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best_state = [m.snapshot() for m in models]
            bad_epochs = 0
        else:
            bad_epochs += 1
        report.stopped_epoch = epoch
        if bad_epochs >= config.patience:
            break

    for model, state in zip(models, best_state):
        model.restore(state)
    report.wall_time_s = time.perf_counter() - started
    return report


def train_autoencoder(encoder: Sequential, decoder: Sequential,
                      train_x: np.ndarray, val_x: np.ndarray,
                      config: TrainConfig,
                      sample_weights: np.ndarray | None = None) -> TrainReport:
    """Train a single encoder/decoder pair: the one-key case, under key 0."""
    weights = None if sample_weights is None else {0: sample_weights}
    return _train(encoder, {0: decoder}, {0: train_x}, {0: val_x}, config, weights)


def train_multi_decoder(encoder: Sequential, decoders: dict[int, Sequential],
                        train_by_key: dict[int, np.ndarray],
                        val_by_key: dict[int, np.ndarray],
                        config: TrainConfig,
                        weights_by_key: dict[int, np.ndarray] | None = None,
                        ) -> TrainReport:
    """Joint shared-encoder training with one decoder branch per key."""
    return _train(encoder, decoders, train_by_key, val_by_key, config,
                  weights_by_key)
