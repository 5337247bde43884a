"""Adam optimizer, weighted-MSE training loop, and early stopping.

One epoch loop trains a shared encoder with one decoder per key;
``train_autoencoder`` is its single-key case under key 0 and
``train_multi_decoder`` its general case. Batch order is a deterministic
shuffle from the config seed, so identical config + seed reproduce identical
loss sequences. Re-running a plateaued validation loss keeps the earliest
best epoch (strict improvement only).

Training, validation, the cross-loss matrix and scoring all run each
upsampling -> transposed convolution pair as one polyphase layer (see
``model.Sequential``). Training computes no input gradient for the
encoder's first layer, which nothing reads.

``score_windows`` is the one inference loop and the only code that sets
chunk sizes. Validation runs it each epoch on the scoring fold of the
encoder and decoders (``fold_for_scoring``), as detector scoring and the
grouping's cross-loss matrix do.

``Adam`` runs with fixed hyperparameters (``LEARNING_RATE``, ``BETA1``,
``BETA2``, ``EPSILON``: the textbook defaults, which no run changes), so a
run config's ``train`` section holds only the epoch schedule and batch size.
``Adam.step`` updates its moments in place and works in one pair of flat
scratch arrays that every optimizer of a training run shares
(``adam_scratch``): steps run one at a time, and each overwrites the
scratch before reading it. It performs the textbook update's float
operations in the same order, so parameters come out with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyTrainingSet, NonFiniteLoss
from .model import Sequential, fold_for_scoring, mse_per_sample

SCORE_BATCH = 512     # rows per encoder pass of score_windows
# Adam's step size, moment decays and denominator guard
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 250
    batch_size: int = 128
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if min(self.max_epochs, self.batch_size, self.patience) <= 0:
            raise ValueError("max_epochs, batch_size and patience must be positive")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0          # 1-based
    best_val_loss: float = float("inf")
    stopped_epoch: int = 0
    # audit: training samples routed to each decoder key, summed over epochs
    samples_seen: dict[int, int] = field(default_factory=dict)


def adam_scratch(*param_lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One pair of flat scratch arrays as long as the largest parameter of
    param_lists, for every ``Adam`` over those parameters to share."""
    size = max(p.size for params in param_lists for p in params)
    return np.empty(size), np.empty(size)


class Adam:
    """Standard bias-corrected Adam over a fixed list of parameter arrays.

    scratch is a pair from ``adam_scratch``; each step works in views of
    its leading elements, shaped like each parameter in turn.
    """

    def __init__(self, params: list[np.ndarray],
                 scratch: tuple[np.ndarray, np.ndarray]):
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [tuple(s[:p.size].reshape(p.shape) for s in scratch)
                         for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """p -= lr * (m / c1) / (sqrt(v / c2) + eps), with m and v decayed in place."""
        self.t += 1
        correction1 = 1.0 - BETA1 ** self.t
        correction2 = 1.0 - BETA2 ** self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._scratch):
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - BETA2
            v += a
            np.divide(v, correction2, out=a)
            np.sqrt(a, out=a)
            a += EPSILON
            np.divide(m, correction1, out=b)
            b *= LEARNING_RATE
            b /= a
            p -= b


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
    # x_hat is no layer's cache, so the gradient can take its place
    d_xhat = np.subtract(x_hat, x, out=x_hat)
    d_xhat *= (2.0 / (batch * elements)) * w[:, None, None]
    encoder.zero_grads()
    decoder.zero_grads()
    dz = decoder.backward(d_xhat)
    encoder.backward(dz, input_grad=False)
    return loss


def score_windows(encoder: Sequential, x: np.ndarray,
                  spans: list[tuple[Sequential, int, int]]) -> list[np.ndarray]:
    """Per-window reconstruction loss in inference mode, one array per span.

    Each span (decoder, lo, hi) scores rows lo:hi of x through that decoder;
    spans may overlap. The encoder runs once per chunk of at most
    SCORE_BATCH rows, each decoder once on its span's rows in the chunk, and
    not at all in a chunk its span misses. Runs the models as given:
    validation and scoring pass their scoring folds.
    """
    out = [np.empty(hi - lo) for _, lo, hi in spans]
    for a in range(0, x.shape[0], SCORE_BATCH):
        batch = x[a:a + SCORE_BATCH]
        b = a + batch.shape[0]
        z = encoder.forward(batch, training=False)
        for (decoder, lo, hi), losses in zip(spans, out):
            s, t = max(lo, a), min(hi, b)
            if s < t:
                x_hat = decoder.forward(z[s - a:t - a], training=False)
                losses[s - lo:t - lo] = mse_per_sample(batch[s - a:t - a], x_hat)
    return out


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
    the validation windows, computed through the models folded once per
    epoch. Stops when it fails to improve for ``patience`` consecutive
    epochs; the best-epoch state (parameters and batch-norm running stats)
    is restored before returning. A batch's layer caches die with its
    backward (``Sequential.backward``), and one scratch pair serves every
    optimizer, so a run holds only what the batch in flight needs.
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
    if weights_by_key is None:
        weights_by_key = {k: np.ones(sizes[k]) for k in keys}
    else:
        weights_by_key = {k: np.asarray(weights_by_key[k], dtype=np.float64)
                          for k in keys}
        if any(weights_by_key[k].shape[0] != sizes[k] for k in keys):
            raise ValueError("sample weights must match each key's training set")

    rng = np.random.default_rng(config.seed)
    models = [encoder] + [decoders[k] for k in keys]
    scratch = adam_scratch(*(m.params() for m in models))
    enc_adam = Adam(encoder.params(), scratch)
    dec_adams = {k: Adam(decoders[k].params(), scratch) for k in keys}
    report = TrainReport()
    best_state: list[list[np.ndarray]] | None = None
    bad_epochs = 0

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
        scoring_encoder = fold_for_scoring(encoder)
        for k in keys:
            n = val_by_key[k].shape[0]
            if n:
                losses, = score_windows(scoring_encoder, val_by_key[k],
                                        [(fold_for_scoring(decoders[k]), 0, n)])
                val_loss += float(losses.mean()) * (n / total_val)
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
