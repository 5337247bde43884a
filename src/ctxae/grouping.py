"""Decoder-by-context loss matrix and automatic context grouping.

Two tests drive the grouping. CAMT asks whether a context's windows are
reconstructed distinctly better by their own decoder than by every foreign
decoder (within tolerance delta); if so the context is Distinct and keeps a
dedicated decoder. DIT collects, per decoder, the contexts it reconstructs
below a loss cap tau_dit. Contexts that pass both (or DIT alone under the
contextual-only strategy) are merged greedily, largest DIT set first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyValidationSet, SingleContext
from .thresholds import ThresholdTable

DISTINCT = "distinct"
MERGEABLE = "mergeable"


@dataclass(frozen=True)
class LossMatrix:
    """L[j][c]: mean reconstruction loss of decoder j on context c's windows."""

    context_ids: tuple[int, ...]
    values: np.ndarray          # (n, n), rows = decoders, cols = contexts
    counts: np.ndarray          # (n,) samples per context column

    def __post_init__(self):
        n = len(self.context_ids)
        if self.values.shape != (n, n):
            raise ValueError("loss matrix must be square over the context ids")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ValueError("loss matrix entries must be finite and >= 0")

    def index(self, context_id: int) -> int:
        return self.context_ids.index(context_id)

    def loss(self, decoder_id: int, context_id: int) -> float:
        return float(self.values[self.index(decoder_id), self.index(context_id)])

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values)


def cross_loss_matrix(cae_detector, val_by_context: dict[int, np.ndarray],
                      batch_size: int = 512) -> LossMatrix:
    """Run every context's validation windows through every decoder.

    The shared encoder runs once per context; each decoder then reconstructs
    the same latents.
    """
    from .detectors import SHARED
    from .net import mse_per_sample

    context_ids = tuple(sorted(cae_detector.decoders))
    for cid in context_ids:
        if val_by_context.get(cid) is None or val_by_context[cid].shape[0] == 0:
            raise EmptyValidationSet(f"context {cid} has no validation windows")

    enc = cae_detector.encoders[SHARED]
    n = len(context_ids)
    values = np.zeros((n, n))
    counts = np.zeros(n, dtype=int)
    for col, cid in enumerate(context_ids):
        x = val_by_context[cid]
        counts[col] = x.shape[0]
        sums = np.zeros(n)
        for start in range(0, x.shape[0], batch_size):
            batch = x[start:start + batch_size]
            z = enc.forward(batch, training=False)
            for row, did in enumerate(context_ids):
                x_hat = cae_detector.decoders[did].forward(z, training=False)
                sums[row] += float(mse_per_sample(batch, x_hat).sum())
        values[:, col] = sums / counts[col]
    return LossMatrix(context_ids=context_ids, values=values, counts=counts)


def camt(matrix: LossMatrix, context_id: int, delta: float) -> str:
    """Distinct iff every foreign decoder is worse than own loss plus delta."""
    if len(matrix.context_ids) < 2:
        raise SingleContext("CAMT needs at least two contexts")
    c = matrix.index(context_id)
    column = matrix.values[:, c]
    off = np.delete(column, c)
    return DISTINCT if off.min() > column[c] + delta else MERGEABLE


def _tau_vector(matrix: LossMatrix, tau_dit) -> np.ndarray:
    """Accept a scalar cap or a per-context mapping/threshold table."""
    if isinstance(tau_dit, ThresholdTable):
        return np.array([tau_dit.tau(c) for c in matrix.context_ids])
    if isinstance(tau_dit, dict):
        return np.array([float(tau_dit[c]) for c in matrix.context_ids])
    tau = float(tau_dit)
    if tau <= 0:
        raise ConfigError("tau_dit must be positive")
    return np.full(len(matrix.context_ids), tau)


def dit(matrix: LossMatrix, decoder_id: int, tau_dit) -> tuple[int, ...]:
    """Contexts decoder k reconstructs within the cap (inclusive)."""
    taus = _tau_vector(matrix, tau_dit)
    row = matrix.values[matrix.index(decoder_id)]
    return tuple(c for i, c in enumerate(matrix.context_ids) if row[i] <= taus[i])


@dataclass(frozen=True)
class GroupingResult:
    groups: tuple[tuple[int, tuple[int, ...]], ...]   # (representative, members)
    distinct: tuple[int, ...]
    delta: float
    tau_dit: dict[int, float]
    strategy: str

    def as_map(self) -> dict[int, int]:
        """context id -> decoder key; distinct contexts map to themselves."""
        mapping = {c: c for c in self.distinct}
        for rep, members in self.groups:
            for c in members:
                mapping[c] = rep
        return mapping

    @property
    def decoder_count(self) -> int:
        return len(self.groups) + len(self.distinct)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "delta": self.delta,
            "tau_dit": {str(c): t for c, t in sorted(self.tau_dit.items())},
            "groups": [{"representative": rep, "members": list(members)}
                       for rep, members in self.groups],
            "distinct": list(self.distinct),
        }


def default_delta(matrix: LossMatrix) -> float:
    """One robust standard deviation of the self-loss diagonal.

    Scaled median absolute deviation rather than the plain std: a single
    hard context with a large self-loss would otherwise widen the margin
    for every other context and mask genuinely distinct ones.
    """
    diag = matrix.diagonal
    mad = float(np.median(np.abs(diag - np.median(diag))))
    return max(1.4826 * mad, 1e-12)


def derive_grouping(matrix: LossMatrix, tau_dit, delta: float | None = None,
                    strategy: str = "full") -> GroupingResult:
    """Partition contexts into decoder groups plus distinct singletons.

    Greedy overlap resolution: the largest remaining DIT set is claimed
    first (ties broken by lowest decoder id). Contexts no decoder can serve
    under the cap fall back to distinct.
    """
    if strategy not in ("full", "contextual-only"):
        raise ConfigError(f"unknown grouping strategy {strategy!r}")
    if delta is None:
        delta = default_delta(matrix)
    if delta <= 0:
        raise ConfigError("delta must be positive")
    taus = _tau_vector(matrix, tau_dit)
    tau_map = {c: float(t) for c, t in zip(matrix.context_ids, taus)}

    distinct: list[int] = []
    candidates: list[int] = []
    for c in matrix.context_ids:
        if strategy == "full" and len(matrix.context_ids) > 1 \
                and camt(matrix, c, delta) == DISTINCT:
            distinct.append(c)
        else:
            candidates.append(c)

    sets = {
        k: frozenset(c for c in dit(matrix, k, tau_dit) if c in candidates)
        for k in candidates
    }
    remaining = set(candidates)
    groups: list[tuple[int, tuple[int, ...]]] = []
    while remaining:
        eligible = [k for k in sorted(remaining) if k in sets[k]]
        if not eligible:
            # no decoder serves these contexts under the cap
            distinct.extend(sorted(remaining))
            break
        best = max(eligible, key=lambda k: (len(sets[k] & remaining), -k))
        members = tuple(sorted(sets[best] & remaining))
        groups.append((best, members))
        remaining -= set(members)

    return GroupingResult(groups=tuple(groups), distinct=tuple(sorted(distinct)),
                          delta=float(delta), tau_dit=tau_map, strategy=strategy)


# --- export ---------------------------------------------------------------------

def save_matrix(path: Path, matrix: LossMatrix) -> None:
    lines = ["decoder_id," + ",".join(f"c{c}" for c in matrix.context_ids)]
    lines.append("counts," + ",".join(str(int(n)) for n in matrix.counts))
    for i, did in enumerate(matrix.context_ids):
        cells = ",".join(repr(float(v)) for v in matrix.values[i])
        lines.append(f"{did},{cells}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_grouping(path: Path, result: GroupingResult) -> None:
    Path(path).write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")


def load_grouping(path: Path) -> GroupingResult:
    data = json.loads(Path(path).read_text())
    return GroupingResult(
        groups=tuple((g["representative"], tuple(g["members"]))
                     for g in data["groups"]),
        distinct=tuple(data["distinct"]),
        delta=data["delta"],
        tau_dit={int(c): t for c, t in data["tau_dit"].items()},
        strategy=data["strategy"],
    )
