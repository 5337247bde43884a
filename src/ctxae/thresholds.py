"""Per-context anomaly thresholds: tau_c = mu_c + lambda * sigma_c.

Statistics are fitted on reconstruction losses of one split (training by
default), with population sigma. A window is anomalous iff its score is
strictly above tau; a score exactly at tau is normal. Contexts with fewer
than two samples are flagged and get no threshold.

A table looks up the taus of a whole batch of context ids at once: an array
built at construction holds each fitted context's tau, and NaN for every
other id (flagged, never fitted, negative or above every fitted one), which
the lookup refuses with ``MissingThreshold``. The pooled entry is read only
as ``global_tau``; its id is no context.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MissingArtifact, MissingThreshold
from .manifest import csv_bytes, read_once, text, write_file

GLOBAL_ID = -1
DEFAULT_LAMBDA = 5.0
MIN_SAMPLES = 2


@dataclass(frozen=True)
class ThresholdEntry:
    context_id: int
    n: int
    mu: float
    sigma: float
    tau: float | None   # None when the context was flagged as insufficient


@dataclass
class ThresholdTable:
    """Fitted entries by context id, plus the GLOBAL_ID entry. The entries
    are fixed at construction, which builds the array ``taus`` reads."""

    lam: float
    fit_split: str
    entries: dict[int, ThresholdEntry] = field(default_factory=dict)
    # slot c + 1 holds context c's tau (NaN if it has none); both end slots
    # are NaN for every id outside, which take(mode="clip") sends there
    _tau_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = 1 + max((c for c in self.entries if c >= 0), default=-1)
        self._tau_of = np.full(n + 2, np.nan)
        for c, entry in self.entries.items():
            if c >= 0 and entry.tau is not None:
                self._tau_of[c + 1] = entry.tau

    @property
    def flagged(self) -> tuple[int, ...]:
        return tuple(sorted(c for c, e in self.entries.items()
                            if e.tau is None and c != GLOBAL_ID))

    def taus(self, context_ids: np.ndarray) -> np.ndarray:
        """tau of each context id, in one lookup; refuses an id without one."""
        taus = self._tau_of.take(context_ids + 1, mode="clip")
        missing = np.isnan(taus)
        if missing.any():
            raise MissingThreshold(
                f"no threshold fitted for context {context_ids[missing][0]}")
        return taus

    def tau(self, context_id: int) -> float:
        return float(self.taus(np.array([context_id]))[0])

    @property
    def global_tau(self) -> float:
        entry = self.entries.get(GLOBAL_ID)
        if entry is None or entry.tau is None:
            raise MissingThreshold("no global threshold fitted")
        return entry.tau


def _entry(context_id: int, losses: np.ndarray, lam: float) -> ThresholdEntry:
    losses = np.asarray(losses, dtype=np.float64)
    n = int(losses.shape[0])
    if n < MIN_SAMPLES:
        mu = float(losses.mean()) if n else float("nan")
        return ThresholdEntry(context_id, n, mu, float("nan"), None)
    mu = float(losses.mean())
    sigma = float(losses.std())   # population: divide by n
    return ThresholdEntry(context_id, n, mu, sigma, mu + lam * sigma)


def fit(losses_by_context: dict[int, np.ndarray], lam: float = DEFAULT_LAMBDA,
        fit_split: str = "train") -> ThresholdTable:
    """Fit per-context entries plus a global entry over the pooled losses."""
    entries, pooled = {}, []
    for cid in sorted(losses_by_context):
        losses = np.asarray(losses_by_context[cid], dtype=np.float64)
        entries[cid] = _entry(cid, losses, lam)
        pooled.append(losses)
    all_losses = np.concatenate(pooled) if pooled else np.zeros(0)
    entries[GLOBAL_ID] = _entry(GLOBAL_ID, all_losses, lam)
    return ThresholdTable(lam=lam, fit_split=fit_split, entries=entries)


def save_table(path: Path, table: ThresholdTable) -> dict[Path, str]:
    """CSV with one row per context plus a 'global' row, full precision."""
    rows = [["context_id", "n", "mu", "sigma", "tau"]]
    for cid in sorted(c for c in table.entries if c != GLOBAL_ID) + [GLOBAL_ID]:
        e = table.entries[cid]
        rows.append(["global" if cid == GLOBAL_ID else cid, e.n, repr(e.mu),
                     repr(e.sigma), "" if e.tau is None else repr(e.tau)])
    rows.append(["# lambda", repr(table.lam), "fit_split", table.fit_split, ""])
    return {Path(path): write_file(Path(path), [csv_bytes(rows)])}


def load_table(path: Path) -> ThresholdTable:
    """Read a table written by ``save_table``; refuse one without its
    ``# lambda`` row, which alone says what lambda and split it was fitted
    under, and one with a row of the wrong field count or a non-numeric field."""
    rows = list(csv.reader(text(read_once(path))))
    lam = fit_split = None
    entries: dict[int, ThresholdEntry] = {}
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != 5:
                raise ValueError(f"{len(row)} fields where 5 belong")
            if row[0] == "# lambda":
                lam, fit_split = float(row[1]), row[3]
                continue
            cid = GLOBAL_ID if row[0] == "global" else int(row[0])
            entries[cid] = ThresholdEntry(
                context_id=cid, n=int(row[1]), mu=float(row[2]),
                sigma=float(row[3]), tau=float(row[4]) if row[4] else None)
        except ValueError as exc:
            raise MissingArtifact(f"{path} line {line} is malformed ({exc}); "
                                  "run the thresholds stage again") from None
    if lam is None:
        raise MissingArtifact(f"{path} has no '# lambda' row, so the lambda and "
                              "split it was fitted under are unknown; run the "
                              "thresholds stage again")
    return ThresholdTable(lam=lam, fit_split=fit_split, entries=entries)
