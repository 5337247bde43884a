"""Confusion, overlap, severity, and ground-truth metrics over scored windows.

Anomaly identity is the (mmsi, window start timestamp) pair so sets from
different models intersect without shared row indices. All exports are
sorted and timestamp-free, so re-running a pipeline reproduces the report
files byte for byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset
from .errors import NonAnomalyInSet
from .thresholds import ThresholdTable

AnomalyId = tuple[int, int]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows: global-threshold verdict; columns: context-threshold verdict."""

    gn_cn: int
    gn_ca: int
    ga_cn: int
    ga_ca: int

    @classmethod
    def from_verdicts(cls, global_verdicts: np.ndarray,
                      context_verdicts: np.ndarray) -> "ConfusionMatrix":
        g = np.asarray(global_verdicts, dtype=bool)
        c = np.asarray(context_verdicts, dtype=bool)
        if g.shape != c.shape:
            raise ValueError("verdict arrays must align")
        return cls(
            gn_cn=int((~g & ~c).sum()),
            gn_ca=int((~g & c).sum()),
            ga_cn=int((g & ~c).sum()),
            ga_ca=int((g & c).sum()),
        )

    @property
    def global_normal_total(self) -> int:
        return self.gn_cn + self.gn_ca

    @property
    def global_anomaly_total(self) -> int:
        return self.ga_cn + self.ga_ca

    @property
    def context_normal_total(self) -> int:
        return self.gn_cn + self.ga_cn

    @property
    def context_anomaly_total(self) -> int:
        return self.gn_ca + self.ga_ca

    @property
    def grand_total(self) -> int:
        return self.gn_cn + self.gn_ca + self.ga_cn + self.ga_ca

    def to_dict(self) -> dict:
        return {
            "cells": {"gn_cn": self.gn_cn, "gn_ca": self.gn_ca,
                      "ga_cn": self.ga_cn, "ga_ca": self.ga_ca},
            "global_totals": [self.global_normal_total, self.global_anomaly_total],
            "context_totals": [self.context_normal_total, self.context_anomaly_total],
            "grand_total": self.grand_total,
        }


@dataclass
class OverlapReport:
    sizes: dict[str, int]
    intersections: dict[tuple[str, str], int]

    @classmethod
    def from_sets(cls, sets: dict[str, set]) -> "OverlapReport":
        names = sorted(sets)
        sizes = {name: len(sets[name]) for name in names}
        inter = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                inter[(a, b)] = len(sets[a] & sets[b])
        return cls(sizes=sizes, intersections=inter)

    def to_dict(self) -> dict:
        return {
            "sizes": dict(sorted(self.sizes.items())),
            "intersections": [
                {"models": list(pair), "count": n,
                 "pct_of_first": None if self.sizes[pair[0]] == 0
                 else n / self.sizes[pair[0]],
                 "pct_of_second": None if self.sizes[pair[1]] == 0
                 else n / self.sizes[pair[1]]}
                for pair, n in sorted(self.intersections.items())
            ],
        }


@dataclass
class SeverityStats:
    values: np.ndarray
    mean: float
    median: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray

    def to_dict(self) -> dict:
        return {
            "count": int(self.values.shape[0]),
            "mean": self.mean,
            "median": self.median,
            "hist_counts": self.hist_counts.tolist(),
            "hist_edges": self.hist_edges.tolist(),
        }


def severity(scores: np.ndarray, taus: np.ndarray, bins: int = 20) -> SeverityStats:
    """(score - tau) / tau for windows already classified anomalous."""
    scores = np.asarray(scores, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    if np.any(scores <= taus):
        raise NonAnomalyInSet("severity is defined for anomalies only")
    values = (scores - taus) / taus
    if values.size:
        counts, edges = np.histogram(values, bins=bins,
                                     range=(0.0, float(values.max())))
        mean, median = float(values.mean()), float(np.median(values))
    else:
        counts, edges = np.zeros(bins, dtype=int), np.linspace(0, 1, bins + 1)
        mean = median = float("nan")
    return SeverityStats(values=values, mean=mean, median=median,
                         hist_counts=counts, hist_edges=edges)


# the injected kinds, each scored for recall; "none" marks a clean window
TRUTH_KINDS = tuple(k for k in dataset.TRUTH_KINDS if k != "none")


@dataclass
class TruthMetrics:
    per_kind: dict[str, dict]
    clean_total: int
    clean_flagged: int
    flagged_total: int

    @property
    def false_positive_rate(self) -> float | None:
        if self.clean_total == 0:
            return None
        return self.clean_flagged / self.clean_total

    def to_dict(self) -> dict:
        return {
            "per_kind": self.per_kind,
            "clean_total": self.clean_total,
            "clean_flagged": self.clean_flagged,
            "flagged_total": self.flagged_total,
            "false_positive_rate": self.false_positive_rate,
        }


def truth_metrics(verdicts: np.ndarray, truth_kinds: list[str]) -> TruthMetrics:
    """Recall and precision per injected anomaly kind.

    Recall = detected injected / injected; precision = detected injected /
    all flagged windows. Kinds with zero injected report both as None.
    """
    verdicts = np.asarray(verdicts, dtype=bool)
    kinds = np.asarray(truth_kinds)
    if verdicts.shape[0] != kinds.shape[0]:
        raise ValueError("verdicts and truth tags must align")
    flagged_total = int(verdicts.sum())
    per_kind = {}
    for kind in TRUTH_KINDS:
        mask = kinds == kind
        injected = int(mask.sum())
        detected = int((mask & verdicts).sum())
        per_kind[kind] = {
            "injected": injected,
            "detected": detected,
            "recall": detected / injected if injected else None,
            "precision": detected / flagged_total if flagged_total and injected
            else None,
        }
    clean = kinds == "none"
    return TruthMetrics(per_kind=per_kind,
                        clean_total=int(clean.sum()),
                        clean_flagged=int((clean & verdicts).sum()),
                        flagged_total=flagged_total)


def export_distributions(out_dir: Path,
                         scores_by_decoder: dict[int, dict[int, np.ndarray]],
                         table: ThresholdTable,
                         prefix: str = "dist") -> list[Path]:
    """One CSV per decoder: (context_id, loss, tau) rows, plot-ready."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for did in sorted(scores_by_decoder):
        path = out_dir / f"{prefix}_decoder_{did}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["context_id", "loss", "tau"])
            for cid in sorted(scores_by_decoder[did]):
                tau = table.tau(cid)
                for loss in scores_by_decoder[did][cid]:
                    writer.writerow([cid, repr(float(loss)), repr(tau)])
        written.append(path)
    return written
