"""Confusion, overlap, severity, and ground-truth metrics over scored windows.

Each metric is a function returning the dict that evaluation.json holds. A
model's entry under "models" has the keys mode ("global" for ae, else
"context": whose verdicts the rest count), windows, confusion (cells gn_cn,
gn_ca, ga_cn, ga_ca of global by context verdict, global_totals,
context_totals, grand_total), truth (per_kind, clean_total, clean_flagged,
flagged_total, false_positive_rate), severity (count, mean, median,
hist_counts, hist_edges), fpr_by_context and loss_by_context (per context:
decoder_key, n, min, p50, p90, p99, max and the tau of the model's verdicts);
"overlap" has sizes and intersections (models, count, pct_of_first,
pct_of_second).

Anomaly identity is the (mmsi, window start timestamp) pair so sets from
different models intersect without shared row indices. Every output is
sorted and timestamp-free, so re-running a pipeline reproduces the report
files byte for byte.
"""

from __future__ import annotations

import numpy as np

from . import dataset
from .errors import NonAnomalyInSet


def confusion(global_verdicts: np.ndarray, context_verdicts: np.ndarray) -> dict:
    """Rows: global-threshold verdict; columns: context-threshold verdict."""
    g = np.asarray(global_verdicts, dtype=bool)
    c = np.asarray(context_verdicts, dtype=bool)
    if g.shape != c.shape:
        raise ValueError("verdict arrays must align")
    gn_cn, gn_ca = int((~g & ~c).sum()), int((~g & c).sum())
    ga_cn, ga_ca = int((g & ~c).sum()), int((g & c).sum())
    return {
        "cells": {"gn_cn": gn_cn, "gn_ca": gn_ca, "ga_cn": ga_cn, "ga_ca": ga_ca},
        "global_totals": [gn_cn + gn_ca, ga_cn + ga_ca],
        "context_totals": [gn_cn + ga_cn, gn_ca + ga_ca],
        "grand_total": gn_cn + gn_ca + ga_cn + ga_ca,
    }


def overlap(sets: dict[str, set]) -> dict:
    """Set sizes and pairwise intersections, also as shares of either set."""
    names = sorted(sets)
    sizes = {name: len(sets[name]) for name in names}
    intersections = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            n = len(sets[a] & sets[b])
            intersections.append({
                "models": [a, b], "count": n,
                "pct_of_first": n / sizes[a] if sizes[a] else None,
                "pct_of_second": n / sizes[b] if sizes[b] else None})
    return {"sizes": sizes, "intersections": intersections}


def severity(scores: np.ndarray, taus: np.ndarray,
             bins: int = 20) -> tuple[dict, np.ndarray]:
    """(score - tau) / tau over anomalous windows: summary and per-window values.

    Without anomalous windows the summary's mean and median are None."""
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
        mean = median = None
    return {"count": int(values.shape[0]), "mean": mean, "median": median,
            "hist_counts": counts.tolist(), "hist_edges": edges.tolist()}, values


# the injected kinds, each scored for recall; "none" marks a clean window
TRUTH_KINDS = tuple(k for k in dataset.TRUTH_KINDS if k != "none")


def truth_metrics(verdicts: np.ndarray, truth_kinds: list[str]) -> dict:
    """Recall and precision per injected kind, and the FPR of clean windows.

    Recall = detected / injected and precision = detected / all flagged, both
    None for a kind never injected; the FPR is None without clean windows."""
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
            "injected": injected, "detected": detected,
            "recall": detected / injected if injected else None,
            "precision": detected / flagged_total if flagged_total and injected
            else None}
    clean = kinds == "none"
    clean_total = int(clean.sum())
    clean_flagged = int((clean & verdicts).sum())
    return {"per_kind": per_kind, "clean_total": clean_total,
            "clean_flagged": clean_flagged, "flagged_total": flagged_total,
            "false_positive_rate": clean_flagged / clean_total if clean_total else None}


def export_distributions(context_id: np.ndarray, decoder_key: np.ndarray,
                         score: np.ndarray, tau: np.ndarray) -> dict[str, dict]:
    """Per context of one model's aligned detection columns: its decoder_key,
    window count n, min, p50, p90, p99 and max loss, and the tau its verdicts
    use (one per context: the global tau for ae)."""
    summary = {}
    for cid in sorted(set(context_id.tolist())):
        sel = context_id == cid
        losses = score[sel]
        p50, p90, p99 = np.quantile(losses, (0.5, 0.9, 0.99)).tolist()
        summary[str(cid)] = {
            "decoder_key": int(decoder_key[sel][0]), "n": int(sel.sum()),
            "min": float(losses.min()), "p50": p50, "p90": p90, "p99": p99,
            "max": float(losses.max()), "tau": float(tau[sel][0])}
    return summary
