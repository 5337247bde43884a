"""Confusion, overlap, severity, truth metrics and the per-context loss summary."""

import numpy as np
import pytest

from ctxae.errors import NonAnomalyInSet
from ctxae.evaluation import (confusion, export_distributions, overlap, severity,
                              truth_metrics)
from ctxae.manifest import json_bytes
from ctxae.thresholds import fit


def test_confusion_cells_and_totals():
    g = np.array([0, 0, 0, 1, 1, 0, 1], dtype=bool)
    c = np.array([0, 1, 1, 0, 1, 0, 1], dtype=bool)
    d = confusion(g, c)
    assert d["cells"] == {"gn_cn": 2, "gn_ca": 2, "ga_cn": 1, "ga_ca": 2}
    assert d["global_totals"] == [4, 3]
    assert d["context_totals"] == [3, 4]
    assert d["grand_total"] == 7


def test_confusion_refuses_misaligned_verdicts():
    with pytest.raises(ValueError, match="align"):
        confusion(np.zeros(3, bool), np.zeros(4, bool))


def test_overlap_counts_pairwise_intersections():
    d = overlap({"cae": {(1, 0), (1, 50), (2, 0)},
                 "ae": {(1, 0), (3, 0)},
                 "moe": set()})
    assert d["sizes"] == {"ae": 2, "cae": 3, "moe": 0}
    by_pair = {tuple(e["models"]): e for e in d["intersections"]}
    assert list(by_pair) == [("ae", "cae"), ("ae", "moe"), ("cae", "moe")]
    assert by_pair[("ae", "cae")]["count"] == 1
    assert by_pair[("ae", "cae")]["pct_of_first"] == 0.5
    assert by_pair[("ae", "cae")]["pct_of_second"] == pytest.approx(1 / 3)
    # an empty set has no percentage of itself, and shares nothing
    assert by_pair[("ae", "moe")] == {"models": ["ae", "moe"], "count": 0,
                                      "pct_of_first": 0.0, "pct_of_second": None}


def test_severity_is_relative_margin_of_anomalies():
    stats, values = severity(np.array([3.0, 4.0, 9.0]), np.array([2.0, 2.0, 3.0]),
                             bins=4)
    np.testing.assert_allclose(values, [0.5, 1.0, 2.0])
    assert stats["mean"] == pytest.approx(7 / 6)
    assert stats["median"] == 1.0
    assert stats["hist_counts"] == [0, 1, 1, 1]
    np.testing.assert_allclose(stats["hist_edges"], [0.0, 0.5, 1.0, 1.5, 2.0])
    assert stats["count"] == 3


def test_severity_refuses_a_score_at_or_below_tau():
    with pytest.raises(NonAnomalyInSet):
        severity(np.array([3.0, 2.0]), np.array([2.0, 2.0]))
    with pytest.raises(NonAnomalyInSet):
        severity(np.array([1.0]), np.array([2.0]))


def test_severity_of_no_anomalies():
    stats, values = severity(np.zeros(0), np.zeros(0), bins=5)
    assert stats["count"] == 0 and values.shape == (0,)
    assert stats["mean"] is None and stats["median"] is None
    assert stats["hist_counts"] == [0] * 5


def test_truth_metrics_recall_precision_and_fpr():
    verdicts = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
    kinds = ["contextual", "contextual", "collective", "none", "none", "none"]
    m = truth_metrics(verdicts, kinds)
    assert m["per_kind"]["contextual"] == {"injected": 2, "detected": 1,
                                           "recall": 0.5, "precision": 0.25}
    assert m["per_kind"]["collective"]["recall"] == 1.0
    # a kind with no injections reports neither recall nor precision
    assert m["per_kind"]["point"] == {"injected": 0, "detected": 0,
                                      "recall": None, "precision": None}
    assert (m["clean_total"], m["clean_flagged"], m["flagged_total"]) == (3, 2, 4)
    assert m["false_positive_rate"] == pytest.approx(2 / 3)
    assert truth_metrics(np.zeros(0, bool), [])["false_positive_rate"] is None
    with pytest.raises(ValueError):
        truth_metrics(verdicts, kinds[:-1])


def test_export_distributions_is_byte_stable():
    table = fit({0: np.array([0.1, 0.3]), 5: np.array([0.2, 0.4, 0.9])})
    context_id = np.array([5, 0, 5, 0, 5, 5])
    decoder_key = np.where(context_id == 5, 5, 0)
    score = np.array([0.25, 0.1, 1.5, 0.3, 0.2, 0.7])
    tau_context = np.array([table.tau(int(c)) for c in context_id])
    tau_global = np.full(context_id.shape, table.global_tau)

    ae = export_distributions(context_id, np.zeros_like(context_id), score, tau_global)
    cae = export_distributions(context_id, decoder_key, score, tau_context)
    assert sorted(ae) == sorted(cae) == ["0", "5"]
    for cid in (0, 5):
        losses = score[context_id == cid]
        p50, p90, p99 = (float(np.quantile(losses, q)) for q in (0.5, 0.9, 0.99))
        assert cae[str(cid)] == {"decoder_key": cid, "n": losses.size,
                                 "min": losses.min(), "p50": p50, "p90": p90,
                                 "p99": p99, "max": losses.max(), "tau": table.tau(cid)}
        assert ae[str(cid)] == {**cae[str(cid)], "decoder_key": 0, "tau": table.global_tau}
    assert table.tau(0) != table.global_tau != table.tau(5)

    order = np.array([3, 0, 5, 1, 4, 2])
    shuffled = export_distributions(context_id[order], decoder_key[order], score[order],
                                    tau_context[order])
    assert json_bytes(shuffled) == json_bytes(cae)
