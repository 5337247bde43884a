"""Threshold fitting against loop oracles plus the persistence format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxae.detectors import SHARED, Detector
from ctxae.errors import MissingArtifact, MissingThreshold
from ctxae.net import layers as L
from ctxae.net.model import AutoencoderSpec
from ctxae.thresholds import (
    DEFAULT_LAMBDA,
    GLOBAL_ID,
    ThresholdEntry,
    ThresholdTable,
    fit,
    load_table,
    save_table,
)


def test_two_point_example():
    # {0, 2}: mu=1, population sigma=1, tau = 1 + 5*1 = 6
    table = fit({7: np.array([0.0, 2.0])})
    e = table.entries[7]
    assert e.mu == 1.0
    assert e.sigma == 1.0
    assert e.tau == 6.0
    # the pooled global entry sees the same two points here
    assert table.global_tau == 6.0


def test_fit_matches_loop_oracle(rng):
    losses = {c: rng.exponential(1.0, size=rng.integers(5, 40))
              for c in (0, 3, 9)}
    table = fit(losses, lam=5.0)
    pooled = []
    for cid, xs in losses.items():
        pooled.extend(xs)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        e = table.entries[cid]
        assert abs(e.mu - mean) < 1e-9
        assert abs(e.sigma - math.sqrt(var)) < 1e-9
        assert abs(e.tau - (mean + 5.0 * math.sqrt(var))) < 1e-9
    gmean = sum(pooled) / len(pooled)
    gvar = sum((x - gmean) ** 2 for x in pooled) / len(pooled)
    g = table.entries[GLOBAL_ID]
    assert abs(g.tau - (gmean + 5.0 * math.sqrt(gvar))) < 1e-9
    assert g.n == len(pooled)


def _scored_windows(rng):
    """An untrained detector, one window in each of contexts 1..3, its scores."""
    spec = AutoencoderSpec(
        input_shape=(10, 2),
        encoder=(L.conv1d(2, 3, 3), L.relu(), L.dense(24, 4)), latent=4,
        decoder=(L.dense(4, 24, out_shape=(8, 3)), L.relu(),
                 L.conv1d_transpose(3, 2, 3)))
    det = Detector(kind="ae", spec=spec, contexts=(1, 2, 3),
                   encoders={SHARED: spec.build_encoder(rng)},
                   decoders={SHARED: spec.build_decoder(rng)})
    x = rng.normal(size=(3, 10, 2))
    cids = np.array([1, 2, 3])
    return det, x, cids, det.score_mixed(x, cids)


def _table(taus: dict[int, float]) -> ThresholdTable:
    return ThresholdTable(lam=DEFAULT_LAMBDA, fit_split="train", entries={
        c: ThresholdEntry(c, 2, 0.0, 0.0, float(t)) for c, t in taus.items()})


def test_boundary_score_is_normal(rng):
    det, x, cids, scores = _scored_windows(rng)
    # scores: exactly at tau, one ulp above tau, below tau
    det.thresholds = _table({1: scores[0], 2: np.nextafter(scores[1], -np.inf),
                             3: scores[2] * 1.001})
    _, verdicts, _ = det.detect(x, cids)
    assert verdicts.tolist() == [False, True, False]


def test_severity_is_normalized_margin(rng):
    det, x, cids, scores = _scored_windows(rng)
    det.thresholds = _table({1: scores[0] / 1.5, 2: scores[1],
                             3: scores[2] * 2.0})
    _, _, severities = det.detect(x, cids)
    assert severities[0] == pytest.approx(0.5)
    assert severities[1] == 0.0
    assert severities[2] == pytest.approx(-0.5)


def test_single_sample_context_is_flagged_not_fitted():
    table = fit({4: np.array([1.5]), 6: np.array([1.0, 3.0])})
    assert table.flagged == (4,)
    assert table.entries[4].tau is None
    with pytest.raises(MissingThreshold):
        table.tau(4)
    # the flagged context still contributes to the pooled global entry
    assert table.entries[GLOBAL_ID].n == 3


def test_taus_look_up_every_id_at_once():
    table = fit({0: np.array([1.0, 2.0]), 4: np.array([1.5]), 7: np.array([2.0, 5.0])})
    ids = np.array([7, 0, 7, 0])
    assert table.taus(ids).tolist() == [table.entries[c].tau for c in ids.tolist()]
    assert table.taus(ids[:0]).shape == (0,)
    # flagged, never fitted, negative (the global entry is no context) or
    # above every fitted id
    for bad in (4, 5, -1, -3, 8, 99):
        with pytest.raises(MissingThreshold, match=f"context {bad}$"):
            table.taus(np.array([0, bad, 7]))


def test_unknown_context_raises():
    table = fit({1: np.array([1.0, 2.0])})
    with pytest.raises(MissingThreshold):
        table.tau(99)


def test_lambda_zero_threshold_is_the_mean():
    table = fit({2: np.array([1.0, 2.0, 3.0])}, lam=0.0)
    assert table.entries[2].tau == pytest.approx(2.0)


def test_save_load_round_trip(tmp_path, rng):
    losses = {0: rng.exponential(1.0, 20), 5: rng.exponential(2.0, 11),
              12: np.array([0.7])}
    table = fit(losses, lam=5.0, fit_split="train")
    path = tmp_path / "thresholds.csv"
    save_table(path, table)
    loaded = load_table(path)
    assert loaded.lam == table.lam
    assert loaded.fit_split == table.fit_split
    assert set(loaded.entries) == set(table.entries)
    for cid, e in table.entries.items():
        le = loaded.entries[cid]
        assert le.n == e.n
        if e.tau is None:
            assert le.tau is None
        else:
            assert le.tau == e.tau        # repr round-trips float64 exactly
            assert le.mu == e.mu
            assert le.sigma == e.sigma


def test_a_table_without_its_lambda_row_is_refused(tmp_path, rng):
    path = tmp_path / "thresholds.csv"
    save_table(path, fit({0: rng.exponential(1.0, 9)}, lam=5.0, fit_split="train"))
    lines = path.read_text().splitlines(keepends=True)
    assert lines[-1].startswith("# lambda,")
    path.write_text("".join(lines[:-1]))
    # without the row nothing says what lambda and split it was fitted under,
    # not even that they were the defaults
    with pytest.raises(MissingArtifact, match="no '# lambda' row"):
        load_table(path)


@pytest.mark.parametrize("line, row, why", [
    (2, "0,9,0.5", "3 fields where 5 belong"),
    (3, "3,7,0.5,0.1,0.9,extra", "6 fields where 5 belong"),
    (2, "0,nine,0.5,0.1,0.9", "invalid literal for int"),
    (3, "3,7,0.5,wide,0.9", "could not convert string to float"),
    (4, "global,16,0.5,0.1,", None),   # a flagged row is well formed
    (5, "# lambda,five,fit_split,train,", "could not convert string to float"),
    (5, "# lambda,5.0", "2 fields where 5 belong"),
])
def test_a_malformed_row_is_refused_with_its_line(tmp_path, rng, line, row, why):
    path = tmp_path / "thresholds.csv"
    save_table(path, fit({0: rng.exponential(1.0, 9), 3: rng.exponential(1.0, 7)}))
    lines = path.read_text().splitlines()
    lines[line - 1] = row
    path.write_text("\n".join(lines) + "\n")
    if why is None:
        assert load_table(path).entries[GLOBAL_ID].tau is None
        return
    with pytest.raises(MissingArtifact, match=f"line {line} is malformed") as err:
        load_table(path)
    assert str(path) in str(err.value) and why in str(err.value)
    assert "run the thresholds stage again" in str(err.value)


def test_a_truncated_table_is_refused(tmp_path, rng):
    path = tmp_path / "thresholds.csv"
    save_table(path, fit({0: rng.exponential(1.0, 9)}))
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(MissingArtifact, match="line 2 is malformed"):
        load_table(path)


def test_save_is_byte_stable(tmp_path, rng):
    table = fit({0: rng.exponential(1.0, 9), 3: rng.exponential(1.0, 7)})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_table(a, table)
    save_table(b, table)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.splitlines()[0] == "context_id,n,mu,sigma,tau"
    assert "global" in text
    assert "# lambda" in text


def test_default_lambda_is_five():
    assert DEFAULT_LAMBDA == 5.0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=50),
       st.floats(0.0, 10.0))
def test_tau_at_least_mean_and_monotone_in_lambda(losses, lam):
    xs = np.array(losses)
    low = fit({0: xs}, lam=lam).entries[0]
    high = fit({0: xs}, lam=lam + 1.0).entries[0]
    assert low.tau >= low.mu - 1e-9           # sigma is non-negative
    assert high.tau >= low.tau                 # monotone in lambda
    # every training score is within lam sigma for lam large enough
    cover = fit({0: xs}, lam=(xs.shape[0]) ** 0.5 + 1e-6).entries[0]
    assert cover.tau >= xs.max() - 1e-6 * max(1.0, abs(xs.max()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=30))
def test_table_round_trip_property(tmp_path_factory, losses):
    table = fit({0: np.array(losses)})
    path = tmp_path_factory.mktemp("tt") / "t.csv"
    save_table(path, table)
    loaded = load_table(path)
    assert loaded.entries[0].tau == table.entries[0].tau
    assert loaded.entries[GLOBAL_ID].sigma == table.entries[GLOBAL_ID].sigma
