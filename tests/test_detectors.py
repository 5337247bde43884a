"""Detector variants: parameter identities, routing, thresholds, persistence."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxae import detectors
from ctxae import thresholds as th
from ctxae.dataset import NO_CONTEXT, TRUTH_DTYPE, DatasetSplit, WindowTable, concat
from ctxae.detectors import (KINDS, SHARED, Detector, fit_detector_thresholds,
                             load_detector, save_detector, train_ae,
                             train_cae, train_gcae, train_moe)
from ctxae.errors import (EmptyValidationSet, IncompleteGrouping, MissingArtifact,
                          MissingThreshold, ShapeMismatch, UnroutedContext)
from ctxae.grouping import cross_loss_matrix
from ctxae.net import (TrainConfig, TrainReport, default_autoencoder_spec,
                       fold_for_scoring, score_windows)
from ctxae.net import layers as L
from ctxae.net import training
from ctxae.net.model import AutoencoderSpec, Sequential

DESK = default_autoencoder_spec()
E = DESK.build_encoder(np.random.default_rng(0)).param_count()
D = DESK.build_decoder(np.random.default_rng(0)).param_count()


def _toy_spec(window_len=10, channels=2, latent=4) -> AutoencoderSpec:
    flat = (window_len - 2) * 3
    return AutoencoderSpec(
        input_shape=(window_len, channels),
        encoder=(L.conv1d(channels, 3, 3), L.relu(), L.dense(flat, latent)),
        latent=latent,
        decoder=(L.dense(latent, flat, out_shape=(window_len - 2, 3)),
                 L.relu(), L.conv1d_transpose(3, channels, 3)),
    )


def _signal(rng, context_id, n, window_len=10, channels=2):
    # separable per-context shapes so routing errors show up in the losses
    t = np.linspace(0, 2 * np.pi, window_len)
    freq = 1.0 + context_id
    phase = rng.uniform(0, 2 * np.pi, size=(n, 1, 1))
    base = np.sin(freq * t[None, :, None] + phase)
    return np.concatenate([base] * channels, axis=2) + rng.normal(
        0, 0.05, size=(n, window_len, channels))


def _windows(rng, context_id, n, start_mmsi) -> WindowTable:
    return WindowTable(tensor=_signal(rng, context_id, n),
                       context_id=np.full(n, context_id), mmsi=start_mmsi + np.arange(n),
                       start_ts=1_000 * np.arange(n),
                       truth=np.full(n, "none", dtype=TRUTH_DTYPE),
                       true_context=np.full(n, NO_CONTEXT), weight=np.ones(n))


def _split(rng, contexts=(0, 1), n_train=16, n_val=6, n_test=6) -> DatasetSplit:
    parts = {name: concat([_windows(rng, cid, n, base + 100 * j)
                           for j, cid in enumerate(contexts)])
             for name, n, base in (("train", n_train, 10_000), ("val", n_val, 20_000),
                                   ("test", n_test, 30_000))}
    return DatasetSplit(**parts)


def _fast_config(seed=0, epochs=3) -> TrainConfig:
    return TrainConfig(seed=seed, max_epochs=epochs, patience=max(1, epochs - 1),
                       batch_size=8)


def _untrained(kind, spec, contexts, grouping=None) -> Detector:
    """Assemble a detector without training; parameter counts only."""
    rng = np.random.default_rng(0)
    if kind == "ae":
        encoders = {SHARED: spec.build_encoder(rng)}
        decoders = {SHARED: spec.build_decoder(rng)}
    elif kind == "moe":
        encoders = {c: spec.build_encoder(rng) for c in contexts}
        decoders = {c: spec.build_decoder(rng) for c in contexts}
    elif kind == "cae":
        encoders = {SHARED: spec.build_encoder(rng)}
        decoders = {c: spec.build_decoder(rng) for c in contexts}
    else:
        encoders = {SHARED: spec.build_encoder(rng)}
        decoders = {k: spec.build_decoder(rng) for k in sorted(set(grouping.values()))}
    return Detector(kind=kind, spec=spec, contexts=tuple(contexts),
                    encoders=encoders, decoders=decoders, grouping=grouping)


# --- parameter identities ----------------------------------------------------------

def test_desk_spec_component_counts():
    assert E == 28_539
    assert D == 28_662


@pytest.mark.parametrize("n_contexts", [2, 5, 26])
def test_moe_exceeds_cae_by_one_encoder_per_extra_context(n_contexts):
    contexts = tuple(range(n_contexts))
    moe = _untrained("moe", DESK, contexts)
    cae = _untrained("cae", DESK, contexts)
    assert moe.param_count() - cae.param_count() == (n_contexts - 1) * E


def test_desk_variant_param_counts():
    contexts = (0, 5, 12, 16, 21)
    assert _untrained("ae", DESK, contexts).param_count() == E + D
    assert _untrained("moe", DESK, contexts).param_count() == 5 * (E + D)
    assert _untrained("cae", DESK, contexts).param_count() == E + 5 * D


@pytest.mark.parametrize("grouping", [
    {0: 0, 1: 0, 2: 2, 3: 3, 4: 4},          # one pair merged
    {0: 0, 1: 0, 2: 0, 3: 3, 4: 4},          # one triple
    {0: 0, 1: 0, 2: 2, 3: 2, 4: 4},          # two pairs
    {0: 0, 1: 0, 2: 0, 3: 0, 4: 0},          # everything in one group
])
def test_gcae_saves_params_whenever_a_group_merges(grouping):
    contexts = tuple(grouping)
    cae = _untrained("cae", DESK, contexts)
    gcae = _untrained("gcae", DESK, contexts, grouping=grouping)
    assert gcae.param_count() < cae.param_count()
    n_groups = len(set(grouping.values()))
    assert cae.param_count() - gcae.param_count() == (len(contexts) - n_groups) * D


def test_identity_grouping_costs_the_same_as_cae():
    contexts = (0, 1, 2)
    grouping = {c: c for c in contexts}
    cae = _untrained("cae", DESK, contexts)
    gcae = _untrained("gcae", DESK, contexts, grouping=grouping)
    assert gcae.param_count() == cae.param_count()


def test_single_group_gcae_matches_ae_size():
    contexts = (0, 1, 2, 3)
    gcae = _untrained("gcae", DESK, contexts, grouping={c: 0 for c in contexts})
    ae = _untrained("ae", DESK, contexts)
    assert gcae.param_count() == ae.param_count()


# --- routing -----------------------------------------------------------------------

def test_moe_trains_one_branch_per_context(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_moe(split, _toy_spec(), _fast_config())
    assert set(det.encoders) == {0, 1}
    assert set(det.decoders) == {0, 1}
    for cid in (0, 1):
        assert det.route(cid) == (cid, cid)
        # each branch saw exactly its own training windows every epoch
        report = det.reports[f"c{cid}"]
        n_c = sum(1 for w in split.train if w.context_id == cid)
        assert report.samples_seen == {0: n_c * report.stopped_epoch}


def test_cae_shares_encoder_and_routes_decoders_exclusively(rng):
    split = _split(rng, contexts=(0, 1, 2))
    det = train_cae(split, _toy_spec(), _fast_config())
    assert set(det.encoders) == {SHARED}
    assert set(det.decoders) == {0, 1, 2}
    report = det.reports["cae"]
    for cid in (0, 1, 2):
        n_c = sum(1 for w in split.train if w.context_id == cid)
        assert report.samples_seen[cid] == n_c * report.stopped_epoch
    assert set(report.samples_seen) == {0, 1, 2}


def test_gcae_routes_members_to_their_group_decoder(rng):
    split = _split(rng, contexts=(0, 1, 2))
    grouping = {0: 0, 1: 0, 2: 2}
    det = train_gcae(split, _toy_spec(), _fast_config(), grouping)
    assert set(det.decoders) == {0, 2}
    assert [det.route(c) for c in (0, 1, 2)] == [(SHARED, 0), (SHARED, 0), (SHARED, 2)]
    report = det.reports["gcae"]
    n_pair = sum(1 for w in split.train if w.context_id in (0, 1))
    assert report.samples_seen[0] == n_pair * report.stopped_epoch


def test_shared_training_cuts_each_key_from_the_split_in_context_order(rng, monkeypatch):
    split = _split(rng, contexts=(12, 0, 5), n_train=9, n_val=4)
    # rows not sorted by context, and weights that tell rows apart
    split = DatasetSplit(**{name: t.take(rng.permutation(len(t)))
                            for name, t in (("train", split.train), ("val", split.val),
                                            ("test", split.test))})
    split.train.weight = rng.uniform(0.5, 2.0, len(split.train))
    seen = {}

    def capture(enc, decoders, train_by_key, val_by_key, config, weights_by_key):
        seen.update(train=train_by_key, val=val_by_key, weights=weights_by_key)
        return TrainReport()

    monkeypatch.setattr(detectors, "train_multi_decoder", capture)
    train_gcae(split, _toy_spec(), _fast_config(), {0: 0, 5: 0, 12: 12})
    # the oracle: context-sorted copies of both tables, then a mask per key
    train, val = (t.take(np.argsort(t.context_id, kind="stable"))
                  for t in (split.train, split.val))
    for key, members in ((0, [0, 5]), (12, [12])):
        rows = np.isin(train.context_id, members)
        expected = {"train": train.tensor[rows], "weights": train.weight[rows],
                    "val": val.tensor[np.isin(val.context_id, members)]}
        for name, want in expected.items():
            got = seen[name][key]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert sorted(seen["train"]) == [0, 12]
    assert seen["train"][0].shape[0] == 18 and seen["val"][0].shape[0] == 8


def test_score_matches_direct_forward_pass(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_cae(split, _toy_spec(), _fast_config())
    x = split.test.tensor[split.test.context_id == 1]
    enc, dec = det.encoders[SHARED], det.decoders[1]
    direct, = score_windows(enc, x, [(dec, 0, len(x))])
    np.testing.assert_allclose(det.score_mixed(x, np.full(len(x), 1)), direct)


def test_score_mixed_dispatches_by_context(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_moe(split, _toy_spec(), _fast_config())
    x = split.test.tensor
    cids = split.test.context_id
    mixed = det.score_mixed(x, cids)
    for cid in (0, 1):
        mask = cids == cid
        np.testing.assert_allclose(mixed[mask], det.score_mixed(x[mask], cids[mask]))


def test_unknown_context_is_refused_by_context_aware_kinds(rng):
    split = _split(rng, contexts=(0, 1))
    x = split.test.tensor[:2]
    for trainer in (train_moe, train_cae):
        det = trainer(split, _toy_spec(), _fast_config())
        with pytest.raises(UnroutedContext):
            det.score_mixed(x, np.full(2, 9))
    gcae = train_gcae(split, _toy_spec(), _fast_config(), {0: 0, 1: 0})
    with pytest.raises(UnroutedContext):
        gcae.score_mixed(x, np.full(2, 9))
    # the global model has no notion of context and takes anything
    ae = train_ae(split, _toy_spec(), _fast_config())
    assert ae.score_mixed(x, np.full(2, 9)).shape == (2,)


def test_gcae_requires_a_group_for_every_context(rng):
    split = _split(rng, contexts=(0, 1, 2))
    with pytest.raises(IncompleteGrouping, match=r"\[2\]"):
        train_gcae(split, _toy_spec(), _fast_config(), {0: 0, 1: 0})


def test_moe_refuses_contexts_without_validation_windows(rng):
    split = _split(rng, contexts=(0, 1))
    split.val = split.val.take(split.val.context_id != 1)
    with pytest.raises(EmptyValidationSet, match="context 1"):
        train_moe(split, _toy_spec(), _fast_config())


# --- the pass plan -----------------------------------------------------------------

GROUPED = {0: 0, 1: 0, 2: 2}     # gcae: 0 and 1 share decoder 0


def _plan_detector(kind):
    return _untrained(kind, _toy_spec(), (0, 1, 2),
                      grouping=GROUPED if kind == "gcae" else None)


def _mixed_batch(rng, kind):
    """Shuffled rows of every context: context 2 has a single row, and ae
    also gets a context it never trained on."""
    cids = np.array([0] * 5 + [1] * 4 + [2] + ([7] * 3 if kind == "ae" else []))
    cids = rng.permutation(cids)
    return _signal(rng, 0, cids.shape[0]), cids


def _per_context_reference(det, x, cids):
    out = np.empty(x.shape[0])
    for cid in np.unique(cids):
        mask = cids == cid
        enc_key, dec_key = det.route(int(cid))
        enc, dec = det.encoders[enc_key], det.decoders[dec_key]
        out[mask], = score_windows(enc, x[mask], [(dec, 0, int(mask.sum()))])
    return out


@pytest.mark.parametrize("batch_size", [512, 3])
@pytest.mark.parametrize("kind", ["ae", "moe", "cae", "gcae"])
def test_score_mixed_equals_per_context_scoring(rng, monkeypatch, kind, batch_size):
    monkeypatch.setattr(training, "SCORE_BATCH", batch_size)
    det = _plan_detector(kind)
    x, cids = _mixed_batch(rng, kind)
    np.testing.assert_allclose(det.score_mixed(x, cids),
                               _per_context_reference(det, x, cids),
                               rtol=1e-12, atol=0.0)
    for cid in np.unique(cids):
        np.testing.assert_allclose(det.score_mixed(x[cids == cid], cids[cids == cid]),
                                   _per_context_reference(det, x[cids == cid],
                                                          cids[cids == cid]),
                                   rtol=1e-12, atol=0.0)
    assert det.score_mixed(x[:0], cids[:0]).shape == (0,)


def _count_passes(monkeypatch, det):
    """Rows per forward pass of the scoring models, keyed by ('enc' | 'dec', key)."""
    names = {id(m): ("enc", k) for k, m in det.scoring_encoders.items()}
    names.update({id(m): ("dec", k) for k, m in det.scoring_decoders.items()})
    passes: dict[tuple[str, int], list[int]] = {}
    forward = Sequential.forward

    def counting(model, x, training=False):
        passes.setdefault(names[id(model)], []).append(x.shape[0])
        return forward(model, x, training)
    monkeypatch.setattr(Sequential, "forward", counting)
    return passes


@pytest.mark.parametrize("kind, expected", [
    ("ae", {("enc", SHARED): [10], ("dec", SHARED): [10]}),
    # decoder 2 has no row in the batch and does not run
    ("cae", {("enc", SHARED): [10], ("dec", 0): [6], ("dec", 1): [4]}),
    # the grouped contexts 0 and 1 share one decoder call
    ("gcae", {("enc", SHARED): [10], ("dec", 0): [10]}),
    ("moe", {("enc", 0): [6], ("dec", 0): [6], ("enc", 1): [4], ("dec", 1): [4]}),
])
def test_score_mixed_runs_each_model_once(rng, monkeypatch, kind, expected):
    det = _plan_detector(kind)
    cids = rng.permutation(np.array([0] * 6 + [1] * 4))
    passes = _count_passes(monkeypatch, det)
    det.score_mixed(_signal(rng, 0, 10), cids)
    assert passes == expected


def test_score_mixed_chunks_each_encoder_pass(rng, monkeypatch):
    det = _plan_detector("gcae")
    cids = np.array([2, 0, 1, 0, 2, 1, 0])
    monkeypatch.setattr(training, "SCORE_BATCH", 3)
    passes = _count_passes(monkeypatch, det)
    det.score_mixed(_signal(rng, 0, 7), cids)
    # rows ordered by decoder key: five for key 0, then two for key 2
    assert passes == {("enc", SHARED): [3, 3, 1], ("dec", 0): [3, 2], ("dec", 2): [1, 1]}


@pytest.mark.parametrize("kind", ["moe", "cae", "gcae"])
def test_unrouted_context_is_refused_by_the_plan(rng, kind):
    det = _plan_detector(kind)
    x, cids = _signal(rng, 0, 4), np.array([0, 9, 1, 0])
    with pytest.raises(UnroutedContext, match="context 9"):
        det.score_mixed(x, cids)
    # thresholds that know context 9 leave the routing to refuse it
    det.thresholds = th.fit({0: np.ones(3), 1: np.ones(3), 9: np.ones(3)})
    for mode in ("context", "global"):
        with pytest.raises(UnroutedContext, match="context 9"):
            det.detect(x, cids, mode=mode)


def test_a_batch_and_ids_of_other_lengths_are_refused(rng, monkeypatch):
    det = _plan_detector("cae")
    det.thresholds = th.fit({c: np.arange(3.0) for c in (0, 1, 2)})
    x = _signal(rng, 0, 10)
    passes = _count_passes(monkeypatch, det)
    for n_ids in (8, 12):
        cids = rng.choice((0, 1, 2), n_ids)
        for call in (det.score_mixed, det.detect,
                     lambda x, cids: det.detect(x, cids, mode="global")):
            with pytest.raises(ShapeMismatch, match=f"10 windows but {n_ids} context ids"):
                call(x, cids)
    assert passes == {}


# --- the context table: one route and one tau per context id ------------------------

TRAINED = (0, 2, 5)
# 3 lies inside the routing table, -1 and -4 below it, 9 above it
UNTRAINED = (3, -1, -4, 9)
TABLE_DETECTORS = {kind: _untrained(kind, _toy_spec(), TRAINED,
                                    grouping={0: 0, 2: 0, 5: 5} if kind == "gcae" else None)
                   for kind in KINDS}


def _pair(det, cid):
    """The routing rule, read off the detector's dicts."""
    enc = cid if cid in det.encoders else SHARED
    dec = (det.grouping or {}).get(cid, cid)
    return enc, dec if dec in det.decoders else SHARED


def _pair_reference(det, x, cids):
    """Rows stably sorted by their (encoder, decoder) pair, in sorted pair
    order; each encoder key's rows go through one score_windows call with
    one span per pair, so every GEMM has the plan's row count."""
    pairs = [_pair(det, c) for c in cids.tolist()]
    out = np.empty(len(pairs))
    for enc_key in sorted({enc for enc, _ in pairs}):
        rows, spans = [], []
        for pair in sorted({p for p in pairs if p[0] == enc_key}):
            mine = [i for i, p in enumerate(pairs) if p == pair]
            spans.append((det.scoring_decoders[pair[1]], len(rows), len(rows) + len(mine)))
            rows += mine
        out[rows] = np.concatenate(score_windows(det.scoring_encoders[enc_key],
                                                 x[rows], spans))
    return out


def _mix(data, untrained=UNTRAINED):
    """A shuffled batch of trained ids, with up to two others; may be empty."""
    ids = data.draw(st.lists(st.sampled_from(TRAINED), max_size=12))
    ids += data.draw(st.lists(st.sampled_from(untrained), max_size=2))
    return np.array(data.draw(st.permutations(ids)), dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_the_context_table_scores_like_the_sorted_pair_reference(kind, data):
    det = TABLE_DETECTORS[kind]
    cids = _mix(data)
    x = _signal(np.random.default_rng(data.draw(st.integers(0, 2**16))), 0, len(cids))
    unrouted = [c for c in cids.tolist() if c not in TRAINED] if kind != "ae" else []
    if unrouted:
        for call in (det.score_mixed, lambda x, cids: det.decoder_keys(cids)):
            with pytest.raises(UnroutedContext, match=f"context {unrouted[0]} "):
                call(x, cids)
        return
    assert det.score_mixed(x, cids).tobytes() == _pair_reference(det, x, cids).tobytes()
    assert det.decoder_keys(cids).tolist() == [_pair(det, c)[1] for c in cids.tolist()]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_detect_applies_the_tau_of_each_windows_context(kind, data):
    # context 5 has a single fitted loss, so it is flagged without a tau
    det = replace(TABLE_DETECTORS[kind], thresholds=th.fit(
        {0: np.arange(3.0), 2: np.arange(4.0) ** 2, 5: np.ones(1)}))
    cids = _mix(data, untrained=UNTRAINED + (5,))
    x = _signal(np.random.default_rng(data.draw(st.integers(0, 2**16))), 0, len(cids))
    missing = [c for c in cids.tolist() if c not in (0, 2)]
    if missing:
        with pytest.raises(MissingThreshold, match=f"context {missing[0]}$"):
            det.detect(x, cids)
        return
    taus = np.array([det.thresholds.entries[c].tau for c in cids.tolist()], dtype=float)
    assert det.thresholds.taus(cids).tobytes() == taus.tobytes()
    scores, verdicts, severities = det.detect(x, cids)
    np.testing.assert_array_equal(verdicts, scores > taus)
    assert severities.tobytes() == ((scores - taus) / taus).tobytes()


# --- the scoring fold ---------------------------------------------------------------

def _hard_state(det, seed=5):
    """Give every stored model random float64 state (not float32-representable),
    with negative batch-norm gammas and near-zero running variances, and
    return a new Detector over those models, whose fold is built from it."""
    rng = np.random.default_rng(seed)
    for model in (*det.encoders.values(), *det.decoders.values()):
        for layer in model.layers:
            for a in layer.state():
                a[...] = rng.normal(0.0, 0.5, a.shape)
            if isinstance(layer, L.BatchNorm):
                layer.running_var[...] = rng.uniform(0.5, 2.0, layer.channels)
                layer.running_var[::3] = 1e-9
                layer.gamma[::2] = -np.abs(layer.gamma[::2])
    return replace(det)


def _desk_detector(kind, seed=5):
    return _hard_state(_untrained(kind, DESK, (0, 1, 2),
                                  grouping=GROUPED if kind == "gcae" else None), seed)


def _desk_batch(rng, kind):
    cids = np.array([0] * 7 + [1] * 5 + [2] * 2 + ([7] * 3 if kind == "ae" else []))
    cids = rng.permutation(cids)
    return rng.normal(size=(cids.shape[0], 50, 6)), cids


@pytest.mark.parametrize("kind", ["ae", "moe", "cae", "gcae"])
def test_folded_scores_match_the_layer_by_layer_forward(rng, kind):
    det = _desk_detector(kind)
    for stored, scoring in ((det.encoders, det.scoring_encoders),
                            (det.decoders, det.scoring_decoders)):
        assert scoring.keys() == stored.keys()
        for key, model in stored.items():
            kinds = [layer.spec.kind for layer in model.layers]
            assert "batchnorm" in kinds
            assert ([layer.spec.kind for layer in scoring[key].layers]
                    == [k for k in kinds if k not in ("batchnorm", "upsample")])
    x, cids = _desk_batch(rng, kind)
    np.testing.assert_allclose(det.score_mixed(x, cids),
                               _per_context_reference(det, x, cids),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["moe", "gcae"])
def test_a_detector_scored_before_saving_scores_like_its_saved_copy(tmp_path, rng, kind):
    x, cids = _desk_batch(rng, kind)
    scored = _desk_detector(kind)
    before = scored.score_mixed(x, cids)
    save_detector(tmp_path / "scored", scored)
    save_detector(tmp_path / "unscored", _desk_detector(kind))
    np.testing.assert_array_equal(load_detector(tmp_path / "scored").score_mixed(x, cids),
                                  before)
    np.testing.assert_array_equal(scored.score_mixed(x, cids), before)
    # the bundle's bytes do not depend on whether scoring ran first
    files = sorted(p.name for p in (tmp_path / "scored").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "unscored").iterdir())
    for name in files:
        assert ((tmp_path / "scored" / name).read_bytes()
                == (tmp_path / "unscored" / name).read_bytes()), name


def _wrap_forwards(det):
    """Give each stored layer an instance-level forward that closes over its
    original bound method, as a tracing wrapper does."""
    for model in (*det.encoders.values(), *det.decoders.values()):
        for layer in model.layers:
            def forward(x, training, _orig=layer.forward):
                return _orig(x, training)
            layer.forward = forward
    return det


@pytest.mark.parametrize("kind", ["ae", "moe", "cae", "gcae"])
def test_the_fold_ignores_wrappers_on_the_stored_layers(rng, kind):
    x, cids = _desk_batch(rng, kind)
    plain = _desk_detector(kind)
    # the wrappers are in place before the wrapped detector builds its fold
    wrapped = replace(_wrap_forwards(_desk_detector(kind)))
    np.testing.assert_array_equal(wrapped.score_mixed(x, cids), plain.score_mixed(x, cids))


def test_the_cross_loss_matrix_runs_the_scoring_fold(rng):
    det = _desk_detector("cae")
    val = {c: rng.normal(size=(n, 50, 6)) for c, n in ((0, 7), (1, 5), (2, 3))}
    matrix = cross_loss_matrix(det, val)
    for c, x in val.items():
        # the same GEMMs on the same rows: equal bits, not just close
        i = matrix.index(c)
        assert matrix.values[i, i] == det.score_mixed(x, np.full(len(x), c)).mean()
    # the layer-by-layer path of the stored models lands a few ULPs away
    enc = det.encoders[SHARED]
    stored = [score_windows(enc, x, [(det.decoders[c], 0, len(x))])[0].mean()
              for c, x in val.items()]
    np.testing.assert_allclose(matrix.diagonal, stored, rtol=1e-12)


# --- building without random draws ------------------------------------------------

def _no_generators(monkeypatch):
    """Make every new Generator an error: whatever runs next draws nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was made")
    monkeypatch.setattr(np.random, "default_rng", refuse)


@pytest.mark.parametrize("kind", ["ae", "moe", "cae", "gcae"])
def test_loading_and_folding_draw_no_random_numbers(tmp_path, monkeypatch, kind):
    save_detector(tmp_path, _desk_detector(kind))
    _no_generators(monkeypatch)
    with pytest.raises(AssertionError, match="random generator"):
        DESK.build_encoder(np.random.default_rng(0))
    # load_detector folds every model for scoring and rebuilds the spec
    loaded = load_detector(tmp_path)
    for model in (*loaded.encoders.values(), *loaded.decoders.values()):
        fold_for_scoring(model)
    assert AutoencoderSpec.from_dict(DESK.to_dict()) == DESK
    assert default_autoencoder_spec() == DESK


@pytest.mark.parametrize("kind", ["ae", "moe", "cae", "gcae"])
def test_each_fold_convolution_is_a_new_layer_sharing_no_memory(kind):
    """The fold's convolutions are new instances with arrays of their own and
    none of the instance-level methods set on the stored layers; its other
    layers are the stored instances themselves."""
    det = replace(_wrap_forwards(_desk_detector(kind)))
    for stored, scoring in ((det.encoders, det.scoring_encoders),
                            (det.decoders, det.scoring_decoders)):
        for key, model in stored.items():
            stored_arrays = [a for layer in model.layers
                             for a in (*layer.state(), *layer.grads())]
            convs = [layer for layer in scoring[key].layers if isinstance(layer, L.Conv)]
            assert convs
            for conv in convs:
                assert not any(conv is layer for layer in model.layers)
                assert "forward" not in vars(conv) and "backward" not in vars(conv)
                for a in (conv.w, conv.b, conv.dw, conv.db):
                    assert not any(np.shares_memory(a, s) for s in stored_arrays)


@pytest.mark.parametrize("kind", ["moe", "gcae"])
def test_a_bundle_loads_as_it_did_with_random_initial_state(tmp_path, rng, kind):
    """Loading once built each model from seeded random weights and then
    overwrote every array; zero initial state gives the same models and the
    same scores, bit for bit."""
    save_detector(tmp_path, _desk_detector(kind))
    loaded = load_detector(tmp_path)

    def seeded_copy(model):
        again = Sequential.build([layer.spec for layer in model.layers],
                                 np.random.default_rng(0))
        again.restore(model.state())
        return again
    seeded = replace(loaded,
                     encoders={k: seeded_copy(m) for k, m in loaded.encoders.items()},
                     decoders={k: seeded_copy(m) for k, m in loaded.decoders.items()})
    x, cids = _desk_batch(rng, kind)
    assert seeded.score_mixed(x, cids).tobytes() == loaded.score_mixed(x, cids).tobytes()


# --- thresholds and verdicts -------------------------------------------------------

def test_fitted_thresholds_match_manual_mean_plus_five_sigma(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_cae(split, _toy_spec(), _fast_config())
    table = fit_detector_thresholds(det, split, fit_split="train")
    assert det.thresholds is table
    cids = split.train.context_id
    scores = det.score_mixed(split.train.tensor, cids)
    for cid in (0, 1):
        s = scores[cids == cid]
        expect = s.mean() + 5.0 * s.std()
        assert table.tau(cid) == pytest.approx(expect, abs=1e-12)
    assert table.global_tau == pytest.approx(
        scores.mean() + 5.0 * scores.std(), abs=1e-12)


def test_detect_applies_context_and_global_taus(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_cae(split, _toy_spec(), _fast_config())
    fit_detector_thresholds(det, split)
    x = split.test.tensor
    cids = split.test.context_id

    scores, verdicts, sev = det.detect(x, cids, mode="context")
    taus = np.array([det.thresholds.tau(int(c)) for c in cids])
    np.testing.assert_array_equal(verdicts, scores > taus)
    np.testing.assert_allclose(sev, (scores - taus) / taus)

    g_scores, g_verdicts, g_sev = det.detect(x, cids, mode="global")
    g_tau = det.thresholds.global_tau
    np.testing.assert_array_equal(g_verdicts, g_scores > g_tau)
    np.testing.assert_allclose(g_sev, (g_scores - g_tau) / g_tau)
    np.testing.assert_allclose(g_scores, scores)


def test_detect_without_thresholds_or_with_bad_mode(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_cae(split, _toy_spec(), _fast_config())
    x = split.test.tensor[:3]
    cids = split.test.context_id[:3]
    with pytest.raises(MissingArtifact):
        det.detect(x, cids)
    fit_detector_thresholds(det, split)
    with pytest.raises(ValueError, match="mode"):
        det.detect(x, cids, mode="both")


def test_detect_checks_mode_and_taus_before_scoring(rng, monkeypatch):
    det = _plan_detector("cae")
    x, cids = _signal(rng, 0, 4), np.array([0, 1, 2, 1])
    # context 2 has a single fitted loss, so it is flagged without a tau
    det.thresholds = th.fit({0: np.ones(3), 1: np.ones(3), 2: np.ones(1)})
    passes = _count_passes(monkeypatch, det)
    with pytest.raises(ValueError, match="mode"):
        det.detect(x, cids, mode="both")
    with pytest.raises(MissingThreshold, match="context 2"):
        det.detect(x, cids, mode="context")
    assert passes == {}
    det.detect(x, cids, mode="global")
    assert passes


@pytest.mark.parametrize("mode", ["context", "global"])
def test_detect_scores_through_one_score_mixed_call(rng, monkeypatch, mode):
    det = _plan_detector("gcae")
    x, cids = _signal(rng, 0, 6), np.array([2, 0, 1, 1, 0, 2])
    det.thresholds = th.fit({c: np.arange(3.0) for c in (0, 1, 2)})
    score_mixed, calls = Detector.score_mixed, []

    def spy(self, x, context_ids):
        calls.append(context_ids)
        return score_mixed(self, x, context_ids)
    monkeypatch.setattr(Detector, "score_mixed", spy)
    scores, _, _ = det.detect(x, cids, mode=mode)
    assert len(calls) == 1 and calls[0] is cids
    np.testing.assert_array_equal(scores, score_mixed(det, x, cids))


# --- determinism and persistence ---------------------------------------------------

def test_training_is_reproducible_across_runs(rng):
    split = _split(rng, contexts=(0, 1))
    x = split.test.tensor
    cids = split.test.context_id
    runs = [train_cae(split, _toy_spec(), _fast_config(seed=3)) for _ in range(2)]
    np.testing.assert_array_equal(runs[0].score_mixed(x, cids),
                                  runs[1].score_mixed(x, cids))


def test_save_load_round_trip(tmp_path, rng):
    split = _split(rng, contexts=(0, 1))
    det = train_gcae(split, _toy_spec(), _fast_config(), {0: 0, 1: 0})
    fit_detector_thresholds(det, split)
    save_detector(tmp_path, det)
    loaded = load_detector(tmp_path)

    assert loaded.kind == "gcae"
    assert loaded.contexts == det.contexts
    assert loaded.grouping == {0: 0, 1: 0}
    assert loaded.param_count() == det.param_count()
    x = split.test.tensor
    cids = split.test.context_id
    np.testing.assert_array_equal(loaded.score_mixed(x, cids),
                                  det.score_mixed(x, cids))
    for cid in (0, 1):
        assert loaded.thresholds.tau(cid) == det.thresholds.tau(cid)


def test_detector_json_keeps_the_training_curves(tmp_path, rng):
    split = _split(rng, contexts=(0, 1))
    det = train_moe(split, _toy_spec(), _fast_config())
    save_detector(tmp_path, det)
    training = json.loads((tmp_path / "detector.json").read_text())["training"]
    assert sorted(training) == ["c0", "c1"]
    for branch, report in det.reports.items():
        saved = training[branch]
        assert saved["train_losses"] == report.train_losses
        assert saved["val_losses"] == report.val_losses
        assert saved["samples_seen"] == {str(k): n for k, n in report.samples_seen.items()}
        assert len(saved["val_losses"]) == saved["stopped_epoch"]
    loaded = load_detector(tmp_path)
    # every field round-trips exactly
    assert loaded.reports == det.reports
    save_detector(tmp_path / "again", loaded)
    assert ((tmp_path / "again" / "detector.json").read_bytes()
            == (tmp_path / "detector.json").read_bytes())


def test_two_trainings_of_one_seed_write_the_same_detector_json(tmp_path, rng):
    split = _split(rng, contexts=(0, 1))
    for name in ("a", "b"):
        save_detector(tmp_path / name, train_cae(split, _toy_spec(), _fast_config(seed=3)))
    assert ((tmp_path / "a" / "detector.json").read_bytes()
            == (tmp_path / "b" / "detector.json").read_bytes())


def test_a_bundle_without_training_curves_is_refused(tmp_path, rng):
    """detector.json as written before it kept the curves."""
    split = _split(rng, contexts=(0, 1))
    save_detector(tmp_path, train_cae(split, _toy_spec(), _fast_config()))
    written = (tmp_path / "detector.json").read_text()
    for key in ("train_losses", "val_losses", "samples_seen"):
        manifest = json.loads(written)
        for saved in manifest["training"].values():
            del saved[key]
        (tmp_path / "detector.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with pytest.raises(MissingArtifact, match=f"detector.json records no {key}, as a "
                                                  "bundle saved before the training curves"):
            load_detector(tmp_path)


def test_load_detector_requires_manifest(tmp_path):
    with pytest.raises(MissingArtifact):
        load_detector(tmp_path / "nowhere")


def test_thresholds_live_in_their_own_file(tmp_path, rng):
    split = _split(rng, contexts=(0, 1))
    det = train_cae(split, _toy_spec(), _fast_config())
    save_detector(tmp_path, det)
    assert load_detector(tmp_path).thresholds is None

    # the thresholds stage writes only the table next to the bundle
    th.save_table(tmp_path / "thresholds.csv", fit_detector_thresholds(det, split))
    assert load_detector(tmp_path).thresholds.tau(1) == det.thresholds.tau(1)

    # a retrained bundle does not inherit the previous model's thresholds
    det.thresholds = None
    save_detector(tmp_path, det)
    assert not (tmp_path / "thresholds.csv").exists()
    assert load_detector(tmp_path).thresholds is None
