"""Detector variants: parameter identities, routing, thresholds, persistence."""

import numpy as np
import pytest

from ctxae import thresholds as th
from ctxae.dataset import DatasetSplit, Window, stack_tensors
from ctxae.detectors import (SHARED, Detector, fit_detector_thresholds,
                             load_detector, save_detector, train_ae,
                             train_cae, train_gcae, train_moe)
from ctxae.errors import (EmptyValidationSet, IncompleteGrouping,
                          MissingArtifact, UnroutedContext)
from ctxae.net import TrainConfig, default_autoencoder_spec, score_windows
from ctxae.net import layers as L
from ctxae.net.model import AutoencoderSpec

DESK = default_autoencoder_spec()
E = DESK.encoder_param_count()
D = DESK.decoder_param_count()


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


def _windows(rng, context_id, n, start_mmsi):
    x = _signal(rng, context_id, n)
    return [Window(tensor=x[i], context_id=context_id, mmsi=start_mmsi + i,
                   start_ts=1_000 * i) for i in range(n)]


def _split(rng, contexts=(0, 1), n_train=16, n_val=6, n_test=6) -> DatasetSplit:
    train, val, test = [], [], []
    for j, cid in enumerate(contexts):
        train += _windows(rng, cid, n_train, 10_000 + 100 * j)
        val += _windows(rng, cid, n_val, 20_000 + 100 * j)
        test += _windows(rng, cid, n_test, 30_000 + 100 * j)
    return DatasetSplit(train=train, val=val, test=test,
                        weights=np.ones(len(train)))


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
        enc, dec = det.route(cid)
        assert enc is det.encoders[cid]
        assert dec is det.decoders[cid]
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
    assert det.decoder_key(0) == 0
    assert det.decoder_key(1) == 0
    assert det.decoder_key(2) == 2
    _, dec = det.route(1)
    assert dec is det.decoders[0]
    report = det.reports["gcae"]
    n_pair = sum(1 for w in split.train if w.context_id in (0, 1))
    assert report.samples_seen[0] == n_pair * report.stopped_epoch


def test_score_matches_direct_forward_pass(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_cae(split, _toy_spec(), _fast_config())
    x = stack_tensors([w for w in split.test if w.context_id == 1])
    enc, dec = det.encoders[SHARED], det.decoders[1]
    np.testing.assert_allclose(det.score(x, 1), score_windows(enc, dec, x))


def test_score_mixed_dispatches_by_context(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_moe(split, _toy_spec(), _fast_config())
    x = stack_tensors(split.test)
    cids = np.array([w.context_id for w in split.test])
    mixed = det.score_mixed(x, cids)
    for cid in (0, 1):
        mask = cids == cid
        np.testing.assert_allclose(mixed[mask], det.score(x[mask], cid))


def test_unknown_context_is_refused_by_context_aware_kinds(rng):
    split = _split(rng, contexts=(0, 1))
    x = stack_tensors(split.test[:2])
    for trainer in (train_moe, train_cae):
        det = trainer(split, _toy_spec(), _fast_config())
        with pytest.raises(UnroutedContext):
            det.score(x, 9)
    gcae = train_gcae(split, _toy_spec(), _fast_config(), {0: 0, 1: 0})
    with pytest.raises(UnroutedContext):
        gcae.score(x, 9)
    # the global model has no notion of context and takes anything
    ae = train_ae(split, _toy_spec(), _fast_config())
    assert ae.score(x, 9).shape == (2,)


def test_gcae_requires_a_group_for_every_context(rng):
    split = _split(rng, contexts=(0, 1, 2))
    with pytest.raises(IncompleteGrouping, match=r"\[2\]"):
        train_gcae(split, _toy_spec(), _fast_config(), {0: 0, 1: 0})


def test_moe_refuses_contexts_without_validation_windows(rng):
    split = _split(rng, contexts=(0, 1))
    split.val = [w for w in split.val if w.context_id != 1]
    with pytest.raises(EmptyValidationSet, match="context 1"):
        train_moe(split, _toy_spec(), _fast_config())


# --- thresholds and verdicts -------------------------------------------------------

def test_fitted_thresholds_match_manual_mean_plus_five_sigma(rng):
    split = _split(rng, contexts=(0, 1))
    det = train_cae(split, _toy_spec(), _fast_config())
    table = fit_detector_thresholds(det, split, fit_split="train")
    assert det.thresholds is table
    cids = np.array([w.context_id for w in split.train])
    scores = det.score_mixed(stack_tensors(split.train), cids)
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
    x = stack_tensors(split.test)
    cids = np.array([w.context_id for w in split.test])

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
    x = stack_tensors(split.test[:3])
    cids = np.array([w.context_id for w in split.test[:3]])
    with pytest.raises(MissingArtifact):
        det.detect(x, cids)
    fit_detector_thresholds(det, split)
    with pytest.raises(ValueError, match="mode"):
        det.detect(x, cids, mode="both")


# --- determinism and persistence ---------------------------------------------------

def test_training_is_reproducible_across_runs(rng):
    split = _split(rng, contexts=(0, 1))
    x = stack_tensors(split.test)
    cids = np.array([w.context_id for w in split.test])
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
    x = stack_tensors(split.test)
    cids = np.array([w.context_id for w in split.test])
    np.testing.assert_array_equal(loaded.score_mixed(x, cids),
                                  det.score_mixed(x, cids))
    for cid in (0, 1):
        assert loaded.thresholds.tau(cid) == det.thresholds.tau(cid)


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
