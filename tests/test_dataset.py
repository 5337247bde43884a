"""Windowing, filtering, vessel-level splitting and dataset persistence."""

import numpy as np
import pytest

from ctxae.ais import NavStatus, VesselType, context_registry
from ctxae.dataset import (
    CLEAN,
    OutlierCaps,
    Truth,
    TruthSpan,
    Window,
    attach_truth,
    filter_near_ports,
    indices_by_context,
    load_dataset,
    normalize_split,
    remove_outliers,
    sample_weights,
    save_dataset,
    segment,
    split_by_vessel,
    stack_tensors,
)
from ctxae.features import enrich
from ctxae.geo import haversine
from ctxae.synth import PRESETS, ContextPlan, SynthConfig, generate

from conftest import make_track

REGISTRY = context_registry()


def _traj(n, mmsi=1001, status=NavStatus.UNDER_WAY_USING_ENGINE, start_ts=0):
    i = np.arange(n)
    return make_track(start_ts + 30 * i, mmsi=mmsi, lat=10.0 + 0.001 * i,
                      status=status)


def _window(mmsi=1, cid=0, start_ts=0, truth=CLEAN, fill=1.0, dt=30.0,
            end_ts=None, n=50):
    tensor = np.full((n, 6), fill)
    tensor[:, 3] = dt
    tensor[0, 3] = 0.0
    tensor[:, 4] = 5.0
    return Window(tensor=tensor, context_id=cid, mmsi=mmsi, start_ts=start_ts,
                  truth=truth, end_ts=end_ts)


def test_segment_cuts_non_overlapping_windows():
    traj = _traj(120)
    windows = segment(traj, enrich(traj), REGISTRY, window_len=50)
    assert len(windows) == 2
    assert [(w.start_ts, w.end_ts) for w in windows] == [
        (0, 49 * 30), (50 * 30, 99 * 30)]
    assert all(w.context_id == 0 for w in windows)
    assert all(w.tensor.shape == (50, 6) for w in windows)
    assert windows[0].positions.shape == (50, 2)


def test_segment_respects_context_runs():
    # 60 engine + 70 fishing messages: one window per run, remainders dropped
    engine, fishing = NavStatus.UNDER_WAY_USING_ENGINE, NavStatus.ENGAGED_IN_FISHING
    traj = make_track(30 * np.arange(130),
                      lat=[10.0 + 0.001 * i for i in range(60)]
                      + [10.06 + 0.001 * i for i in range(70)],
                      status=[engine] * 60 + [fishing] * 70)
    windows = segment(traj, enrich(traj), REGISTRY, window_len=50)
    assert len(windows) == 2
    assert windows[0].context_id == 0
    assert windows[1].context_id == 16
    # a window never straddles the status flip
    assert windows[1].start_ts == 30 * 60


def test_segment_skips_unregistered_context():
    engine = NavStatus.UNDER_WAY_USING_ENGINE
    traj = make_track(30 * np.arange(150),
                      lat=[base + 0.001 * i for base in (10.0, 10.05, 10.1)
                           for i in range(50)],
                      # the middle run is not registered
                      status=[engine] * 50 + [NavStatus.OTHER] * 50 + [engine] * 50)
    windows = segment(traj, enrich(traj), REGISTRY, window_len=50)
    assert [(w.start_ts, w.end_ts) for w in windows] == [
        (0, 49 * 30), (100 * 30, 149 * 30)]


def test_segment_short_run_yields_nothing():
    traj = _traj(49)
    assert segment(traj, enrich(traj), REGISTRY, window_len=50) == []


def test_attach_truth_by_overlapping_span():
    windows = [_window(mmsi=7, start_ts=100 * i, end_ts=100 * i + 49)
               for i in range(4)]
    tag = Truth(kind="contextual", true_context=16)
    tagged = attach_truth(windows, [
        TruthSpan(8, 0, 400, Truth(kind="collective")),   # another vessel
        TruthSpan(7, 120, 130, tag),                      # inside window 1
        TruthSpan(7, 249, 300, Truth(kind="collective")), # ends inclusive
    ])
    assert [w.truth.kind for w in tagged] == [
        "none", "contextual", "collective", "collective"]
    assert tagged[1].truth.true_context == 16
    assert tagged[1].tensor is windows[1].tensor


def test_attach_truth_takes_the_first_overlapping_span():
    window = _window(mmsi=7, start_ts=0, end_ts=49)
    first, second = Truth(kind="collective"), Truth(kind="point")
    assert attach_truth([window], [TruthSpan(7, 40, 60, first),
                                   TruthSpan(7, 0, 10, second)])[0].truth is first
    assert attach_truth([window], [TruthSpan(7, 0, 10, second),
                                   TruthSpan(7, 40, 60, first)])[0].truth is second


def test_truth_tags_line_up_with_windows_at_any_stride():
    # the truth file knows nothing of windows: at stride 25 every window of
    # a falsified vessel and every window touching a collective span is
    # tagged, and no other window is
    plans = (ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=12,
                         falsify_to=NavStatus.MOORED),
             ContextPlan(context_id=12, behavior=PRESETS["moored"], vessels=10))
    res = generate(SynthConfig(seed=7, plans=plans, messages_per_vessel=400,
                               contextual_rate=0.1, collective_rate=0.05), REGISTRY)
    kinds = {s.truth.kind for s in res.truth}
    assert kinds == {"contextual", "collective"}
    spans = {s.mmsi: s for s in res.truth}
    for traj in res.trajectories:
        windows = attach_truth(segment(traj, enrich(traj), REGISTRY,
                                       window_len=50, stride=25), res.truth)
        assert len(windows) == 15
        span = spans.get(traj.mmsi)
        if span is None:
            expected = ["none"] * 15
        elif span.truth.kind == "contextual":
            expected = ["contextual"] * 15
        else:
            stamps = traj.ts.tolist()
            lo, hi = stamps.index(span.first_ts), stamps.index(span.last_ts)
            expected = ["collective" if ws <= hi and lo <= ws + 49 else "none"
                        for ws in range(0, 351, 25)]
            assert expected.count("collective") >= 2
        assert [w.truth.kind for w in windows] == expected


def test_truth_validation():
    with pytest.raises(ValueError):
        Truth(kind="weird")
    with pytest.raises(ValueError):
        Truth(kind="contextual")            # needs true_context


def test_filter_near_ports_drops_any_touching_window():
    traj = _traj(100)
    windows = segment(traj, enrich(traj), REGISTRY, window_len=50)
    port_on_first = (10.0, -30.0)
    kept = filter_near_ports(windows, [port_on_first], radius_m=5000.0)
    assert len(kept) == 1
    assert kept[0].start_ts == windows[1].start_ts
    # empty port list keeps everything
    assert len(filter_near_ports(windows, [])) == 2


def test_filter_near_ports_matches_the_scalar_loop():
    # a radius equal to a window's nearest distance to a port keeps it: the
    # comparison is strict and the distance must be the scalar one exactly
    traj = _traj(400)
    windows = segment(traj, enrich(traj), REGISTRY, window_len=50)
    ports = [(10.05, -30.01), (10.3, -29.99), (-5.0, 40.0)]
    radius = min(haversine(lat, lon, plat, plon)
                 for lat, lon in windows[2].positions for plat, plon in ports)
    for r in (radius, np.nextafter(radius, np.inf), 1500.0):
        want = [w for w in windows
                if not any(haversine(lat, lon, plat, plon) < r
                           for lat, lon in w.positions for plat, plon in ports)]
        assert filter_near_ports(windows, ports, r) == want
    assert windows[2] in filter_near_ports(windows, ports, radius)
    assert windows[2] not in filter_near_ports(windows, ports,
                                               np.nextafter(radius, np.inf))


def test_segment_runs_split_on_vessel_type_too():
    traj = make_track(30 * np.arange(100), lat=10.0 + 0.001 * np.arange(100),
                      lon=[-30.0 - 0.001 * i for i in range(100)],
                      vtype=[VesselType.DRIFTING_LONGLINES] * 50
                      + [VesselType.TRAWLERS] * 50)
    windows = segment(traj, enrich(traj), REGISTRY, window_len=50)
    assert [w.context_id for w in windows] == [0, 3]
    assert np.array_equal(windows[1].positions,
                          np.column_stack((traj.lat[50:], traj.lon[50:])))


def test_remove_outliers_caps_are_inclusive():
    caps = OutlierCaps()
    at_cap = _window(dt=caps.max_time_gap_s)
    at_cap.tensor[0, 3] = 0.0
    over_cap = _window()
    over_cap.tensor[10, 3] = caps.max_time_gap_s + 1.0
    far_jump = _window()
    far_jump.tensor[20, 4] = caps.max_dist_gap_m + 0.5
    at_dist_cap = _window()
    at_dist_cap.tensor[20, 4] = caps.max_dist_gap_m
    kept = remove_outliers([at_cap, over_cap, far_jump, at_dist_cap], caps)
    assert kept == [at_cap, at_dist_cap]


def test_remove_outliers_drops_short_span():
    thin = _window(dt=3.0)     # 49 * 3 = 147 s < 180 s
    ok = _window(dt=30.0)
    assert remove_outliers([thin, ok]) == [ok]


def test_split_by_vessel_is_mmsi_disjoint():
    windows = [_window(mmsi=m, cid=m % 2, start_ts=i * 1500)
               for m in range(1, 21) for i in range(5)]
    split = split_by_vessel(windows, (0.6, 0.2, 0.2), seed=3)
    seen = {}
    for name in ("train", "val", "test"):
        for w in split.windows(name):
            assert seen.setdefault(w.mmsi, name) == name
    assert len(split.train) + len(split.val) + len(split.test) == 100
    assert {m for m in seen} == set(range(1, 21))


def test_split_by_vessel_sends_anomalous_vessels_to_test():
    windows = [_window(mmsi=m, start_ts=i * 1500)
               for m in range(1, 11) for i in range(3)]
    windows.append(_window(mmsi=99, start_ts=0,
                           truth=Truth(kind="collective")))
    split = split_by_vessel(windows, (0.6, 0.2, 0.2), seed=1)
    assert 99 in {w.mmsi for w in split.test}
    assert 99 not in {w.mmsi for w in split.train}
    assert 99 not in {w.mmsi for w in split.val}


def test_split_by_vessel_is_deterministic():
    windows = [_window(mmsi=m, start_ts=i * 1500)
               for m in range(1, 16) for i in range(4)]
    a = split_by_vessel(windows, (0.6, 0.2, 0.2), seed=9)
    b = split_by_vessel(windows, (0.6, 0.2, 0.2), seed=9)
    for name in ("train", "val", "test"):
        assert [w.uid for w in a.windows(name)] == [
            w.uid for w in b.windows(name)]
    c = split_by_vessel(windows, (0.6, 0.2, 0.2), seed=10)
    assert any(
        [w.uid for w in a.windows(n)] != [w.uid for w in c.windows(n)]
        for n in ("train", "val", "test"))


def test_split_by_vessel_applies_eval_caps():
    windows = [_window(mmsi=m, start_ts=i * 1500)
               for m in range(1, 6) for i in range(40)]
    split = split_by_vessel(windows, (0.34, 0.33, 0.33), seed=2,
                            max_train_per_context=30, max_eval_per_context=10)
    assert len(split.train) <= 30
    assert len(split.val) <= 10
    assert len(split.test) <= 10


def test_split_excludes_contexts_missing_from_train():
    # one lone vessel holds context 5; whenever it lands outside train the
    # context must vanish from every split
    windows = [_window(mmsi=m, cid=0, start_ts=i * 1500)
               for m in range(1, 8) for i in range(3)]
    windows += [_window(mmsi=50, cid=5, start_ts=i * 1500)
                for i in range(3)]
    for seed in range(20):
        split = split_by_vessel(windows, (0.6, 0.2, 0.2), seed=seed)
        if split.excluded_contexts:
            assert split.excluded_contexts == (5,)
            for name in ("train", "val", "test"):
                assert all(w.context_id != 5 for w in split.windows(name))
            break
    else:
        pytest.fail("context 5 always landed in train across 20 seeds")


def test_sample_weights_balance_contexts():
    windows = [_window(mmsi=1, cid=0) for _ in range(6)]
    windows += [_window(mmsi=2, cid=5) for _ in range(2)]
    w = sample_weights(windows)
    # total=8, k=2 -> context 0 weight 8/(2*6), context 5 weight 8/(2*2)
    assert np.allclose(w[:6], 8 / 12)
    assert np.allclose(w[6:], 8 / 4)
    assert w.sum() == pytest.approx(len(windows))
    # weighted mass per context is equal
    assert w[:6].sum() == pytest.approx(w[6:].sum())


def test_stack_and_group_helpers():
    windows = [_window(mmsi=1, cid=5), _window(mmsi=1, cid=0),
               _window(mmsi=2, cid=5)]
    stacked = stack_tensors(windows)
    assert stacked.shape == (3, 50, 6)
    groups = indices_by_context(windows)
    assert list(groups) == [0, 5]
    assert groups[5].tolist() == [0, 2]


def _small_split(seed=4):
    windows = [_window(mmsi=m, cid=(0 if m % 2 else 5), start_ts=i * 1500,
                       fill=float(m + i))
               for m in range(1, 13) for i in range(4)]
    windows[-1] = _window(mmsi=12, cid=5, start_ts=3 * 1500, fill=3.3,
                          truth=Truth(kind="contextual", true_context=16))
    return split_by_vessel(windows, (0.5, 0.25, 0.25), seed=seed)


def test_normalize_split_fits_on_train_only():
    split = _small_split()
    normed = normalize_split(split)
    assert normed.norm_stats is not None
    train = stack_tensors(normed.train).reshape(-1, 6)
    degen = np.array(normed.norm_stats.degenerate)
    assert np.allclose(train.mean(axis=0)[~degen], 0.0, atol=1e-9)
    assert np.allclose(train.std(axis=0)[~degen], 1.0, atol=1e-9)
    # val/test use the train statistics, so they need not be centered
    assert normed.weights.shape[0] == len(normed.train)


def test_save_load_round_trip(tmp_path):
    split = normalize_split(_small_split())
    save_dataset(tmp_path, split, REGISTRY, seed=4, window_len=50)
    loaded, header = load_dataset(tmp_path)
    assert header["seed"] == 4
    assert header["counts"]["train"] == len(split.train)
    for name in ("train", "val", "test"):
        orig, back = split.windows(name), loaded.windows(name)
        assert [w.uid for w in orig] == [w.uid for w in back]
        assert [w.context_id for w in orig] == [w.context_id for w in back]
        assert [w.truth.kind for w in orig] == [w.truth.kind for w in back]
        for a, b in zip(orig, back):
            assert np.allclose(a.tensor, b.tensor, atol=1e-6)   # f32 storage
    assert np.allclose(loaded.weights, split.weights)
    assert loaded.norm_stats.content_hash() == split.norm_stats.content_hash()


def test_save_dataset_is_byte_stable(tmp_path):
    split = normalize_split(_small_split())
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    save_dataset(d1, split, REGISTRY, seed=4, window_len=50)
    save_dataset(d2, split, REGISTRY, seed=4, window_len=50)
    for name in ("header.json", "norm_stats.json", "train.f32",
                 "train.index.csv", "val.f32", "test.f32", "test.index.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
