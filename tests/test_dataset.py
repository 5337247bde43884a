"""Windowing, filtering, vessel-level splitting and dataset persistence.

The per-window forms of segment, attach_truth, remove_outliers,
split_by_vessel and sample_weights are kept below as oracles: the column
functions must give the same rows, in the same order, with the same bits.
"""

import json
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxae.ais import NavStatus, VesselType, context_registry
from ctxae.dataset import (
    COL_DD,
    COL_DT,
    NO_CONTEXT,
    SPLIT_NAMES,
    TRUTH_DTYPE,
    TRUTH_KINDS,
    DatasetParams,
    TruthSpan,
    WindowTable,
    attach_truth,
    filter_near_ports,
    load_dataset,
    normalize_split,
    remove_outliers,
    sample_weights,
    save_dataset,
    segment,
    split_by_vessel,
)
from ctxae.errors import ConfigError, MissingArtifact
from ctxae.features import NormStats, enrich
from ctxae.geo import haversine
from ctxae.synth import PRESETS, ContextPlan, SynthConfig, generate

from conftest import make_track

REGISTRY = context_registry()
PARAMS = DatasetParams()


# --- per-window oracles --------------------------------------------------------

@dataclass(eq=False)
class Window:
    """One window as an object, the form the column functions replaced."""

    tensor: np.ndarray
    context_id: int
    mmsi: int
    start_ts: int
    truth: str = "none"
    true_context: int = NO_CONTEXT
    end_ts: int | None = None
    positions: np.ndarray | None = None


def oracle_segment(t, features, registry, window_len, stride):
    change = np.flatnonzero((t.status[1:] != t.status[:-1])
                            | (t.vtype[1:] != t.vtype[:-1])) + 1
    starts = [0, *change.tolist()]
    ends = [*change.tolist(), len(t)]
    context_ids = registry.context_ids(t.vtype[starts], t.status[starts]).tolist()
    windows = []
    for start, end, cid in zip(starts, ends, context_ids):
        if cid < 0:
            continue
        for ws in range(start, end - window_len + 1, stride):
            we = ws + window_len
            windows.append(Window(
                tensor=features[ws:we].copy(), context_id=cid,
                mmsi=t.mmsi, start_ts=int(t.ts[ws]), end_ts=int(t.ts[we - 1]),
                positions=np.column_stack((t.lat[ws:we], t.lon[ws:we]))))
    return windows


def oracle_attach_truth(windows, spans):
    out = []
    for w in windows:
        for s in spans:
            if s.mmsi == w.mmsi and s.first_ts <= w.end_ts and w.start_ts <= s.last_ts:
                w = replace(w, truth=s.kind, true_context=s.true_context)
                break
        out.append(w)
    return out


def oracle_remove_outliers(windows, params):
    kept = []
    for w in windows:
        dt = w.tensor[:, COL_DT]
        dd = w.tensor[:, COL_DD]
        if dt.max() > params.max_time_gap_s or dd.max() > params.max_dist_gap_m:
            continue
        if dt[1:].sum() < params.min_span_s:
            continue
        kept.append(w)
    return kept


def oracle_split_by_vessel(windows, ratios, seed):
    """(windows per split name, excluded contexts)."""
    by_vessel = {}
    for w in windows:
        by_vessel.setdefault(w.mmsi, []).append(w)
    anomalous = {m for m, ws in by_vessel.items()
                 if any(w.truth != "none" for w in ws)}
    clean = sorted(set(by_vessel) - anomalous)
    rng = np.random.default_rng([seed, 101])
    order = [clean[i] for i in rng.permutation(len(clean))]
    n = len(order)
    n_train = int(n * ratios[0])
    n_val = int(n * (ratios[0] + ratios[1])) - n_train
    assignment = {"train": order[:n_train], "val": order[n_train:n_train + n_val],
                  "test": order[n_train + n_val:] + sorted(anomalous)}
    parts = {name: sorted((w for m in vessels for w in by_vessel[m]),
                          key=lambda w: (w.mmsi, w.start_ts))
             for name, vessels in assignment.items()}
    present = {w.context_id for p in parts.values() for w in p}
    excluded = tuple(sorted(present - {w.context_id for w in parts["train"]}))
    parts = {name: [w for w in p if w.context_id not in excluded]
             for name, p in parts.items()}
    return parts, excluded


def oracle_sample_weights(windows):
    counts = {}
    for w in windows:
        counts[w.context_id] = counts.get(w.context_id, 0) + 1
    return np.array([len(windows) / (len(counts) * counts[w.context_id])
                     for w in windows])


def _table(windows, window_len=50):
    """The window table holding the given windows, in order."""
    def col(name):
        return np.array([getattr(w, name) for w in windows], dtype=np.int64)
    with_positions = bool(windows) and all(w.positions is not None for w in windows)
    return WindowTable(
        tensor=(np.stack([w.tensor for w in windows]) if windows
                else np.zeros((0, window_len, 6))),
        context_id=col("context_id"), mmsi=col("mmsi"), start_ts=col("start_ts"),
        truth=np.array([w.truth for w in windows], dtype=TRUTH_DTYPE),
        true_context=col("true_context"),
        end_ts=col("end_ts") if all(w.end_ts is not None for w in windows) else None,
        positions=np.stack([w.positions for w in windows]) if with_positions else None)


def assert_table_equals(table, windows, window_len):
    """Every column of table holds the windows' values with the same bits."""
    want = _table(windows, window_len)
    assert table.tensor.shape == want.tensor.shape
    for name in ("tensor", "context_id", "mmsi", "start_ts", "truth", "true_context"):
        assert np.array_equal(getattr(table, name), getattr(want, name)), name
    if windows and windows[0].positions is not None:
        assert np.array_equal(table.end_ts, want.end_ts)
        assert np.array_equal(table.positions, want.positions)


# --- fixtures ------------------------------------------------------------------

def _traj(n, mmsi=1001, status=NavStatus.UNDER_WAY_USING_ENGINE, start_ts=0):
    i = np.arange(n)
    return make_track(start_ts + 30 * i, mmsi=mmsi, lat=10.0 + 0.001 * i,
                      status=status)


def _window(mmsi=1, cid=0, start_ts=0, truth="none", true_context=NO_CONTEXT,
            fill=1.0, dt=30.0, end_ts=None, n=50):
    tensor = np.full((n, 6), fill)
    tensor[:, 3] = dt
    tensor[0, 3] = 0.0
    tensor[:, 4] = 5.0
    return Window(tensor=tensor, context_id=cid, mmsi=mmsi, start_ts=start_ts,
                  truth=truth, true_context=true_context, end_ts=end_ts)


def _uids(table):
    return list(zip(table.mmsi.tolist(), table.start_ts.tolist()))


def test_segment_cuts_non_overlapping_windows():
    traj = _traj(120)
    windows = segment(traj, enrich(traj), REGISTRY, 50, 50)
    assert len(windows) == 2
    assert list(zip(windows.start_ts.tolist(), windows.end_ts.tolist())) == [
        (0, 49 * 30), (50 * 30, 99 * 30)]
    assert windows.context_id.tolist() == [0, 0]
    assert windows.tensor.shape == (2, 50, 6)
    assert windows.positions.shape == (2, 50, 2)


def test_segment_respects_context_runs():
    # 60 engine + 70 fishing messages: one window per run, remainders dropped
    engine, fishing = NavStatus.UNDER_WAY_USING_ENGINE, NavStatus.ENGAGED_IN_FISHING
    traj = make_track(30 * np.arange(130),
                      lat=[10.0 + 0.001 * i for i in range(60)]
                      + [10.06 + 0.001 * i for i in range(70)],
                      status=[engine] * 60 + [fishing] * 70)
    windows = segment(traj, enrich(traj), REGISTRY, 50, 50)
    assert windows.context_id.tolist() == [0, 16]
    # a window never straddles the status flip
    assert windows.start_ts[1] == 30 * 60


def test_segment_skips_unregistered_context():
    engine = NavStatus.UNDER_WAY_USING_ENGINE
    traj = make_track(30 * np.arange(150),
                      lat=[base + 0.001 * i for base in (10.0, 10.05, 10.1)
                           for i in range(50)],
                      # the middle run is not registered
                      status=[engine] * 50 + [NavStatus.OTHER] * 50 + [engine] * 50)
    windows = segment(traj, enrich(traj), REGISTRY, 50, 50)
    assert list(zip(windows.start_ts.tolist(), windows.end_ts.tolist())) == [
        (0, 49 * 30), (100 * 30, 149 * 30)]


def test_segment_short_run_yields_nothing():
    traj = _traj(49)
    windows = segment(traj, enrich(traj), REGISTRY, 50, 50)
    assert len(windows) == 0
    assert windows.tensor.shape == (0, 50, 6)
    assert windows.positions.shape == (0, 50, 2)


def test_window_table_rows_view_the_tensor():
    windows = _table([_window(mmsi=1, cid=5, start_ts=10), _window(mmsi=1, cid=0),
                      _window(mmsi=2, cid=5, start_ts=20)])
    rows = list(windows)
    assert [(r.mmsi, r.context_id, r.start_ts) for r in rows] == [
        (1, 5, 10), (1, 0, 0), (2, 5, 20)]
    assert all(r.tensor.base is windows.tensor for r in rows)
    fives = windows.take(windows.context_id == 5)
    assert fives.mmsi.tolist() == [1, 2]
    assert np.array_equal(fives.tensor, windows.tensor[[0, 2]])


def test_attach_truth_by_overlapping_span():
    windows = _table([_window(mmsi=7, start_ts=100 * i, end_ts=100 * i + 49)
                      for i in range(4)])
    tagged = attach_truth(windows, [
        TruthSpan(8, 0, 400, "collective"),       # another vessel
        TruthSpan(7, 120, 130, "contextual", 16), # inside window 1
        TruthSpan(7, 249, 300, "collective"),     # ends inclusive
    ])
    assert tagged.truth.tolist() == [
        "none", "contextual", "collective", "collective"]
    assert tagged.true_context.tolist() == [NO_CONTEXT, 16, NO_CONTEXT, NO_CONTEXT]
    assert tagged.tensor is windows.tensor


def test_attach_truth_takes_the_first_overlapping_span():
    window = _table([_window(mmsi=7, start_ts=0, end_ts=49)])
    first, second = TruthSpan(7, 40, 60, "collective"), TruthSpan(7, 0, 10, "point")
    assert attach_truth(window, [first, second]).truth.tolist() == ["collective"]
    assert attach_truth(window, [second, first]).truth.tolist() == ["point"]


def test_truth_tags_line_up_with_windows_at_any_stride():
    # the truth file knows nothing of windows: at stride 25 every window of
    # a falsified vessel and every window touching a collective span is
    # tagged, and no other window is
    plans = (ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=12,
                         falsify_to=NavStatus.MOORED),
             ContextPlan(context_id=12, behavior=PRESETS["moored"], vessels=10))
    res = generate(SynthConfig(seed=7, plans=plans, messages_per_vessel=400,
                               contextual_rate=0.1, collective_rate=0.05), REGISTRY)
    kinds = {s.kind for s in res.truth}
    assert kinds == {"contextual", "collective"}
    spans = {s.mmsi: s for s in res.truth}
    for traj in res.trajectories:
        windows = attach_truth(segment(traj, enrich(traj), REGISTRY,
                                       window_len=50, stride=25), res.truth)
        assert len(windows) == 15
        span = spans.get(traj.mmsi)
        if span is None:
            expected = ["none"] * 15
        elif span.kind == "contextual":
            expected = ["contextual"] * 15
        else:
            stamps = traj.ts.tolist()
            lo, hi = stamps.index(span.first_ts), stamps.index(span.last_ts)
            expected = ["collective" if ws <= hi and lo <= ws + 49 else "none"
                        for ws in range(0, 351, 25)]
            assert expected.count("collective") >= 2
        assert windows.truth.tolist() == expected


def test_truth_validation():
    assert TruthSpan(7, 0, 10, "collective").true_context == NO_CONTEXT
    assert TruthSpan(7, 10, 10, "contextual", 16).true_context == 16
    with pytest.raises(ValueError, match="unknown truth kind 'weird'"):
        TruthSpan(7, 0, 10, "weird")
    with pytest.raises(ValueError, match="must record the true context"):
        TruthSpan(7, 0, 10, "contextual")
    with pytest.raises(ValueError, match="must record the true context"):
        TruthSpan(7, 0, 10, "contextual", NO_CONTEXT)
    with pytest.raises(ValueError, match="first_ts 11 is after last_ts 10"):
        TruthSpan(7, 11, 10, "collective")


def test_filter_near_ports_drops_any_touching_window():
    traj = _traj(100)
    windows = segment(traj, enrich(traj), REGISTRY, 50, 50)
    port_on_first = (10.0, -30.0)
    kept = filter_near_ports(windows, [port_on_first], 5000.0)
    assert kept.start_ts.tolist() == [windows.start_ts[1]]
    # empty port list keeps everything
    assert len(filter_near_ports(windows, [], 5000.0)) == 2


def test_filter_near_ports_matches_the_scalar_loop():
    # a radius equal to a window's nearest distance to a port keeps it: the
    # comparison is strict and the distance must be the scalar one exactly
    traj = _traj(400)
    windows = segment(traj, enrich(traj), REGISTRY, 50, 50)
    ports = [(10.05, -30.01), (10.3, -29.99), (-5.0, 40.0)]
    radius = min(haversine(lat, lon, plat, plon)
                 for lat, lon in windows.positions[2] for plat, plon in ports)
    for r in (radius, np.nextafter(radius, np.inf), 1500.0):
        want = [i for i, pos in enumerate(windows.positions)
                if not any(haversine(lat, lon, plat, plon) < r
                           for lat, lon in pos for plat, plon in ports)]
        kept = filter_near_ports(windows, ports, r)
        assert kept.start_ts.tolist() == windows.start_ts[want].tolist()
        assert np.array_equal(kept.positions, windows.positions[want])
    assert windows.start_ts[2] in filter_near_ports(windows, ports, radius).start_ts
    assert windows.start_ts[2] not in filter_near_ports(
        windows, ports, np.nextafter(radius, np.inf)).start_ts


def test_segment_runs_split_on_vessel_type_too():
    traj = make_track(30 * np.arange(100), lat=10.0 + 0.001 * np.arange(100),
                      lon=[-30.0 - 0.001 * i for i in range(100)],
                      vtype=[VesselType.DRIFTING_LONGLINES] * 50
                      + [VesselType.TRAWLERS] * 50)
    windows = segment(traj, enrich(traj), REGISTRY, 50, 50)
    assert windows.context_id.tolist() == [0, 3]
    assert np.array_equal(windows.positions[1],
                          np.column_stack((traj.lat[50:], traj.lon[50:])))


def test_remove_outliers_caps_are_inclusive():
    caps = PARAMS
    at_cap = _window(mmsi=1, dt=caps.max_time_gap_s)
    at_cap.tensor[0, 3] = 0.0
    over_cap = _window(mmsi=2)
    over_cap.tensor[10, 3] = caps.max_time_gap_s + 1.0
    far_jump = _window(mmsi=3)
    far_jump.tensor[20, 4] = caps.max_dist_gap_m + 0.5
    at_dist_cap = _window(mmsi=4)
    at_dist_cap.tensor[20, 4] = caps.max_dist_gap_m
    kept = remove_outliers(_table([at_cap, over_cap, far_jump, at_dist_cap]), caps)
    assert kept.mmsi.tolist() == [1, 4]


def test_remove_outliers_drops_short_span():
    thin = _window(mmsi=1, dt=3.0)     # 49 * 3 = 147 s < 180 s
    ok = _window(mmsi=2, dt=30.0)
    assert remove_outliers(_table([thin, ok]), PARAMS).mmsi.tolist() == [2]


def test_split_by_vessel_is_mmsi_disjoint():
    windows = [_window(mmsi=m, cid=m % 2, start_ts=i * 1500)
               for m in range(1, 21) for i in range(5)]
    split = split_by_vessel(_table(windows), (0.6, 0.2, 0.2), 3)
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
                           truth="collective"))
    split = split_by_vessel(_table(windows), (0.6, 0.2, 0.2), 1)
    assert 99 in split.test.mmsi
    assert 99 not in split.train.mmsi
    assert 99 not in split.val.mmsi


def test_split_by_vessel_is_deterministic():
    windows = _table([_window(mmsi=m, start_ts=i * 1500)
                      for m in range(1, 16) for i in range(4)])
    a = split_by_vessel(windows, (0.6, 0.2, 0.2), 9)
    b = split_by_vessel(windows, (0.6, 0.2, 0.2), 9)
    for name in ("train", "val", "test"):
        assert _uids(a.windows(name)) == _uids(b.windows(name))
    c = split_by_vessel(windows, (0.6, 0.2, 0.2), 10)
    assert any(_uids(a.windows(n)) != _uids(c.windows(n))
               for n in ("train", "val", "test"))


def test_split_excludes_contexts_missing_from_train():
    # one lone vessel holds context 5; whenever it lands outside train the
    # context must vanish from every split
    windows = [_window(mmsi=m, cid=0, start_ts=i * 1500)
               for m in range(1, 8) for i in range(3)]
    windows += [_window(mmsi=50, cid=5, start_ts=i * 1500)
                for i in range(3)]
    for seed in range(20):
        split = split_by_vessel(_table(windows), (0.6, 0.2, 0.2), seed)
        if split.excluded_contexts:
            assert split.excluded_contexts == (5,)
            for name in ("train", "val", "test"):
                assert 5 not in split.windows(name).context_id
            break
    else:
        pytest.fail("context 5 always landed in train across 20 seeds")


def test_sample_weights_balance_contexts():
    windows = [_window(mmsi=1, cid=0) for _ in range(6)]
    windows += [_window(mmsi=2, cid=5) for _ in range(2)]
    w = sample_weights(_table(windows))
    # total=8, k=2 -> context 0 weight 8/(2*6), context 5 weight 8/(2*2)
    assert np.allclose(w[:6], 8 / 12)
    assert np.allclose(w[6:], 8 / 4)
    assert w.sum() == pytest.approx(len(windows))
    # weighted mass per context is equal
    assert w[:6].sum() == pytest.approx(w[6:].sum())


def _small_split(seed=4):
    windows = [_window(mmsi=m, cid=(0 if m % 2 else 5), start_ts=i * 1500,
                       fill=float(m + i))
               for m in range(1, 13) for i in range(4)]
    windows[-1] = _window(mmsi=12, cid=5, start_ts=3 * 1500, fill=3.3,
                          truth="contextual", true_context=16)
    return split_by_vessel(_table(windows), (0.5, 0.25, 0.25), seed)


def test_normalize_split_fits_on_train_only():
    split = _small_split()
    normed = normalize_split(split)
    assert normed.norm_stats is not None
    train = normed.train.tensor.reshape(-1, 6)
    degen = np.array(normed.norm_stats.degenerate)
    assert np.allclose(train.mean(axis=0)[~degen], 0.0, atol=1e-9)
    assert np.allclose(train.std(axis=0)[~degen], 1.0, atol=1e-9)
    # val/test use the train statistics, so they need not be centered
    assert normed.train.weight.shape[0] == len(normed.train)


def test_save_load_round_trip(tmp_path):
    split = normalize_split(_small_split())
    save_dataset(tmp_path, split, REGISTRY, seed=4, window_len=50)
    loaded, header = load_dataset(tmp_path)
    assert header["seed"] == 4
    assert header["counts"]["train"] == len(split.train)
    for name in ("train", "val", "test"):
        orig, back = split.windows(name), loaded.windows(name)
        for col in ("mmsi", "start_ts", "context_id", "truth", "true_context"):
            assert np.array_equal(getattr(orig, col), getattr(back, col)), col
        assert np.allclose(orig.tensor, back.tensor, atol=1e-6)   # f32 storage
    assert 16 in loaded.test.true_context
    assert np.array_equal(loaded.train.weight, split.train.weight)
    assert loaded.val.weight is None
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


def _saved(tmp_path):
    split = normalize_split(_small_split())
    save_dataset(tmp_path, split, REGISTRY, seed=4, window_len=50)
    load_dataset(tmp_path)
    return split


def test_load_dataset_refuses_a_header_of_another_registry(tmp_path):
    _saved(tmp_path)
    header = tmp_path / "header.json"
    current = REGISTRY.content_hash()
    header.write_text(header.read_text().replace(current, "0" * 64))
    with pytest.raises(ConfigError, match=f"{header} records registry_hash {'0' * 64}, "
                                          f"but the context registry hashes to {current}; "
                                          "run the build stage again"):
        load_dataset(tmp_path)


def test_load_dataset_refuses_other_normalisation_statistics(tmp_path):
    recorded = _saved(tmp_path).norm_stats.content_hash()
    stats = tmp_path / "norm_stats.json"
    data = json.loads(stats.read_text())
    data["features"][0]["scale"] *= 2
    stats.write_text(json.dumps(data))
    current = NormStats.load(stats).content_hash()
    with pytest.raises(ConfigError, match=f"records norm_stats_hash {recorded}, but "
                                          f"norm_stats.json hashes to {current}; run the build"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("file, cut, holds", [
    ("val.index.csv", "last row", "rows"), ("train.f32", 4, "bytes"),
    ("test.f32", 3, "bytes"), ("train.index.csv", "extra row", "rows")])
def test_load_dataset_refuses_a_file_that_disagrees_with_its_header(tmp_path, file, cut,
                                                                    holds):
    split = _saved(tmp_path)
    path = tmp_path / file
    data = path.read_bytes()
    if cut == "last row":
        data = data[:data.rindex(b"\n", 0, -1) + 1]
    elif cut == "extra row":
        data += data[data.rindex(b"\n", 0, -1) + 1:]
    else:
        data = data[:-cut]
    path.write_bytes(data)
    count = len(split.windows(file.split(".")[0]))
    with pytest.raises(MissingArtifact, match=rf"{path} holds \d+ {holds}, but .* counts "
                                              rf"{count} .* windows .*run the build stage again"):
        load_dataset(tmp_path)


def test_empty_splits_keep_the_window_shape(tmp_path):
    # every vessel is clean and goes to train, so val and test are empty
    split = split_by_vessel(_table([_window(mmsi=m, start_ts=0, n=8) for m in range(1, 4)], 8),
                            (1.0, 0.0, 0.0), 1)
    assert split.val.tensor.shape == split.test.tensor.shape == (0, 8, 6)
    save_dataset(tmp_path, normalize_split(split), REGISTRY, seed=1, window_len=8)
    loaded, _ = load_dataset(tmp_path)
    assert len(loaded.train) == 3
    for name in ("val", "test"):
        table = loaded.windows(name)
        assert table.tensor.shape == (0, 8, 6)
        assert table.context_id.shape == table.truth.shape == (0,)


# --- the column functions equal the per-window oracles -------------------------

STATUSES = (NavStatus.UNDER_WAY_USING_ENGINE, NavStatus.ENGAGED_IN_FISHING,
            NavStatus.MOORED, NavStatus.OTHER)   # OTHER is never registered
VTYPES = (VesselType.DRIFTING_LONGLINES, VesselType.TRAWLERS)


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from(STATUSES), st.sampled_from(VTYPES),
                               st.integers(1, 14)), min_size=1, max_size=6),
       window_len=st.integers(2, 6), stride=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16))
def test_segment_equals_the_per_window_oracle(runs, window_len, stride, seed):
    status = [s for s, _, n in runs for _ in range(n)]
    vtype = [v for _, v, n in runs for _ in range(n)]
    rng = np.random.default_rng(seed)
    n = len(status)
    traj = make_track(30 * np.arange(n), mmsi=77, lat=rng.uniform(-60, 60, n).tolist(),
                      lon=rng.uniform(-180, 180, n).tolist(), status=status, vtype=vtype)
    features = rng.normal(size=(n, 6))
    assert_table_equals(segment(traj, features, REGISTRY, window_len, stride),
                        oracle_segment(traj, features, REGISTRY, window_len, stride),
                        window_len)


WINDOW_LEN = 4


@st.composite
def window_lists(draw):
    """Windows of a few vessels with repeated (mmsi, start_ts) keys; column 0
    holds each window's input position, so every row is told apart."""
    windows = []
    for i in range(draw(st.integers(0, 40))):
        tensor = np.zeros((WINDOW_LEN, 6))
        tensor[:, 0] = i
        tensor[:, COL_DT] = draw(st.lists(st.integers(0, 120), min_size=WINDOW_LEN,
                                          max_size=WINDOW_LEN))
        tensor[:, COL_DD] = draw(st.lists(st.floats(0, 100), min_size=WINDOW_LEN,
                                          max_size=WINDOW_LEN))
        start_ts = 100 * draw(st.integers(0, 4))
        windows.append(Window(tensor=tensor, context_id=draw(st.sampled_from((0, 5, 12))),
                              mmsi=draw(st.integers(1, 6)), start_ts=start_ts,
                              end_ts=start_ts + 90))
    return windows


spans_st = st.lists(st.builds(
    lambda mmsi, first, length, kind, ctx: TruthSpan(
        mmsi, first, first + length, kind, ctx if kind == "contextual" else NO_CONTEXT),
    st.integers(1, 6), st.integers(0, 500), st.integers(0, 200),
    st.sampled_from(TRUTH_KINDS), st.sampled_from((0, 16))), max_size=4)


@settings(max_examples=150, deadline=None)
@given(windows=window_lists(), spans=spans_st,
       caps=st.builds(DatasetParams, max_time_gap_s=st.sampled_from((60.0, 100.0, 1e4)),
                      max_dist_gap_m=st.sampled_from((50.0, 1e4)),
                      min_span_s=st.sampled_from((0.0, 150.0))),
       ratios=st.sampled_from(((0.6, 0.2, 0.2), (0.34, 0.33, 0.33), (1.0, 0.0, 0.0),
                               (0.0, 0.5, 0.5))),
       seed=st.integers(0, 2 ** 16))
def test_split_path_equals_the_per_window_oracles(windows, spans, caps, ratios, seed):
    table = attach_truth(_table(windows, WINDOW_LEN), spans)
    windows = oracle_attach_truth(windows, spans)
    assert_table_equals(table, windows, WINDOW_LEN)

    assert_table_equals(remove_outliers(table, caps),
                        oracle_remove_outliers(windows, caps), WINDOW_LEN)

    split = split_by_vessel(table, ratios, seed)
    parts, excluded = oracle_split_by_vessel(windows, ratios, seed)
    assert split.excluded_contexts == excluded
    for name in SPLIT_NAMES:
        assert_table_equals(split.windows(name), parts[name], WINDOW_LEN)
    assert np.array_equal(sample_weights(split.train),
                          oracle_sample_weights(parts["train"]))
