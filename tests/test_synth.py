"""Fleet generator: determinism, injection semantics, truth bookkeeping."""

import numpy as np
import pytest

from ctxae.ais import NAV_STATUSES, ContextRegistry, NavStatus, table_of
from ctxae.dataset import attach_truth, segment
from ctxae.errors import (ConfigError, UnmappedContext,
                          UnregisteredFalsification)
from ctxae.features import enrich
from ctxae.geo import haversine
from ctxae.synth import (BehaviorModel, ContextPlan, PRESETS, SynthConfig,
                         generate, inject_collective, inject_contextual,
                         load_ports, load_truth, write_fleet)

REGISTRY = ContextRegistry()


def small_config(**kw):
    defaults = dict(
        seed=5,
        plans=(
            ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=4,
                        falsify_to=NavStatus.MOORED),
            ContextPlan(context_id=12, behavior=PRESETS["moored"], vessels=3),
        ),
        messages_per_vessel=250,
        contextual_rate=0.25,
        collective_rate=0.2,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


# --- configuration validation ----------------------------------------------------

def test_rejects_empty_plans():
    with pytest.raises(ConfigError):
        small_config(plans=())


def test_rejects_duplicate_context_ids():
    plan = ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=1)
    with pytest.raises(ConfigError):
        small_config(plans=(plan, plan))


@pytest.mark.parametrize("field,value", [
    ("contextual_rate", -0.1), ("contextual_rate", 1.5),
    ("collective_rate", 2.0), ("collective_span", 1),
    ("messages_per_vessel", 0),
])
def test_rejects_bad_scalars(field, value):
    with pytest.raises(ConfigError):
        small_config(**{field: value})


def test_rejects_collective_span_that_does_not_fit():
    # generate() would draw a start from an empty range
    with pytest.raises(ConfigError, match=r"messages_per_vessel 22 .*collective_span 12"):
        small_config(messages_per_vessel=22, collective_span=12, collective_rate=0.5)
    small_config(messages_per_vessel=22, collective_span=12, collective_rate=0.0)
    res = generate(small_config(messages_per_vessel=23, collective_span=12,
                                collective_rate=1.0), REGISTRY)
    assert any(s.truth.kind == "collective" for s in res.truth)


def test_rejects_nonpositive_vessel_count():
    with pytest.raises(ConfigError):
        ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=0)


def test_behavior_validation():
    with pytest.raises(ConfigError):
        BehaviorModel(kind="warp_drive", speed_lo=1, speed_hi=2)
    with pytest.raises(ConfigError):
        BehaviorModel(kind="transit", speed_lo=5.0, speed_hi=2.0)
    with pytest.raises(ConfigError):
        BehaviorModel(kind="transit", speed_lo=1.0, speed_hi=2.0,
                      event_len_lo=0)
    with pytest.raises(ConfigError):
        BehaviorModel(kind="transit", speed_lo=1.0, speed_hi=2.0,
                      event_len_lo=9, event_len_hi=4)


def test_unregistered_context_id():
    cfg = small_config(plans=(
        ContextPlan(context_id=999, behavior=PRESETS["transit"], vessels=1),))
    with pytest.raises(UnmappedContext):
        generate(cfg, REGISTRY)


# --- determinism ------------------------------------------------------------------

def test_same_seed_same_fleet():
    a = generate(small_config(), REGISTRY)
    b = generate(small_config(), REGISTRY)
    assert len(a.trajectories) == len(b.trajectories)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert ta.mmsi == tb.mmsi
        for col in ("ts", "lat", "lon", "sog", "cog", "heading", "status", "vtype"):
            assert np.array_equal(getattr(ta, col), getattr(tb, col),
                                  equal_nan=col == "heading")
    assert a.truth == b.truth


def test_different_seeds_differ():
    a = generate(small_config(seed=5), REGISTRY)
    b = generate(small_config(seed=6), REGISTRY)
    ta, tb = a.trajectories[0], b.trajectories[0]
    assert not np.array_equal(ta.lat[:20], tb.lat[:20])


def test_vessel_stream_isolated_from_plan_edits():
    # a vessel's motion depends on (seed, mmsi) only, so adding another
    # context after it leaves earlier trajectories untouched
    base = generate(small_config(collective_rate=0.0, contextual_rate=0.0),
                    REGISTRY)
    plans = (
        ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=4,
                    falsify_to=NavStatus.MOORED),
        ContextPlan(context_id=12, behavior=PRESETS["moored"], vessels=3),
        ContextPlan(context_id=21, behavior=PRESETS["sailing"], vessels=2),
    )
    grown = generate(small_config(plans=plans, collective_rate=0.0,
                                  contextual_rate=0.0), REGISTRY)
    for ta, tb in zip(base.trajectories[:4], grown.trajectories[:4]):
        assert ta.mmsi == tb.mmsi
        assert np.array_equal(ta.lat, tb.lat) and np.array_equal(ta.lon, tb.lon)


# --- voyage geometry ---------------------------------------------------------------

def test_vessels_start_inside_port_radius():
    res = generate(small_config(), REGISTRY)
    for traj in res.trajectories:
        dists = [haversine(traj.lat[0], traj.lon[0], plat, plon)
                 for plat, plon in res.ports]
        assert min(dists) < 5_000.0


def test_stationary_vessels_settle_outside_port_radius():
    # repositioning occupies the first two windows; from there on a moored
    # vessel must not wander back inside the exclusion radius
    res = generate(small_config(), REGISTRY)
    falsified = {s.mmsi for s in res.truth if s.truth.kind == "contextual"}
    moored = [t for t in res.trajectories
              if NAV_STATUSES[t.status[0]] == NavStatus.MOORED
              and t.mmsi not in falsified]
    assert moored
    for traj in moored:
        dists = [haversine(traj.lat[50], traj.lon[50], plat, plon)
                 for plat, plon in res.ports]
        assert min(dists) < 5_000.0
        for lat, lon in zip(traj.lat[100:], traj.lon[100:]):
            dists = [haversine(lat, lon, plat, plon)
                     for plat, plon in res.ports]
            assert min(dists) > 5_000.0


def test_heading_sometimes_unavailable():
    res = generate(small_config(), REGISTRY)
    missing = table_of(res.trajectories).heading_unavailable
    assert 0 < missing.sum() < len(missing) * 0.2


# --- contextual injection ----------------------------------------------------------

def test_contextual_swaps_status_everywhere():
    traj = generate(small_config(contextual_rate=0.0, collective_rate=0.0),
                    REGISTRY).trajectories[0]
    swapped = inject_contextual(traj, NavStatus.MOORED, REGISTRY)
    assert all(NAV_STATUSES[c] == NavStatus.MOORED for c in swapped.status)
    # motion itself is untouched
    for col in ("ts", "lat", "lon", "sog", "cog", "vtype"):
        assert np.array_equal(getattr(swapped, col), getattr(traj, col))


def test_contextual_rejects_identity_claim():
    traj = generate(small_config(contextual_rate=0.0, collective_rate=0.0),
                    REGISTRY).trajectories[0]
    with pytest.raises(UnregisteredFalsification):
        inject_contextual(traj, NavStatus.UNDER_WAY_USING_ENGINE, REGISTRY)


def test_contextual_rejects_unregistered_claim():
    # no vessel type has an "other" context in the registry
    traj = generate(small_config(contextual_rate=0.0, collective_rate=0.0),
                    REGISTRY).trajectories[0]
    with pytest.raises(UnregisteredFalsification):
        inject_contextual(traj, NavStatus.OTHER, REGISTRY)


def test_contextual_truth_tags_whole_vessel():
    res = generate(small_config(), REGISTRY)
    spans = [s for s in res.truth if s.truth.kind == "contextual"]
    assert spans, "rate 0.25 over 4 falsifiable vessels injects at least one"
    by_mmsi = {t.mmsi: t for t in res.trajectories}
    assert len({s.mmsi for s in spans}) == len(spans)    # one span per vessel
    for s in spans:
        ts = by_mmsi[s.mmsi].ts
        assert (s.first_ts, s.last_ts) == (ts[0], ts[-1])
        assert s.truth.true_context == 0


# --- collective injection ----------------------------------------------------------

def test_collective_displaces_span_only():
    traj = generate(small_config(contextual_rate=0.0, collective_rate=0.0),
                    REGISTRY).trajectories[0]
    start, span, mag = 40, 6, 3000.0
    shifted = inject_collective(traj, start, span, mag, heading_deg=90.0)
    orig, new = traj, shifted
    assert np.array_equal(new.lat[:start + 1], orig.lat[:start + 1])
    assert np.array_equal(new.lon[:start + 1], orig.lon[:start + 1])
    for i in range(start + 1, start + span + 1):
        step = haversine(new.lat[i - 1], new.lon[i - 1], new.lat[i], new.lon[i])
        assert step == pytest.approx(mag, rel=1e-6)
    # afterwards the original displacement vectors replay from the new spot
    for i in range(start + span + 1, len(orig)):
        d_orig = haversine(orig.lat[i - 1], orig.lon[i - 1],
                           orig.lat[i], orig.lon[i])
        d_new = haversine(new.lat[i - 1], new.lon[i - 1],
                          new.lat[i], new.lon[i])
        assert d_new == pytest.approx(d_orig, rel=1e-4, abs=0.5)
    assert np.array_equal(new.sog, orig.sog)


def test_collective_rejects_bad_span():
    traj = generate(small_config(contextual_rate=0.0, collective_rate=0.0),
                    REGISTRY).trajectories[0]
    with pytest.raises(ValueError):
        inject_collective(traj, 248, 5, 1000.0, 0.0)


def test_collective_truth_tags_touched_windows():
    cfg = small_config(contextual_rate=0.0)
    res = generate(cfg, REGISTRY)
    spans = [s for s in res.truth if s.truth.kind == "collective"]
    assert spans
    by_mmsi = {t.mmsi: t for t in res.trajectories}
    for s in spans:
        traj = by_mmsi[s.mmsi]
        stamps = traj.ts.tolist()
        lo, hi = stamps.index(s.first_ts), stamps.index(s.last_ts)
        # the span is exactly the displaced messages, each one a full step
        assert hi - lo + 1 == cfg.collective_span
        for i in range(lo, hi + 1):
            assert haversine(traj.lat[i - 1], traj.lon[i - 1], traj.lat[i],
                             traj.lon[i]) == pytest.approx(
                cfg.collective_magnitude_m, rel=1e-6)
        # the windows cut from the vessel carry the tag iff they touch the span
        windows = attach_truth(segment(traj, enrich(traj), REGISTRY), res.truth)
        touched = [w.truth.kind == "collective" for w in windows]
        assert touched == [ws <= hi and lo <= ws + 49
                           for ws in range(0, len(stamps) - 49, 50)]


def test_anomaly_rate_rounds_up_to_one():
    cfg = small_config(contextual_rate=0.01, collective_rate=0.01)
    res = generate(cfg, REGISTRY)
    kinds = {s.truth.kind for s in res.truth}
    assert kinds == {"contextual", "collective"}


# --- file round trip ---------------------------------------------------------------

def test_fleet_files_round_trip(tmp_path):
    cfg = small_config()
    res = generate(cfg, REGISTRY)
    write_fleet(tmp_path, res)
    assert (tmp_path / "records.csv").exists()
    truth = load_truth(tmp_path / "truth.csv")
    assert truth == res.truth
    lines = (tmp_path / "truth.csv").read_text().splitlines()
    assert lines[0] == "mmsi,first_ts,last_ts,kind,true_context"
    assert len(lines) == len(res.truth) + 1
    ports = load_ports(tmp_path / "ports.csv")
    assert [tuple(p) for p in ports] == [tuple(p) for p in res.ports]


def test_fleet_files_byte_identical(tmp_path):
    res = generate(small_config(), REGISTRY)
    write_fleet(tmp_path / "a", res)
    write_fleet(tmp_path / "b", generate(small_config(), REGISTRY))
    for name in ("records.csv", "truth.csv", "ports.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_load_truth_refuses_a_file_without_span_columns(tmp_path):
    path = tmp_path / "truth.csv"
    # a file keyed by window number has no span columns
    path.write_text("mmsi,window,kind,true_context\n7,0,collective,\n")
    with pytest.raises(ConfigError, match="truth.csv.*first_ts"):
        load_truth(path)


def test_load_truth_refuses_a_reversed_span(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("mmsi,first_ts,last_ts,kind,true_context\n"
                    "7,100,200,collective,\n"
                    "8,300,299,contextual,5\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_truth(path)
