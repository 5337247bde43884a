"""Fleet generator: determinism, injection semantics, truth bookkeeping."""

from dataclasses import replace
from math import nan

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxae import synth
from ctxae.ais import MESSAGE_COLUMNS, NAV_STATUSES, Trajectory, context_registry, table_of
from ctxae.dataset import attach_truth, segment
from ctxae.errors import (ConfigError, UnmappedContext,
                          UnregisteredFalsification)
from ctxae.features import enrich
from ctxae.geo import bearing, destination, destination_array, haversine
from ctxae.synth import (ANCHOR_RADIUS_M, COLLECTIVE_MAGNITUDE_M, COLLECTIVE_SPAN,
                         HEADING_UNAVAILABLE_RATE, INTERVAL_JITTER_S, INTERVAL_S, KNOT_MPS,
                         START_TS, ZIGZAG_PERIOD, BehaviorModel, ContextPlan, PRESETS,
                         SynthConfig, generate, inject_collective, inject_contextual,
                         load_ports, load_truth, write_fleet)

REGISTRY = context_registry()


def small_config(**kw):
    defaults = dict(
        seed=5,
        plans=(
            ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=4,
                        falsify_to="moored"),
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
    ("collective_rate", 2.0), ("messages_per_vessel", 0),
])
def test_rejects_bad_scalars(field, value):
    with pytest.raises(ConfigError):
        small_config(**{field: value})


def test_rejects_collective_span_that_does_not_fit():
    # generate() would draw a start from an empty range
    assert COLLECTIVE_SPAN == 12
    with pytest.raises(ConfigError, match=r"messages_per_vessel 22 .*collective span of 12"):
        small_config(messages_per_vessel=22, collective_rate=0.5)
    small_config(messages_per_vessel=22, collective_rate=0.0)
    res = generate(small_config(messages_per_vessel=23, collective_rate=1.0), REGISTRY)
    assert any(s.kind == "collective" for s in res.truth)


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
    # the plan is refused when built, before any vessel is simulated
    for context_id in (999, 26, -1):
        with pytest.raises(UnmappedContext, match=f"context {context_id} is not in the registry"):
            ContextPlan(context_id=context_id, behavior=PRESETS["transit"], vessels=1)


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
                    falsify_to="moored"),
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
    falsified = {s.mmsi for s in res.truth if s.kind == "contextual"}
    moored = [t for t in res.trajectories
              if NAV_STATUSES[t.status[0]] == "moored"
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
    swapped = inject_contextual(traj, "moored", REGISTRY)
    assert all(NAV_STATUSES[c] == "moored" for c in swapped.status)
    # motion itself is untouched
    for col in ("ts", "lat", "lon", "sog", "cog", "vtype"):
        assert np.array_equal(getattr(swapped, col), getattr(traj, col))


def test_contextual_rejects_identity_claim():
    traj = generate(small_config(contextual_rate=0.0, collective_rate=0.0),
                    REGISTRY).trajectories[0]
    with pytest.raises(UnregisteredFalsification):
        inject_contextual(traj, "under_way_using_engine", REGISTRY)


def test_contextual_rejects_unregistered_claim():
    # no vessel type has an "other" context in the registry
    traj = generate(small_config(contextual_rate=0.0, collective_rate=0.0),
                    REGISTRY).trajectories[0]
    with pytest.raises(UnregisteredFalsification):
        inject_contextual(traj, "other", REGISTRY)


def test_contextual_truth_tags_whole_vessel():
    res = generate(small_config(), REGISTRY)
    spans = [s for s in res.truth if s.kind == "contextual"]
    assert spans, "rate 0.25 over 4 falsifiable vessels injects at least one"
    by_mmsi = {t.mmsi: t for t in res.trajectories}
    assert len({s.mmsi for s in spans}) == len(spans)    # one span per vessel
    for s in spans:
        ts = by_mmsi[s.mmsi].ts
        assert (s.first_ts, s.last_ts) == (ts[0], ts[-1])
        assert s.true_context == 0


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
    spans = [s for s in res.truth if s.kind == "collective"]
    assert spans
    by_mmsi = {t.mmsi: t for t in res.trajectories}
    for s in spans:
        traj = by_mmsi[s.mmsi]
        stamps = traj.ts.tolist()
        lo, hi = stamps.index(s.first_ts), stamps.index(s.last_ts)
        # the span is exactly the displaced messages, each one a full step
        assert hi - lo + 1 == COLLECTIVE_SPAN
        for i in range(lo, hi + 1):
            assert haversine(traj.lat[i - 1], traj.lon[i - 1], traj.lat[i],
                             traj.lon[i]) == pytest.approx(
                COLLECTIVE_MAGNITUDE_M, rel=1e-6)
        # the windows cut from the vessel carry the tag iff they touch the span
        windows = attach_truth(segment(traj, enrich(traj), REGISTRY, 50, 50),
                               res.truth)
        touched = (windows.truth == "collective").tolist()
        assert touched == [ws <= hi and lo <= ws + 49
                           for ws in range(0, len(stamps) - 49, 50)]


def test_anomaly_rate_rounds_up_to_one():
    cfg = small_config(contextual_rate=0.01, collective_rate=0.01)
    res = generate(cfg, REGISTRY)
    kinds = {s.kind for s in res.truth}
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


# --- the simulation loop against its reference form ---------------------------
# _simulate_vessel draws through numpy's own definitions of uniform and normal
# and computes the measurement channels in one numpy pass after its loop. This
# is the loop it replaced, kept as written: every uniform and normal draw
# through the Generator methods and every channel computed on its step. The
# two must give the same columns bit for bit.

def _reference_wrap_deg(angle: float) -> float:
    return angle % 360.0


def _reference_simulate_vessel(mmsi: int, pair: tuple[int, int], behavior: BehaviorModel,
                               n_msgs: int, seed: int,
                               ports: tuple[tuple[float, float], ...]) -> Trajectory:
    rng = np.random.default_rng([seed, mmsi])

    ts = START_TS + int(rng.integers(0, 86_400))
    base_speed = float(rng.uniform(behavior.speed_lo, behavior.speed_hi))
    # reported angles live on a 0/360 seam; any behavior whose course dwells
    # near it produces wrap jumps in the cog/heading/bearing channels that no
    # decoder can reconstruct, so every course band below keeps a margin.
    base_course = float(rng.uniform(75.0, 285.0))
    course = base_course

    # every voyage opens near a port and heads out along its base course.
    # The first half-window of a record stream has no predecessor for the
    # delta features and the motion model is still settling, so those steps
    # must stay inside the port exclusion radius where no kept window can
    # see them. Slow vessels get a repositioning leg out to their berth or
    # anchorage; it ends, brake included, inside the excluded span.
    port = ports[int(rng.integers(0, len(ports)))]
    stationary = behavior.kind in ("anchor_drift", "moored")
    start_dist = float(rng.uniform(300.0, 900.0)) if stationary \
        else float(rng.uniform(3500.0, 4700.0))
    lat, lon = destination(port[0], port[1], base_course, start_dist)
    prologue_steps = 100 if stationary else 0

    anchor = (lat, lon)
    current_bearing = float(rng.uniform(0.0, 360.0))

    # voyage legs for under-way vessels: course, speed and sea-state wiggle
    # are redrawn per leg so a single trajectory samples the whole operating
    # envelope instead of one point of it. Within a window the course is then
    # near-constant, which is the regularity a decoder can hold on to.
    leg_course = base_course
    leg_speed = base_speed
    leg_left = int(rng.integers(300, 600))
    turn_target: float | None = None
    turn_rate = 0.0
    wiggle = 0.0
    wig_mult = float(rng.uniform(0.5, 1.75))

    # zigzag geometry is redrawn per trawl pass (a few windows long) so the
    # spread lives between windows rather than averaging out inside one, and
    # no vessel owns a private operating point
    half_period = max(3, int(round(rng.normal(ZIGZAG_PERIOD, 1.0))))
    zz_phase = int(rng.integers(0, 2 * half_period))
    pass_left = 0
    amp = behavior.zigzag_amplitude_deg

    # receiver quality drifts in spells of a few windows. Reconstruction can
    # never predict measurement noise, so the per-window loss floor tracks
    # the spell level; that spread is what keeps loss thresholds honest.
    quality_left = 0
    quality = 1.0

    event_left = 0
    steps: list[tuple] = []

    for i in range(n_msgs):
        if quality_left == 0:
            quality_left = int(rng.integers(150, 400))
            quality = float(rng.uniform(0.8, 1.8))
        quality_left -= 1

        if event_left == 0 and rng.random() < behavior.event_rate:
            event_left = int(rng.integers(behavior.event_len_lo,
                              behavior.event_len_hi + 1))
        in_event = event_left > 0
        if event_left:
            event_left -= 1
        turn_factor = behavior.event_turn_factor if in_event else 1.0
        speed_factor = behavior.event_speed_factor if in_event else 1.0

        kind = behavior.kind
        if prologue_steps and i == prologue_steps:
            anchor = (lat, lon)
        if i < prologue_steps:
            course = base_course + float(rng.normal(0.0, 1.5))
            if i < prologue_steps - 5:
                speed = 4.5 + float(rng.normal(0.0, 0.1))
            else:
                speed = 0.9 * float(prologue_steps - 1 - i)
        elif kind in ("transit", "sailing"):
            if turn_target is None:
                leg_left -= 1
                if leg_left <= 0:
                    turn_target = float(rng.uniform(50.0, 310.0))
                    turn_rate = float(rng.uniform(1.0, 1.8))
                    leg_speed = float(rng.uniform(behavior.speed_lo,
                                                  behavior.speed_hi))
                    leg_left = int(rng.integers(300, 600))
                    wig_mult = float(rng.uniform(0.5, 1.75))
            else:
                step = min(turn_rate, abs(turn_target - leg_course))
                leg_course += step if turn_target > leg_course else -step
                if leg_course == turn_target:
                    turn_target = None
            wiggle = 0.9 * wiggle + float(
                rng.normal(0.0, behavior.turn_sigma_deg * wig_mult
                           * turn_factor))
            course = leg_course + wiggle
            speed = leg_speed + float(rng.normal(0.0, 0.2))
        elif kind == "fishing_zigzag":
            pass_left -= 1
            if pass_left <= 0:
                pass_left = int(rng.integers(100, 221))
                amp = min(max(rng.normal(behavior.zigzag_amplitude_deg, 7.0),
                              22.0), 58.0)
                base_speed = float(rng.uniform(behavior.speed_lo,
                                               behavior.speed_hi))
                half_period = min(max(
                    round(rng.normal(ZIGZAG_PERIOD, 1.5)), 7), 14)
            cyc = (i + zz_phase) // half_period
            sign = 1.0 if cyc % 2 == 0 else -1.0
            base_course = min(max(base_course + rng.normal(0.0, 0.5), 75.0),
                              285.0)
            course = base_course + sign * amp + float(
                rng.normal(0.0, behavior.turn_sigma_deg))
            speed = base_speed + float(rng.normal(0.0, 0.3))
        elif kind == "loiter":
            course += float(rng.normal(0.0, behavior.turn_sigma_deg * turn_factor))
            base_speed = min(max(base_speed + float(rng.normal(0.0, 0.05)),
                                 behavior.speed_lo), behavior.speed_hi)
            speed = base_speed + float(rng.normal(0.0, 0.1))
        elif kind == "anchor_drift":
            current_bearing += float(rng.normal(0.0, 4.0))
            course = current_bearing + float(
                rng.normal(0.0, behavior.turn_sigma_deg))
            if haversine(lat, lon, *anchor) > ANCHOR_RADIUS_M:
                course = bearing(lat, lon, *anchor) + float(rng.normal(0.0, 10.0))
            speed = abs(float(rng.normal(0.0, 0.15)))
        else:  # moored
            course = base_course + float(
                rng.normal(0.0, behavior.turn_sigma_deg * turn_factor))
            speed = min(abs(float(rng.normal(0.0, 0.03))), 0.1) * speed_factor

        course = _reference_wrap_deg(course)
        speed = min(max(speed, 0.0), 30.0)

        if i > 0:
            dt = max(1, int(round(INTERVAL_S + float(
                rng.uniform(-INTERVAL_JITTER_S, INTERVAL_JITTER_S)))))
            ts += dt
            lat, lon = destination(lat, lon, course, speed * KNOT_MPS * dt)

        # measurement noise: mostly tight, occasionally 3x (heavy tail). For
        # anchored vessels an event is a burst of degraded position fixes,
        # which moves the reported track without moving the vessel.
        noise_mult = 3.0 if rng.random() < 0.1 else 1.0
        noise_sigma = behavior.pos_noise_m * noise_mult * quality
        if kind == "anchor_drift" and in_event:
            # degraded-fix bursts have a characteristic level of their own;
            # they do not ride the receiver-quality spell
            noise_sigma = behavior.pos_noise_m * behavior.event_speed_factor
        noise_r = abs(float(rng.normal(0.0, noise_sigma)))
        noise_brg = float(rng.uniform(0.0, 360.0))

        sog = round(min(max(speed + float(rng.normal(0.0, 0.1 * quality)),
                            0.0), 40.0), 1)
        cog = _reference_wrap_deg(round(_reference_wrap_deg(
            course + float(rng.normal(0.0, 1.0 * quality))), 1))
        if rng.random() < HEADING_UNAVAILABLE_RATE:
            heading = nan
        else:
            heading = float(int(_reference_wrap_deg(
                course + float(rng.normal(0.0, 2.0 * quality)))))
        steps.append((ts, lat, lon, noise_brg, noise_r, sog, cog, heading))

    ts, lat, lon, noise_brg, noise_r, sog, cog, heading = map(np.array, zip(*steps))
    rep_lat, rep_lon = destination_array(lat, lon, noise_brg, noise_r)
    return Trajectory(
        mmsi=mmsi, ts=ts, lat=rep_lat, lon=rep_lon, sog=sog, cog=cog, heading=heading,
        status=np.full(n_msgs, pair[1], dtype=np.uint8),
        vtype=np.full(n_msgs, pair[0], dtype=np.uint8))


ORACLE_PLANS = (
    ContextPlan(context_id=0, behavior=PRESETS["transit"], vessels=2,
                falsify_to="moored"),
    ContextPlan(context_id=16, behavior=PRESETS["fishing_zigzag"], vessels=2,
                falsify_to="under_way_using_engine"),
    ContextPlan(context_id=10, behavior=PRESETS["loiter"], vessels=2),
    ContextPlan(context_id=5, behavior=PRESETS["anchor_drift"], vessels=2),
    ContextPlan(context_id=12, behavior=PRESETS["moored"], vessels=2),
    ContextPlan(context_id=21, behavior=PRESETS["sailing"], vessels=2),
    # frequent short events, so turns, anchored fix bursts and moored speed
    # events all occur on every seed
    ContextPlan(context_id=1, vessels=2, behavior=replace(
        PRESETS["transit"], event_rate=0.01, event_turn_factor=3.0)),
    ContextPlan(context_id=6, vessels=2, behavior=replace(
        PRESETS["anchor_drift"], event_rate=0.01, event_len_lo=20, event_len_hi=40)),
    ContextPlan(context_id=13, vessels=2, behavior=replace(
        PRESETS["moored"], event_rate=0.01, event_len_lo=20, event_len_hi=40)),
)


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
def test_simulation_equals_the_reference_loop_bit_for_bit(monkeypatch, seed):
    cfg = SynthConfig(seed=seed, plans=ORACLE_PLANS, messages_per_vessel=400,
                      contextual_rate=0.5, collective_rate=0.2,
                      ports=((12.0, -40.0), (-8.0, -32.0), (4.0, -20.0)))
    fast = generate(cfg, REGISTRY)
    monkeypatch.setattr(synth, "_simulate_vessel", _reference_simulate_vessel)
    reference = generate(cfg, REGISTRY)
    assert {s.kind for s in reference.truth} == {"contextual", "collective"}
    assert fast.truth == reference.truth
    assert [t.mmsi for t in fast.trajectories] == [t.mmsi for t in reference.trajectories]
    for got, want in zip(fast.trajectories, reference.trajectories):
        assert np.isnan(want.heading).any()
        for col in MESSAGE_COLUMNS:
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (got.mmsi, col)


# --- _round1 against Python's round ------------------------------------------------

def _same_as_round(values) -> None:
    v = np.asarray(values, dtype=np.float64)
    want = np.array([round(x, 1) for x in v.tolist()], dtype=np.float64)
    assert synth._round1(v).tobytes() == want.tobytes()


def test_round1_takes_round_at_stored_half_steps():
    # 0.15, 0.35 and 359.95 are stored just below their half step and 0.25
    # exactly on it; 10 * v lands on the half step for all four, and np.round
    # rounds three of them the other way
    cases = [0.15, 0.25, 0.35, 359.95]
    assert [round(v, 1) for v in cases] == [0.1, 0.2, 0.3, 359.9]
    assert np.round(np.array(cases), 1).tolist() == [0.2, 0.2, 0.4, 360.0]
    _same_as_round(cases)


@pytest.mark.parametrize("hi", [40, 360])
def test_round1_matches_round_next_to_every_half_step(hi):
    halves = (np.arange(10 * hi) + 0.5) / 10.0
    near = [halves]
    for direction in (-np.inf, np.inf):
        step = halves
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    _same_as_round(np.concatenate(near))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 40.0), st.floats(0.0, 360.0, exclude_max=True)),
                min_size=1, max_size=50))
@example([0.0, 40.0, 0.05, 359.99999999999994])
def test_round1_matches_round(values):
    _same_as_round(values)
