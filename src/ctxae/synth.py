"""Synthetic AIS fleet generator with ground-truth anomaly injection.

Behaviors are small per-step motion models (transit, zigzag fishing, anchor
drift, moored, loitering, sailing). Every vessel draws from its own RNG
stream seeded by (run seed, mmsi), so fleets are reproducible regardless of
generation order. Two anomaly types can be injected, each recorded as one
exact ``dataset.TruthSpan`` (mmsi, first_ts, last_ts, both inclusive, kind,
true_context: NO_CONTEXT, an empty field in truth.csv, when collective):

* contextual: a vessel broadcasts a false navigational status on every
  message, so its windows land in the wrong context while the motion stays
  true to the real one. The span runs from its first to its last message.
* collective: a run of ``COLLECTIVE_SPAN`` consecutive positions is
  displaced by a fixed large step (``COLLECTIVE_MAGNITUDE_M``), inconsistent
  with the reported speeds. The span covers the displaced messages.

Vessels are numbered from ``BASE_MMSI``. These and the behaviour constants
no preset varies are not config keys: a run sets only the fleet's plans,
length, rates and ports.

Ground truth never refers to windows: which windows a span tags is decided
when the dataset is cut, for any window length and stride.

A vessel is simulated step by step, since each step moves from the last.
The loop keeps only what feeds a later draw: the motion state machine, the
RNG draws themselves and the chain of true positions, which anchor drift
reads back. Each scalar draw is written out as numpy defines it
(``random_uniform`` and ``random_normal`` in its ``distributions.c``). That
takes the same values from the same stream without the argument handling of
``Generator.uniform`` and ``Generator.normal``: about 0.6 us a draw against
1.7 us and 0.75 us (Python 3.11, numpy 2.4, x86-64):

* ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``;
* ``normal(loc, s)`` is ``loc + s * standard_normal()``. The ``0.0 +`` stays
  where ``loc`` is 0.0, so a zero product comes out as +0.0, as from
  ``normal``.

The measurement draws never feed back into the motion. The loop saves them
in their stream order, and ``_measure`` turns them into the reported
channels in one numpy pass, with the operations of the per-step
expressions in the same order: the noise radius and bearing, applied by
``geo.destination_array`` (equal to the scalar ``geo.destination`` bit for
bit), then sog, cog and heading. sog and cog are rounded to one decimal as
Python's ``round(v, 1)`` does, by ``_round1``. ``round`` rounds the exact
binary value, ``np.round`` the product ``10 * v`` after it was rounded to a
double, and both then give the double nearest k / 10 for their integer k.
So they differ only where that product crossed or reached a half step: 0.15,
stored as 0.1499..., gives 0.1 from ``round`` and 0.2 from ``np.round``. The
product is within half an ULP of the exact ``10 * v``, so ``_round1`` takes
``np.round`` and asks ``round`` again only where the product lies within a
few ULPs of a half step, which noisy channels almost never do.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from math import nan
from pathlib import Path

import numpy as np

from .ais import (BLOCK_ROWS, CANONICAL_FIELDS, NAV_STATUSES, TABLE_DTYPES,
                  VESSEL_TYPES, ContextRegistry, Trajectory, context_registry, table_of)
from .dataset import NO_CONTEXT, TruthSpan
from .errors import ConfigError, UnmappedContext, UnregisteredFalsification
from .geo import bearing, destination, destination_array, haversine, steps_array
from .manifest import csv_bytes, read_once, text, write_file, write_files

KNOT_MPS = 0.514444
START_TS = 1_600_000_000
BASE_MMSI = 200_000_000          # vessels are numbered from BASE_MMSI + 1
COLLECTIVE_SPAN = 12             # messages displaced by a collective injection
COLLECTIVE_MAGNITUDE_M = 3000.0  # the length of each displaced step
INTERVAL_S = 30.0                # mean time between a vessel's messages
INTERVAL_JITTER_S = 5.0          # half-width of the uniform jitter around it
HEADING_UNAVAILABLE_RATE = 0.05  # share of messages that report no heading
ZIGZAG_PERIOD = 10               # mean messages per leg of a fishing zigzag
ANCHOR_RADIUS_M = 300.0          # drift beyond which an anchored vessel heads back


@dataclass(frozen=True)
class BehaviorModel:
    """Per-step motion model parameters for one vessel archetype."""

    kind: str
    speed_lo: float
    speed_hi: float
    turn_sigma_deg: float = 2.0
    pos_noise_m: float = 15.0
    event_rate: float = 0.004
    event_turn_factor: float = 4.0
    event_speed_factor: float = 1.0
    event_len_lo: int = 8
    event_len_hi: int = 16
    zigzag_amplitude_deg: float = 40.0

    def __post_init__(self):
        if self.kind not in PRESET_KINDS:
            raise ConfigError(f"unknown behavior kind {self.kind!r}")
        if not 0.0 <= self.speed_lo <= self.speed_hi <= 30.0:
            raise ConfigError(
                f"speed range must satisfy 0 <= lo <= hi <= 30 kn, "
                f"got [{self.speed_lo}, {self.speed_hi}]")
        if not 0 < self.event_len_lo <= self.event_len_hi:
            raise ConfigError("event length range must satisfy 0 < lo <= hi")


PRESET_KINDS = ("transit", "fishing_zigzag", "loiter", "anchor_drift",
                "moored", "sailing")

PRESETS: dict[str, BehaviorModel] = {
    "transit": BehaviorModel(
        kind="transit", speed_lo=8.0, speed_hi=12.0, turn_sigma_deg=2.0,
        event_rate=0.0),
    "fishing_zigzag": BehaviorModel(
        kind="fishing_zigzag", speed_lo=1.0, speed_hi=4.0, turn_sigma_deg=3.0,
        zigzag_amplitude_deg=40.0, event_rate=0.003,
        event_turn_factor=2.5),
    "loiter": BehaviorModel(
        kind="loiter", speed_lo=0.5, speed_hi=2.0, turn_sigma_deg=30.0),
    "anchor_drift": BehaviorModel(
        kind="anchor_drift", speed_lo=0.0, speed_hi=0.5, turn_sigma_deg=15.0,
        pos_noise_m=10.0, event_rate=0.0006, event_speed_factor=20.0,
        event_turn_factor=1.0, event_len_lo=180, event_len_hi=360),
    "moored": BehaviorModel(
        kind="moored", speed_lo=0.0, speed_hi=0.1, turn_sigma_deg=3.0,
        pos_noise_m=3.0, event_rate=0.0008, event_turn_factor=3.0,
        event_speed_factor=3.0, event_len_lo=180, event_len_hi=360),
    "sailing": BehaviorModel(
        kind="sailing", speed_lo=2.0, speed_hi=5.0, turn_sigma_deg=3.0,
        pos_noise_m=6.0, event_rate=0.0006, event_speed_factor=2.0,
        event_turn_factor=1.0, event_len_lo=180, event_len_hi=360),
}


@dataclass(frozen=True)
class ContextPlan:
    """How many vessels to generate for one registered context and how they move."""

    context_id: int
    behavior: BehaviorModel
    vessels: int
    falsify_to: str | None = None   # status name its contextual anomalies claim

    def __post_init__(self):
        if self.vessels <= 0:
            raise ConfigError("each context plan needs at least one vessel")
        registry = context_registry()
        if not 0 <= self.context_id < len(registry):
            raise UnmappedContext(f"context {self.context_id} is not in the registry")
        if self.falsify_to is not None:
            _claimed_status(registry, *registry.pairs[self.context_id], self.falsify_to)


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    plans: tuple[ContextPlan, ...]
    messages_per_vessel: int = 4000
    contextual_rate: float = 0.0
    collective_rate: float = 0.0
    ports: tuple[tuple[float, float], ...] = ((55.0, 10.0),)

    def __post_init__(self):
        if not self.plans:
            raise ConfigError("synthetic run needs at least one context plan")
        if not 0.0 <= self.contextual_rate <= 1.0:
            raise ConfigError("contextual_rate must be in [0, 1]")
        if not 0.0 <= self.collective_rate <= 1.0:
            raise ConfigError("collective_rate must be in [0, 1]")
        if self.messages_per_vessel < 1:
            raise ConfigError("messages_per_vessel must be positive")
        # an injection starts at least 5 messages from either end of the track
        if self.collective_rate > 0 and self.messages_per_vessel <= COLLECTIVE_SPAN + 10:
            raise ConfigError(
                f"messages_per_vessel {self.messages_per_vessel} leaves no room for a "
                f"collective span of {COLLECTIVE_SPAN} messages; it must exceed the span by 10")
        ids = [p.context_id for p in self.plans]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate context ids in synthetic plan")


@dataclass
class SynthResult:
    trajectories: list[Trajectory]
    truth: list[TruthSpan]   # sorted by (mmsi, first_ts, last_ts)
    ports: tuple[tuple[float, float], ...]


def _simulate_vessel(mmsi: int, pair: tuple[int, int], behavior: BehaviorModel,
                     n_msgs: int, seed: int,
                     ports: tuple[tuple[float, float], ...]) -> Trajectory:
    """One vessel's track; pair is its context's (vessel type, status) codes."""
    rng = np.random.default_rng([seed, mmsi])
    # uniform and normal are written out as numpy defines them (module doc)
    random, normal = rng.random, rng.standard_normal
    integers = rng.integers
    kind = behavior.kind
    speed_lo, speed_hi = behavior.speed_lo, behavior.speed_hi
    turn_sigma = behavior.turn_sigma_deg
    event_rate = behavior.event_rate
    event_len_lo, event_len_end = behavior.event_len_lo, behavior.event_len_hi + 1
    event_turn_factor = behavior.event_turn_factor
    event_speed_factor = behavior.event_speed_factor
    interval, jitter_lo, jitter_hi = INTERVAL_S, -INTERVAL_JITTER_S, INTERVAL_JITTER_S
    heading_unavailable_rate = HEADING_UNAVAILABLE_RATE

    ts = START_TS + int(integers(0, 86_400))
    base_speed = speed_lo + (speed_hi - speed_lo) * random()
    # reported angles live on a 0/360 seam; any behavior whose course dwells
    # near it produces wrap jumps in the cog/heading/bearing channels that no
    # decoder can reconstruct, so every course band below keeps a margin.
    base_course = 75.0 + (285.0 - 75.0) * random()
    course = base_course

    # every voyage opens near a port and heads out along its base course.
    # The first half-window of a record stream has no predecessor for the
    # delta features and the motion model is still settling, so those steps
    # must stay inside the port exclusion radius where no kept window can
    # see them. Slow vessels get a repositioning leg out to their berth or
    # anchorage; it ends, brake included, inside the excluded span.
    port = ports[int(integers(0, len(ports)))]
    stationary = kind in ("anchor_drift", "moored")
    start_dist = 300.0 + (900.0 - 300.0) * random() if stationary \
        else 3500.0 + (4700.0 - 3500.0) * random()
    lat, lon = destination(port[0], port[1], base_course, start_dist)
    prologue_steps = 100 if stationary else 0

    anchor = (lat, lon)
    current_bearing = 0.0 + (360.0 - 0.0) * random()

    # voyage legs for under-way vessels: course, speed and sea-state wiggle
    # are redrawn per leg so a single trajectory samples the whole operating
    # envelope instead of one point of it. Within a window the course is then
    # near-constant, which is the regularity a decoder can hold on to.
    leg_course = base_course
    leg_speed = base_speed
    leg_left = int(integers(300, 600))
    turn_target: float | None = None
    turn_rate = 0.0
    wiggle = 0.0
    wig_mult = 0.5 + (1.75 - 0.5) * random()

    # zigzag geometry is redrawn per trawl pass (a few windows long) so the
    # spread lives between windows rather than averaging out inside one, and
    # no vessel owns a private operating point
    half_period = max(3, round(ZIGZAG_PERIOD + 1.0 * normal()))
    zz_phase = int(integers(0, 2 * half_period))
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
            quality_left = int(integers(150, 400))
            quality = 0.8 + (1.8 - 0.8) * random()
        quality_left -= 1

        if event_left == 0 and random() < event_rate:
            event_left = int(integers(event_len_lo, event_len_end))
        in_event = event_left > 0
        if event_left:
            event_left -= 1
        turn_factor = event_turn_factor if in_event else 1.0

        if prologue_steps and i == prologue_steps:
            anchor = (lat, lon)
        if i < prologue_steps:
            course = base_course + (0.0 + 1.5 * normal())
            if i < prologue_steps - 5:
                speed = 4.5 + (0.0 + 0.1 * normal())
            else:
                speed = 0.9 * float(prologue_steps - 1 - i)
        elif kind in ("transit", "sailing"):
            if turn_target is None:
                leg_left -= 1
                if leg_left <= 0:
                    turn_target = 50.0 + (310.0 - 50.0) * random()
                    turn_rate = 1.0 + (1.8 - 1.0) * random()
                    leg_speed = speed_lo + (speed_hi - speed_lo) * random()
                    leg_left = int(integers(300, 600))
                    wig_mult = 0.5 + (1.75 - 0.5) * random()
            else:
                step = min(turn_rate, abs(turn_target - leg_course))
                leg_course += step if turn_target > leg_course else -step
                if leg_course == turn_target:
                    turn_target = None
            wiggle = 0.9 * wiggle + (0.0 + turn_sigma * wig_mult * turn_factor * normal())
            course = leg_course + wiggle
            speed = leg_speed + (0.0 + 0.2 * normal())
        elif kind == "fishing_zigzag":
            pass_left -= 1
            if pass_left <= 0:
                pass_left = int(integers(100, 221))
                amp = min(max(behavior.zigzag_amplitude_deg + 7.0 * normal(), 22.0), 58.0)
                base_speed = speed_lo + (speed_hi - speed_lo) * random()
                half_period = min(max(round(ZIGZAG_PERIOD + 1.5 * normal()), 7), 14)
            cyc = (i + zz_phase) // half_period
            sign = 1.0 if cyc % 2 == 0 else -1.0
            base_course = min(max(base_course + (0.0 + 0.5 * normal()), 75.0), 285.0)
            course = base_course + sign * amp + (0.0 + turn_sigma * normal())
            speed = base_speed + (0.0 + 0.3 * normal())
        elif kind == "loiter":
            course += 0.0 + turn_sigma * turn_factor * normal()
            base_speed = min(max(base_speed + (0.0 + 0.05 * normal()), speed_lo), speed_hi)
            speed = base_speed + (0.0 + 0.1 * normal())
        elif kind == "anchor_drift":
            current_bearing += 0.0 + 4.0 * normal()
            course = current_bearing + (0.0 + turn_sigma * normal())
            if haversine(lat, lon, *anchor) > ANCHOR_RADIUS_M:
                course = bearing(lat, lon, *anchor) + (0.0 + 10.0 * normal())
            speed = abs(0.0 + 0.15 * normal())
        else:  # moored
            course = base_course + (0.0 + turn_sigma * turn_factor * normal())
            speed = min(abs(0.0 + 0.03 * normal()), 0.1) \
                * (event_speed_factor if in_event else 1.0)

        course %= 360.0
        speed = 0.0 if speed < 0.0 else 30.0 if speed > 30.0 else speed

        if i > 0:
            dt = max(1, round(interval + (jitter_lo + (jitter_hi - jitter_lo) * random())))
            ts += dt
            lat, lon = destination(lat, lon, course, speed * KNOT_MPS * dt)

        # the measurement draws, in their stream order: noise scale, noise
        # radius, noise bearing, sog, cog, heading availability and heading;
        # _measure turns them into the reported channels
        steps.append((ts, lat, lon, course, speed, quality, in_event,
                      random(), normal(), random(), normal(), normal(),
                      nan if random() < heading_unavailable_rate else normal()))

    return _measure(mmsi, pair, behavior, steps)


def _measure(mmsi: int, pair: tuple[int, int], behavior: BehaviorModel,
             steps: list[tuple]) -> Trajectory:
    """The reported channels of a simulated track, from its per-step draws.

    Every value is the one the scalar expressions on each step give: the
    same operations in the same order, and ``round(v, 1)`` for sog and
    cog (see the module doc).
    """
    cols = np.array(steps, dtype=np.float64)
    (ts, lat, lon, course, speed, quality, in_event,
     scale_u, radius_z, bearing_u, sog_z, cog_z, heading_z) = cols.T
    n = cols.shape[0]

    # measurement noise: mostly tight, occasionally 3x (heavy tail). For
    # anchored vessels an event is a burst of degraded position fixes,
    # which moves the reported track without moving the vessel.
    noise_sigma = behavior.pos_noise_m * np.where(scale_u < 0.1, 3.0, 1.0) * quality
    if behavior.kind == "anchor_drift":
        # degraded-fix bursts have a characteristic level of their own;
        # they do not ride the receiver-quality spell
        noise_sigma[in_event != 0.0] = behavior.pos_noise_m * behavior.event_speed_factor
    noise_r = np.abs(0.0 + noise_sigma * radius_z)
    noise_brg = 0.0 + (360.0 - 0.0) * bearing_u
    rep_lat, rep_lon = destination_array(lat, lon, noise_brg, noise_r)

    sog = np.clip(speed + (0.0 + 0.1 * quality * sog_z), 0.0, 40.0)
    cog = (course + (0.0 + 1.0 * quality * cog_z)) % 360.0
    sog, cog = _round1(sog), _round1(cog)
    cog %= 360.0   # a course rounded up to 360.0 reports as 0.0
    heading = np.trunc((course + (0.0 + 2.0 * quality * heading_z)) % 360.0)
    vtype, status = pair
    return Trajectory(
        mmsi=mmsi, ts=ts.astype(np.int64), lat=rep_lat, lon=rep_lon,
        sog=sog, cog=cog, heading=heading,
        status=np.full(n, status, dtype=np.uint8), vtype=np.full(n, vtype, dtype=np.uint8))


def _round1(v: np.ndarray) -> np.ndarray:
    """Python's ``round(x, 1)`` of every element (see the module doc)."""
    tenths = v * 10.0
    out = np.rint(tenths) / 10.0     # np.round(v, 1), step for step
    near = np.abs(tenths - (np.floor(tenths) + 0.5)) <= 4.0 * np.spacing(tenths)
    for i in np.flatnonzero(near).tolist():
        out[i] = round(float(v[i]), 1)
    return out


def _claimed_status(registry: ContextRegistry, vtype: int, status: int, claimed: str) -> int:
    """The code of the status a vessel of the (vtype, status) codes claims;
    refuses a claim that maps to no registered context or to its own."""
    if claimed not in NAV_STATUSES:
        raise ConfigError(f"unknown nav status {claimed!r}")
    code = NAV_STATUSES.index(claimed)
    claimed_id, true_id = registry.context_ids(vtype, [code, status]).tolist()
    if claimed_id < 0:
        raise UnregisteredFalsification(
            f"({VESSEL_TYPES[vtype]}, {claimed}) is not a registered context")
    if claimed_id == true_id:
        raise UnregisteredFalsification("falsified status maps to the vessel's true context")
    return code


def inject_contextual(trajectory: Trajectory, claimed: str,
                      registry: ContextRegistry) -> Trajectory:
    """Broadcast the claimed status name on every message."""
    code = _claimed_status(registry, int(trajectory.vtype[0]), int(trajectory.status[0]),
                           claimed)
    return replace(trajectory, status=np.full(len(trajectory), code, dtype=np.uint8))


def inject_collective(trajectory: Trajectory, start: int, span: int,
                      magnitude_m: float, heading_deg: float) -> Trajectory:
    """Displace `span` consecutive steps by magnitude_m along one heading.

    Steps after the span replay their original displacement vectors from the
    new location, so only the span itself is anomalous. Reported speeds stay
    untouched and become inconsistent with the motion.
    """
    n = len(trajectory)
    if not 0 <= start < start + span < n:
        raise ValueError(f"span [{start}, {start + span}] outside trajectory of {n}")

    # the original steps replayed after the span, each message from the one before
    end = start + span
    prev = (trajectory.lat[end:-1], trajectory.lon[end:-1])
    cur = (trajectory.lat[end + 1:], trajectory.lon[end + 1:])
    dist, brg = steps_array(*prev, *cur)
    steps = list(zip(brg.tolist(), dist.tolist()))

    lats, lons = trajectory.lat.copy(), trajectory.lon.copy()
    lat, lon = float(lats[start]), float(lons[start])
    for i in range(start + 1, n):
        if i <= end:
            lat, lon = destination(lat, lon, heading_deg, magnitude_m)
        else:
            lat, lon = destination(lat, lon, *steps[i - end - 1])
        lats[i], lons[i] = lat, lon
    return replace(trajectory, lat=lats, lon=lons)


def generate(config: SynthConfig, registry: ContextRegistry) -> SynthResult:
    """Build the full fleet, inject anomalies, and emit exact truth tags."""
    plan_vessels: dict[int, list[tuple[int, ContextPlan]]] = {}
    mmsi_counter = BASE_MMSI
    for plan in config.plans:
        vessels = []
        for _ in range(plan.vessels):
            mmsi_counter += 1
            vessels.append((mmsi_counter, plan))
        plan_vessels[plan.context_id] = vessels

    # pick anomaly carriers up front; counts round up so a nonzero rate
    # always injects at least one vessel
    falsified: dict[int, ContextPlan] = {}
    for plan in config.plans:
        if plan.falsify_to is None or config.contextual_rate == 0.0:
            continue
        members = plan_vessels[plan.context_id]
        k = min(len(members),
                max(1, round(config.contextual_rate * len(members))))
        pick_rng = np.random.default_rng([config.seed, 7, plan.context_id])
        for j in pick_rng.choice(len(members), size=k, replace=False):
            mmsi, _ = members[int(j)]
            falsified[mmsi] = plan

    collective: set[int] = set()
    if config.collective_rate > 0.0:
        pool = sorted(m for vs in plan_vessels.values() for m, _ in vs
                      if m not in falsified)
        k = min(len(pool), max(1, round(config.collective_rate * len(pool))))
        pick_rng = np.random.default_rng([config.seed, 8])
        collective = {pool[int(j)]
                      for j in pick_rng.choice(len(pool), size=k, replace=False)}

    trajectories: list[Trajectory] = []
    truth: list[TruthSpan] = []

    for plan in config.plans:
        for mmsi, _ in plan_vessels[plan.context_id]:
            traj = _simulate_vessel(mmsi, registry.pairs[plan.context_id], plan.behavior,
                                    config.messages_per_vessel, config.seed, config.ports)

            if mmsi in falsified:
                traj = inject_contextual(traj, plan.falsify_to, registry)
                truth.append(TruthSpan(mmsi, int(traj.ts[0]), int(traj.ts[-1]),
                                       "contextual", plan.context_id))

            if mmsi in collective:
                inj_rng = np.random.default_rng([config.seed, mmsi, 3])
                lo, hi = 5, config.messages_per_vessel - COLLECTIVE_SPAN - 5
                start = int(inj_rng.integers(lo, hi))
                heading_deg = float(inj_rng.uniform(0.0, 360.0))
                traj = inject_collective(traj, start, COLLECTIVE_SPAN,
                                         COLLECTIVE_MAGNITUDE_M, heading_deg)
                truth.append(TruthSpan(mmsi, int(traj.ts[start + 1]),
                                       int(traj.ts[start + COLLECTIVE_SPAN]),
                                       "collective"))

            trajectories.append(traj)

    return SynthResult(trajectories=trajectories, truth=truth,
                       ports=config.ports)


# --- file round-trip -------------------------------------------------------------

TRUTH_COLUMNS = ("mmsi", "first_ts", "last_ts", "kind", "true_context")


def write_fleet(out_dir: Path, result: SynthResult) -> dict[Path, str]:
    """Write records.csv, truth.csv and ports.csv; their sha256, by path."""
    table = table_of(result.trajectories)
    order = np.lexsort((table.ts, table.mmsi))

    def records():     # a block of rows at a time, never the whole file in memory
        yield (",".join(CANONICAL_FIELDS) + "\n").encode()
        for first in range(0, len(order), BLOCK_ROWS):
            rows = order[first:first + BLOCK_ROWS]
            yield "".join(
                f"{mmsi},{ts},{lat!r},{lon!r},{sog!r},{cog!r},"
                f"{'unavailable' if heading != heading else repr(heading)},"
                f"{NAV_STATUSES[status]},{VESSEL_TYPES[vtype]}\n"
                for mmsi, ts, lat, lon, sog, cog, heading, status, vtype in zip(
                    *(getattr(table, c)[rows].tolist() for c in TABLE_DTYPES))).encode()
    spans = sorted(result.truth, key=lambda s: (s.mmsi, s.first_ts, s.last_ts))
    records_path = out_dir / "records.csv"
    return {records_path: write_file(records_path, records())} | write_files(out_dir, {
        "truth.csv": csv_bytes([TRUTH_COLUMNS] + [
            [s.mmsi, s.first_ts, s.last_ts, s.kind,
             "" if s.true_context == NO_CONTEXT else s.true_context] for s in spans]),
        "ports.csv": csv_bytes([["lat", "lon"]] + [
            [repr(float(lat)), repr(float(lon))] for lat, lon in result.ports]),
    })


def load_truth(path: Path) -> list[TruthSpan]:
    """The truth spans in file order; a malformed file raises ConfigError."""
    spans: list[TruthSpan] = []
    reader = csv.DictReader(text(read_once(path)))
    missing = [c for c in TRUTH_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"truth file {path} lacks columns {missing}")
    for row in reader:
        try:
            spans.append(TruthSpan(
                int(row["mmsi"]), int(row["first_ts"]), int(row["last_ts"]),
                row["kind"], int(row["true_context"] or NO_CONTEXT)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"truth file {path} line {reader.line_num}: {exc}") from exc
    return spans


def load_ports(path: Path) -> list[tuple[float, float]]:
    """The ports in file order."""
    return [(float(r["lat"]), float(r["lon"]))
            for r in csv.DictReader(text(read_once(path)))]
