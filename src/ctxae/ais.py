"""AIS domain model: messages, trajectories, and the context registry.

A *context* is a (vessel type, navigational status) pair. The built-in
registry enumerates the 26 registered pairs with stable ids c0..c25; pairs
outside the registry map to ``UNREGISTERED``.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, TextIO

from .errors import MissingField, ParseError, RangeError, UnknownEnumToken


class NavStatus(Enum):
    UNDER_WAY_USING_ENGINE = "under_way_using_engine"
    AT_ANCHOR = "at_anchor"
    NOT_UNDER_COMMAND = "not_under_command"
    RESTRICTED_MANEUVERABILITY = "restricted_maneuverability"
    MOORED = "moored"
    ENGAGED_IN_FISHING = "engaged_in_fishing"
    UNDER_WAY_SAILING = "under_way_sailing"
    OTHER = "other"


class VesselType(Enum):
    DRIFTING_LONGLINES = "drifting_longlines"
    SET_LONGLINES = "set_longlines"
    SQUID_JIGGER = "squid_jigger"
    TRAWLERS = "trawlers"
    TUNA_PURSE_SEINES = "tuna_purse_seines"
    UNKNOWN = "unknown"


# Raw AIS encodes "heading unavailable" as 511 degrees; internally the
# sentinel is None so it can never leak into angle arithmetic.
HEADING_UNAVAILABLE_TOKEN = "511"


@dataclass(frozen=True)
class AisMessage:
    """One time-stamped position report.

    heading is None when the vessel reported it unavailable.
    """

    mmsi: int
    timestamp: int
    lat: float
    lon: float
    sog: float
    cog: float
    heading: float | None
    nav_status: NavStatus
    vessel_type: VesselType

    def __post_init__(self):
        if self.mmsi <= 0:
            raise ValueError(f"mmsi must be positive, got {self.mmsi}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat out of range: {self.lat}")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"lon out of range: {self.lon}")
        if self.sog < 0.0:
            raise ValueError(f"sog must be >= 0, got {self.sog}")
        if not 0.0 <= self.cog < 360.0:
            raise ValueError(f"cog out of range: {self.cog}")
        if self.heading is not None and not 0.0 <= self.heading < 360.0:
            raise ValueError(f"heading out of range: {self.heading}")


@dataclass(frozen=True)
class ContextLabel:
    id: int
    vessel_type: VesselType
    nav_status: NavStatus

    @property
    def name(self) -> str:
        return f"c{self.id}"


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered messages of a single vessel (timestamps non-decreasing)."""

    mmsi: int
    messages: tuple[AisMessage, ...]

    def __post_init__(self):
        if not self.messages:
            raise ValueError("trajectory must hold at least one message")
        if any(m.mmsi != self.mmsi for m in self.messages):
            raise ValueError("all messages must share the trajectory mmsi")
        ts = [m.timestamp for m in self.messages]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.messages)


# Registered (status, vessel type) pairs, ids c0..c25. Grouped by status:
# engine c0-c4, anchor c5-c7, not-under-command c8, restricted c9-c11,
# moored c12-c15, fishing c16-c20, sailing c21-c25.
_REGISTRY_ROWS: list[tuple[NavStatus, list[VesselType]]] = [
    (NavStatus.UNDER_WAY_USING_ENGINE, [
        VesselType.DRIFTING_LONGLINES, VesselType.SET_LONGLINES,
        VesselType.SQUID_JIGGER, VesselType.TRAWLERS,
        VesselType.TUNA_PURSE_SEINES]),
    (NavStatus.AT_ANCHOR, [
        VesselType.DRIFTING_LONGLINES, VesselType.TRAWLERS,
        VesselType.TUNA_PURSE_SEINES]),
    (NavStatus.NOT_UNDER_COMMAND, [VesselType.DRIFTING_LONGLINES]),
    (NavStatus.RESTRICTED_MANEUVERABILITY, [
        VesselType.DRIFTING_LONGLINES, VesselType.SQUID_JIGGER,
        VesselType.TRAWLERS]),
    (NavStatus.MOORED, [
        VesselType.DRIFTING_LONGLINES, VesselType.SQUID_JIGGER,
        VesselType.TRAWLERS, VesselType.TUNA_PURSE_SEINES]),
    (NavStatus.ENGAGED_IN_FISHING, [
        VesselType.DRIFTING_LONGLINES, VesselType.SET_LONGLINES,
        VesselType.SQUID_JIGGER, VesselType.TRAWLERS,
        VesselType.TUNA_PURSE_SEINES]),
    (NavStatus.UNDER_WAY_SAILING, [
        VesselType.DRIFTING_LONGLINES, VesselType.SET_LONGLINES,
        VesselType.SQUID_JIGGER, VesselType.TRAWLERS,
        VesselType.TUNA_PURSE_SEINES]),
]


def _build_default_registry() -> tuple[ContextLabel, ...]:
    labels = []
    next_id = 0
    for status, vessel_types in _REGISTRY_ROWS:
        for vt in vessel_types:
            labels.append(ContextLabel(next_id, vt, status))
            next_id += 1
    return tuple(labels)


_DEFAULT_REGISTRY = _build_default_registry()


class ContextRegistry:
    """Bijective table between ids and (vessel_type, nav_status) pairs."""

    def __init__(self, labels: Iterable[ContextLabel] | None = None):
        self.labels: tuple[ContextLabel, ...] = (
            tuple(labels) if labels is not None else _DEFAULT_REGISTRY
        )
        self._by_pair = {(l.vessel_type, l.nav_status): l for l in self.labels}
        self._by_id = {l.id: l for l in self.labels}
        if len(self._by_pair) != len(self.labels) or len(self._by_id) != len(self.labels):
            raise ValueError("registry ids and (type, status) pairs must be unique")
        for label in self.labels:
            if label.vessel_type is VesselType.UNKNOWN or label.nav_status is NavStatus.OTHER:
                raise ValueError("unknown type / other status can never be registered")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[ContextLabel]:
        return iter(self.labels)

    def lookup(self, vessel_type: VesselType, nav_status: NavStatus) -> ContextLabel | None:
        """Total context function: the registry entry, or None if unregistered."""
        return self._by_pair.get((vessel_type, nav_status))

    def by_id(self, context_id: int) -> ContextLabel:
        return self._by_id[context_id]

    def has_id(self, context_id: int) -> bool:
        return context_id in self._by_id

    def context_of(self, message: AisMessage) -> ContextLabel | None:
        return self.lookup(message.vessel_type, message.nav_status)

    def serialize(self) -> str:
        lines = [
            f"{l.id},{l.vessel_type.value},{l.nav_status.value}"
            for l in sorted(self.labels, key=lambda l: l.id)
        ]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def context_registry() -> ContextRegistry:
    """The built-in 26-context registry with stable ids c0..c25."""
    return ContextRegistry()


def ctx(vessel_type: VesselType, nav_status: NavStatus,
        registry: ContextRegistry | None = None) -> ContextLabel | None:
    """Context for a (vessel type, status) pair; None means unregistered."""
    reg = registry if registry is not None else _SHARED_REGISTRY
    return reg.lookup(vessel_type, nav_status)


_SHARED_REGISTRY = ContextRegistry()


# --- ingestion ----------------------------------------------------------------

CANONICAL_FIELDS = (
    "mmsi", "timestamp", "lat", "lon", "sog", "cog",
    "heading", "nav_status", "vessel_type",
)


def _parse_record(record: dict[str, str], schema: dict[str, str],
                  line_no: int) -> AisMessage:
    values: dict[str, str] = {}
    for field in CANONICAL_FIELDS:
        column = schema.get(field, field)
        if column not in record or record[column] == "":
            raise MissingField(line_no, f"missing field {field!r} (column {column!r})")
        values[field] = record[column]

    try:
        mmsi = int(values["mmsi"])
        timestamp = int(values["timestamp"])
        lat = float(values["lat"])
        lon = float(values["lon"])
        sog = float(values["sog"])
        cog = float(values["cog"])
    except ValueError as exc:
        raise RangeError(line_no, f"non-numeric field: {exc}") from None

    heading_token = values["heading"].strip().lower()
    if heading_token in ("unavailable", HEADING_UNAVAILABLE_TOKEN, "511.0"):
        heading: float | None = None
    else:
        try:
            heading = float(heading_token)
        except ValueError:
            raise RangeError(line_no, f"bad heading {values['heading']!r}") from None

    try:
        nav_status = NavStatus(values["nav_status"].strip().lower())
    except ValueError:
        raise UnknownEnumToken(line_no, f"unknown nav_status {values['nav_status']!r}") from None
    try:
        vessel_type = VesselType(values["vessel_type"].strip().lower())
    except ValueError:
        raise UnknownEnumToken(line_no, f"unknown vessel_type {values['vessel_type']!r}") from None

    try:
        return AisMessage(mmsi=mmsi, timestamp=timestamp, lat=lat, lon=lon,
                          sog=sog, cog=cog, heading=heading,
                          nav_status=nav_status, vessel_type=vessel_type)
    except ValueError as exc:
        raise RangeError(line_no, str(exc)) from None


def parse_messages(stream: TextIO, schema: dict[str, str] | None = None,
                   ) -> tuple[list[AisMessage], list[ParseError]]:
    """Parse a CSV record stream (header row required) into messages.

    Malformed records are collected as located errors, never silently
    dropped; well-formed records keep their input order.
    """
    schema = schema or {}
    reader = csv.DictReader(stream)
    messages: list[AisMessage] = []
    errors: list[ParseError] = []
    # line 1 is the header, data starts at line 2
    for line_no, record in enumerate(reader, start=2):
        try:
            messages.append(_parse_record(record, schema, line_no))
        except ParseError as exc:
            errors.append(exc)
    return messages, errors


def serialize_messages(messages: Iterable[AisMessage], stream: TextIO) -> None:
    """Write messages back out in the canonical CSV column order."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CANONICAL_FIELDS)
    for m in messages:
        heading = "unavailable" if m.heading is None else repr(m.heading)
        writer.writerow([
            m.mmsi, m.timestamp, repr(m.lat), repr(m.lon), repr(m.sog),
            repr(m.cog), heading, m.nav_status.value, m.vessel_type.value,
        ])


def group_trajectories(messages: Iterable[AisMessage]) -> list[Trajectory]:
    """One trajectory per mmsi, time-sorted with a stable tie-break on input order."""
    by_mmsi: dict[int, list[AisMessage]] = {}
    for message in messages:
        by_mmsi.setdefault(message.mmsi, []).append(message)
    trajectories = []
    for mmsi in sorted(by_mmsi):
        ordered = sorted(by_mmsi[mmsi], key=lambda m: m.timestamp)  # stable
        trajectories.append(Trajectory(mmsi=mmsi, messages=tuple(ordered)))
    return trajectories
