"""AIS domain model: message columns, trajectories, and the context registry.

A *context* is a (vessel type, navigational status) pair. The registry,
built once at import and returned by ``context_registry()``, enumerates the
26 registered pairs with stable ids c0..c25; pairs outside it have no
context (id -1 in a column lookup).

Messages are held as column arrays, never as one object per message. A
``MessageTable`` holds parsed records in input order and a ``Trajectory``
holds one vessel's messages in time order, both with the columns ``ts``
(int64 seconds), ``lat``, ``lon``, ``sog``, ``cog``, ``heading`` (float64),
``status`` and ``vtype`` (uint8 codes that index ``NAV_STATUSES`` and
``VESSEL_TYPES``). ``heading`` is NaN exactly where the vessel reported it
unavailable (``heading_unavailable``); a parsed heading is never NaN, since
the range check refuses one.

Parsing converts a whole column at a time with the same Python ``int`` and
``float`` calls the row parser makes, then checks ranges on the arrays. A
row that fails any check is parsed again by ``parse_record``, the scalar
row parser, which names the fault, so every ParseError has the same class,
line number and text whichever path saw the row first. A record file names
its columns by the canonical field names (``CANONICAL_FIELDS``), in any
order. Ingest writes the
parsed table once as raw little-endian column files (``save_table``), and
the dataset build reads them back (``load_table``) instead of parsing again.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import inf
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import (MissingArtifact, MissingField, ParseError, RangeError,
                     UnknownEnumToken)
from .manifest import json_bytes, present, read_once, write_files


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


# the code of a status or vessel type is its index here
NAV_STATUSES = tuple(NavStatus)
VESSEL_TYPES = tuple(VesselType)
_STATUS_CODES = {s.value: i for i, s in enumerate(NAV_STATUSES)}
_TYPE_CODES = {t.value: i for i, t in enumerate(VESSEL_TYPES)}

# Raw AIS encodes "heading unavailable" as 511 degrees.
HEADING_UNAVAILABLE_TOKENS = ("unavailable", "511", "511.0")

MESSAGE_COLUMNS = ("ts", "lat", "lon", "sog", "cog", "heading", "status", "vtype")
# on-disk and in-memory dtype of every table column, in parse_record order
TABLE_DTYPES = {"mmsi": "<i8", "ts": "<i8", "lat": "<f8", "lon": "<f8",
                "sog": "<f8", "cog": "<f8", "heading": "<f8",
                "status": "u1", "vtype": "u1"}
TABLE_VERSION = 1
# records read or written per block, so the raw text never sits in memory whole
BLOCK_ROWS = 1024
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


@dataclass(frozen=True, eq=False, kw_only=True)
class _Columns:
    """Per-message columns of equal length."""

    ts: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    sog: np.ndarray
    cog: np.ndarray
    heading: np.ndarray
    status: np.ndarray
    vtype: np.ndarray

    def __len__(self) -> int:
        return self.ts.shape[0]

    @property
    def heading_unavailable(self) -> np.ndarray:
        return np.isnan(self.heading)


@dataclass(frozen=True, eq=False, kw_only=True)
class MessageTable(_Columns):
    """Records in input order, with the mmsi of each as one more column."""

    mmsi: np.ndarray


@dataclass(frozen=True, eq=False, kw_only=True)
class Trajectory(_Columns):
    """Messages of a single vessel, timestamps non-decreasing."""

    mmsi: int

    def __post_init__(self):
        n = len(self.ts)
        if n == 0:
            raise ValueError("trajectory must hold at least one message")
        if any(len(getattr(self, c)) != n for c in MESSAGE_COLUMNS):
            raise ValueError("trajectory columns must have equal lengths")
        if (np.diff(self.ts) < 0).any():
            raise ValueError("timestamps must be non-decreasing")


@dataclass(frozen=True)
class ContextLabel:
    id: int
    vessel_type: VesselType
    nav_status: NavStatus

    @property
    def name(self) -> str:
        return f"c{self.id}"


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


class ContextRegistry:
    """Bijective table between ids and (vessel_type, nav_status) pairs: the
    rows of ``_REGISTRY_ROWS``, numbered in order."""

    def __init__(self):
        pairs = [(vt, status) for status, types in _REGISTRY_ROWS for vt in types]
        self.labels = tuple(ContextLabel(i, *pair) for i, pair in enumerate(pairs))
        self._by_pair = {(l.vessel_type, l.nav_status): l for l in self.labels}
        self._by_id = {l.id: l for l in self.labels}
        self._ids = np.full((len(VESSEL_TYPES), len(NAV_STATUSES)), -1, dtype=np.int64)
        for l in self.labels:
            self._ids[VESSEL_TYPES.index(l.vessel_type),
                      NAV_STATUSES.index(l.nav_status)] = l.id

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[ContextLabel]:
        return iter(self.labels)

    def lookup(self, vessel_type: VesselType, nav_status: NavStatus) -> ContextLabel | None:
        """Total context function: the registry entry, or None if unregistered."""
        return self._by_pair.get((vessel_type, nav_status))

    def context_ids(self, vtype: np.ndarray, status: np.ndarray) -> np.ndarray:
        """Context id per (vessel type code, status code) pair; -1 if unregistered."""
        return self._ids[vtype, status]

    def by_id(self, context_id: int) -> ContextLabel:
        return self._by_id[context_id]

    def has_id(self, context_id: int) -> bool:
        return context_id in self._by_id

    def serialize(self) -> str:
        lines = [
            f"{l.id},{l.vessel_type.value},{l.nav_status.value}"
            for l in sorted(self.labels, key=lambda l: l.id)
        ]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


_REGISTRY = ContextRegistry()


def context_registry() -> ContextRegistry:
    """The 26-context registry with stable ids c0..c25, built at import."""
    return _REGISTRY


# --- ingestion ----------------------------------------------------------------

CANONICAL_FIELDS = (
    "mmsi", "timestamp", "lat", "lon", "sog", "cog",
    "heading", "nav_status", "vessel_type",
)


def _heading_value(token: str) -> float:
    """A heading token as degrees; NaN for a token meaning unavailable."""
    token = token.strip().lower()
    return float("nan") if token in HEADING_UNAVAILABLE_TOKENS else float(token)


def parse_record(row: list[str], index: dict[str, int], line_no: int) -> tuple:
    """One CSV row as a tuple in TABLE_DTYPES order, or a located ParseError.

    index maps header names to row positions.
    """
    values: dict[str, str] = {}
    for field in CANONICAL_FIELDS:
        i = index.get(field)
        # a short row lacks its trailing fields, like an empty one
        if i is None or i >= len(row) or row[i] == "":
            raise MissingField(line_no, f"missing field {field!r}")
        values[field] = row[i]

    try:
        mmsi = int(values["mmsi"])
        timestamp = int(values["timestamp"])
        lat = float(values["lat"])
        lon = float(values["lon"])
        sog = float(values["sog"])
        cog = float(values["cog"])
    except ValueError as exc:
        raise RangeError(line_no, f"non-numeric field: {exc}") from None

    try:
        heading = _heading_value(values["heading"])
    except ValueError:
        raise RangeError(line_no, f"bad heading {values['heading']!r}") from None
    unavailable = values["heading"].strip().lower() in HEADING_UNAVAILABLE_TOKENS

    try:
        status = _STATUS_CODES[values["nav_status"].strip().lower()]
    except KeyError:
        raise UnknownEnumToken(line_no, f"unknown nav_status {values['nav_status']!r}") from None
    try:
        vtype = _TYPE_CODES[values["vessel_type"].strip().lower()]
    except KeyError:
        raise UnknownEnumToken(line_no, f"unknown vessel_type {values['vessel_type']!r}") from None

    if mmsi <= 0:
        raise RangeError(line_no, f"mmsi must be positive, got {mmsi}")
    if mmsi > _INT64_MAX:
        raise RangeError(line_no, f"mmsi out of range: {mmsi}")
    if not _INT64_MIN <= timestamp <= _INT64_MAX:
        raise RangeError(line_no, f"timestamp out of range: {timestamp}")
    if not -90.0 <= lat <= 90.0:
        raise RangeError(line_no, f"lat out of range: {lat}")
    if not -180.0 < lon <= 180.0:
        raise RangeError(line_no, f"lon out of range: {lon}")
    if not 0.0 <= sog < inf:
        raise RangeError(line_no, f"sog must be finite and >= 0, got {sog}")
    if not 0.0 <= cog < 360.0:
        raise RangeError(line_no, f"cog out of range: {cog}")
    if not unavailable and not 0.0 <= heading < 360.0:
        raise RangeError(line_no, f"heading out of range: {heading}")
    return mmsi, timestamp, lat, lon, sog, cog, heading, status, vtype


# converters of the column path, in TABLE_DTYPES order
_CONVERTERS = (int, int, float, float, float, float, _heading_value,
               lambda token: _STATUS_CODES[token.strip().lower()],
               lambda token: _TYPE_CODES[token.strip().lower()])


def _parse_block(rows: list[list[str]], header: list[str], line_nos: Sequence[int],
                 ) -> tuple[dict[str, np.ndarray], list[ParseError]]:
    """Columns of the well-formed rows, and an error for each other row.

    line_nos holds the file line on which each row starts.
    """
    index = {name: i for i, name in enumerate(header)}
    n = len(rows)
    cols = {name: np.zeros(n, dtype) for name, dtype in TABLE_DTYPES.items()}
    bad = np.ones(n, dtype=bool)
    try:
        # a missing column, a row of another width or a token a converter
        # refuses sends the whole block to the row parser
        positions = [index[f] for f in CANONICAL_FIELDS]
        if any(len(row) != len(header) for row in rows):
            raise ValueError("ragged rows")
        tokens = list(zip(*rows)) or [()] * len(header)
        for (name, dtype), convert, i in zip(TABLE_DTYPES.items(), _CONVERTERS, positions):
            cols[name] = np.fromiter(map(convert, tokens[i]), dtype, n)
        lat, lon, sog, cog, heading = (cols[c] for c in ("lat", "lon", "sog", "cog", "heading"))
        bad = ((cols["mmsi"] <= 0) | ~((lat >= -90.0) & (lat <= 90.0))
               | ~((lon > -180.0) & (lon <= 180.0)) | ~((sog >= 0.0) & (sog < np.inf))
               | ~((cog >= 0.0) & (cog < 360.0)) | (heading < 0.0) | (heading >= 360.0))
        # a NaN heading no unavailable token gave was parsed from "nan"
        for i in np.flatnonzero(np.isnan(heading)).tolist():
            token = tokens[positions[CANONICAL_FIELDS.index("heading")]][i].strip().lower()
            bad[i] |= token not in HEADING_UNAVAILABLE_TOKENS
    except (KeyError, ValueError, OverflowError):
        pass

    errors: list[ParseError] = []
    for i in np.flatnonzero(bad).tolist():
        try:
            record = parse_record(rows[i], index, line_nos[i])
        except ParseError as exc:
            errors.append(exc)
            continue
        for column, value in zip(cols.values(), record):
            column[i] = value
        bad[i] = False
    return {name: c[~bad] for name, c in cols.items()}, errors


def _numbered(reader) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank row of a csv.reader with the file line it starts on."""
    start = reader.line_num + 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1


def parse_messages(stream: TextIO) -> tuple[MessageTable, list[ParseError]]:
    """Parse a CSV record stream (header row required) into a message table.

    Malformed records are collected as located errors, never silently
    dropped; well-formed records keep their input order. An error names the
    physical file line on which its record starts, as csv.reader counts
    them: the header starts at line 1, and blank lines and quoted fields
    that span lines count too. Records are read in blocks of BLOCK_ROWS,
    which bounds the memory the raw text takes.
    """
    reader = csv.reader(stream)
    header = next(reader, [])
    records = _numbered(reader)
    parts = [{name: np.zeros(0, dtype) for name, dtype in TABLE_DTYPES.items()}]
    errors: list[ParseError] = []
    while block := list(islice(records, BLOCK_ROWS)):
        line_nos, rows = zip(*block)
        cols, block_errors = _parse_block(list(rows), header, line_nos)
        parts.append(cols)
        errors.extend(block_errors)
    return MessageTable(**{name: np.concatenate([p[name] for p in parts])
                           for name in TABLE_DTYPES}), errors


def table_of(trajectories: list[Trajectory]) -> MessageTable:
    """The trajectories' messages as one table, in list order."""
    return MessageTable(
        mmsi=np.concatenate([np.full(len(t), t.mmsi, dtype=np.int64)
                             for t in trajectories]),
        **{c: np.concatenate([getattr(t, c) for t in trajectories])
           for c in MESSAGE_COLUMNS})


def group_trajectories(table: MessageTable) -> list[Trajectory]:
    """One trajectory per mmsi, time-sorted with a stable tie-break on input order."""
    order = np.argsort(table.ts, kind="stable")
    order = order[np.argsort(table.mmsi[order], kind="stable")]
    mmsi = table.mmsi[order]
    cuts = np.flatnonzero(mmsi[1:] != mmsi[:-1]) + 1
    starts = [0, *cuts.tolist()]
    ends = [*cuts.tolist(), len(order)]
    sorted_cols = {c: getattr(table, c)[order] for c in MESSAGE_COLUMNS}
    return [Trajectory(mmsi=int(mmsi[a]),
                       **{c: v[a:b] for c, v in sorted_cols.items()})
            for a, b in zip(starts, ends) if b > a]


def save_table(out_dir: Path, table: MessageTable) -> dict[Path, str]:
    """Write a JSON header plus one raw little-endian file per column
    (bit-exact); their sha256 by path, the header's first."""
    header = {"version": TABLE_VERSION, "rows": len(table), "columns": TABLE_DTYPES}
    return write_files(out_dir, {
        "header.json": json_bytes(header),
        **{f"{name}.bin": getattr(table, name).astype(dtype, copy=False).tobytes()
           for name, dtype in TABLE_DTYPES.items()}})


def load_table(table_dir: Path) -> MessageTable:
    """Read a table written by save_table; refuse a missing one, or a column
    file not exactly as long as the header's row count."""
    header_path = table_dir / "header.json"
    if not present(header_path):
        raise MissingArtifact(f"no ingest table at {table_dir}; run the ingest stage first")
    rows = json.loads(read_once(header_path))["rows"]
    data = {name: read_once(table_dir / f"{name}.bin") for name in TABLE_DTYPES}
    short = [name for name, dtype in TABLE_DTYPES.items()
             if len(data[name]) != rows * np.dtype(dtype).itemsize]
    if short:
        raise MissingArtifact(f"ingest table columns {short} in {table_dir} do not "
                              f"hold {rows} rows; run the ingest stage again")
    return MessageTable(**{name: np.frombuffer(data[name], dtype)
                           for name, dtype in TABLE_DTYPES.items()})
