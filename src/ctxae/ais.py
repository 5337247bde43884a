"""AIS domain model: message columns, trajectories, and the context registry.

A *context* is a (vessel type, navigational status) pair, named in files
and configs and coded in message columns. The registry, built once at import
and returned by ``context_registry()``, numbers the 26 registered code pairs
c0..c25 (``pairs``); other pairs have no context (id -1 from ``context_ids``).

Messages are held as column arrays, never as one object per message. A
``MessageTable`` holds parsed records in input order and a ``Trajectory``
holds one vessel's messages in time order, both with the columns ``ts``
(int64 seconds), ``lat``, ``lon``, ``sog``, ``cog``, ``heading`` (float64),
``status`` and ``vtype`` (uint8 codes that index ``NAV_STATUSES`` and
``VESSEL_TYPES``). ``heading`` is NaN exactly where the vessel reported it
unavailable (``heading_unavailable``); a parsed heading is never NaN, since
the range check refuses one.

Parsing converts a whole column at a time with the same Python ``int``,
``float``, ``str.strip``, ``str.lower`` and code-table lookups the row
parser makes, chained under ``map`` so that no token costs a Python frame,
then checks row widths and ranges on the whole block. A block with a row
of another width, or a token a converter refuses, goes to the row parser
whole; a row that fails a range check is parsed again alone. The row
parser, ``parse_record``, names the fault, so every ParseError has the same
class, line number and text whichever path saw the row first. A record file
names its columns by the canonical field names (``CANONICAL_FIELDS``), in
any order. Ingest writes the parsed table once as raw little-endian column
files (``save_table``), and the dataset build reads them back
(``load_table``) instead of parsing again.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from itertools import islice
from math import inf
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import (MissingArtifact, MissingField, ParseError, RangeError,
                     UnknownEnumToken)
from .manifest import json_bytes, present, read_once, write_files


# the code of a status or vessel type is its index here
NAV_STATUSES = ("under_way_using_engine", "at_anchor", "not_under_command",
                "restricted_maneuverability", "moored", "engaged_in_fishing",
                "under_way_sailing", "other")
VESSEL_TYPES = ("drifting_longlines", "set_longlines", "squid_jigger", "trawlers",
                "tuna_purse_seines", "unknown")
_STATUS_CODES = {s: i for i, s in enumerate(NAV_STATUSES)}
_TYPE_CODES = {t: i for i, t in enumerate(VESSEL_TYPES)}

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


# Registered (status, vessel type) pairs, ids c0..c25. Grouped by status:
# engine c0-c4, anchor c5-c7, not-under-command c8, restricted c9-c11,
# moored c12-c15, fishing c16-c20, sailing c21-c25.
_ALL_GEAR = ("drifting_longlines", "set_longlines", "squid_jigger", "trawlers",
             "tuna_purse_seines")
_REGISTRY_ROWS = (
    ("under_way_using_engine", _ALL_GEAR),
    ("at_anchor", ("drifting_longlines", "trawlers", "tuna_purse_seines")),
    ("not_under_command", ("drifting_longlines",)),
    ("restricted_maneuverability", ("drifting_longlines", "squid_jigger", "trawlers")),
    ("moored", ("drifting_longlines", "squid_jigger", "trawlers", "tuna_purse_seines")),
    ("engaged_in_fishing", _ALL_GEAR),
    ("under_way_sailing", _ALL_GEAR),
)


class ContextRegistry:
    """Bijective table between context ids and (vessel type code, status
    code) pairs: the rows of ``_REGISTRY_ROWS``, numbered in order.
    ``pairs[id]`` is the pair of an id."""

    def __init__(self):
        self.pairs = tuple((_TYPE_CODES[vt], _STATUS_CODES[status])
                           for status, types in _REGISTRY_ROWS for vt in types)
        self._ids = np.full((len(VESSEL_TYPES), len(NAV_STATUSES)), -1, dtype=np.int64)
        for cid, pair in enumerate(self.pairs):
            self._ids[pair] = cid

    def __len__(self) -> int:
        return len(self.pairs)

    def context_ids(self, vtype, status) -> np.ndarray:
        """Context id per (vessel type code, status code) pair; -1 if unregistered."""
        return self._ids[vtype, status]

    def serialize(self) -> str:
        return "".join(f"{cid},{VESSEL_TYPES[vt]},{NAV_STATUSES[status]}\n"
                       for cid, (vt, status) in enumerate(self.pairs))

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


# each heading token meaning unavailable, as the token float reads NaN from
_UNAVAILABLE_AS_NAN = dict.fromkeys(HEADING_UNAVAILABLE_TOKENS, "nan")


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

    token = values["heading"].strip().lower()
    unavailable = token in _UNAVAILABLE_AS_NAN
    try:
        heading = float(_UNAVAILABLE_AS_NAN.get(token, token))
    except ValueError:
        raise RangeError(line_no, f"bad heading {values['heading']!r}") from None

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


def _normalized(tokens) -> list[str]:
    """The tokens stripped and lower-cased, by C-level maps."""
    return list(map(str.lower, map(str.strip, tokens)))


def _parse_block(rows: list[list[str]], header: list[str], line_nos: Sequence[int],
                 ) -> tuple[dict[str, np.ndarray], list[ParseError]]:
    """Columns of the well-formed rows, and an error for each other row.

    line_nos holds the file line on which each row starts. Tokens go through
    chains of C-level callables under ``map`` (the converter types,
    ``str.strip``, ``str.lower`` and bound dict methods), so no token costs a
    Python frame.
    """
    index = {name: i for i, name in enumerate(header)}
    n = len(rows)
    cols = {name: np.zeros(n, dtype) for name, dtype in TABLE_DTYPES.items()}
    bad = np.ones(n, dtype=bool)
    try:
        # a missing column, a row of another width or a token a converter
        # refuses sends the whole block to the row parser
        positions = [index[f] for f in CANONICAL_FIELDS]
        if set(map(len, rows)) - {len(header)}:
            raise ValueError("ragged rows")
        tokens = list(zip(*rows)) or [()] * len(header)
        raw = dict(zip(TABLE_DTYPES, (tokens[i] for i in positions)))
        for name in ("mmsi", "ts"):
            cols[name] = np.fromiter(map(int, raw[name]), np.int64, n)
        for name in ("lat", "lon", "sog", "cog"):
            cols[name] = np.fromiter(map(float, raw[name]), np.float64, n)
        heading = _normalized(raw["heading"])
        cols["heading"] = np.fromiter(map(float, map(_UNAVAILABLE_AS_NAN.get, heading, heading)),
                                      np.float64, n)
        unavailable = np.fromiter(map(_UNAVAILABLE_AS_NAN.__contains__, heading), bool, n)
        for name, codes in (("status", _STATUS_CODES), ("vtype", _TYPE_CODES)):
            cols[name] = np.fromiter(map(codes.__getitem__, _normalized(raw[name])), np.uint8, n)
        lat, lon, sog, cog, heading = (cols[c] for c in ("lat", "lon", "sog", "cog", "heading"))
        # a NaN heading no unavailable token gave was parsed from "nan"
        bad = ((cols["mmsi"] <= 0) | ~((lat >= -90.0) & (lat <= 90.0))
               | ~((lon > -180.0) & (lon <= 180.0)) | ~((sog >= 0.0) & (sog < np.inf))
               | ~((cog >= 0.0) & (cog < 360.0)) | (heading < 0.0) | (heading >= 360.0)
               | (np.isnan(heading) & ~unavailable))
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
