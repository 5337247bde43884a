"""Window dataset construction: segmentation, filtering, splitting, weighting.

A set of windows is one ``WindowTable`` of column arrays, row i of every
column being window i: ``tensor`` (n, window_len, 6), ``context_id``,
``mmsi``, ``start_ts``, the truth kind ``truth`` and ``true_context``
(NO_CONTEXT unless the kind is contextual). The build stage also carries
``end_ts`` and ``positions`` (n, window_len, 2), which are not saved, and
the train split carries ``weight``. Each step maps a table to a table, and
selecting a context is a boolean mask over one. Iterating a table yields one
``WindowRow`` per window (mmsi, context_id, start_ts and a view of its
tensor), the only per-window object.

Windows are cut per maximal constant-context run of each trajectory, so a
window never mixes contexts. Ground truth arrives as ``TruthSpan``s, each a
stretch of one vessel's messages between two timestamps with its kind and
true context in the table's encoding; a window carries those of the span of
its vessel that overlaps it, whatever the window length and stride. Splits
are made by vessel id (no mmsi crosses splits), and a split keeps every
window of its vessels. All randomness is seeded, and saved datasets are
byte-identical across runs.
``DatasetParams``, a run config's ``dataset`` section, is the one home of
the build parameters and their defaults. ``load_dataset`` refuses a split
whose tensor or index file disagrees with the header's window count.

Trajectories arrive as column arrays (see ``ais``): context runs start
where the status or vessel type code changes.

The port filter decides each (position, port) pair in two tiers, a block of
windows at a time. ``geo.haversine_screen`` gives every pair's distance in
numpy ufuncs, and decides ``distance < radius`` for each pair farther than
``PORT_SCREEN_BAND`` x radius from the radius. Only the pairs inside that
band go through ``geo.haversine_array``, which equals the scalar
``geo.haversine`` bit for bit. The screen differs from libm by a few ulp,
about 1e-15 relative, six orders of magnitude inside the band, so a pair
outside the band lies on the same side of the radius under both, and every
window is kept or dropped exactly as under the scalar distance. (The one
place the screen's error grows is next to the antipode, where ``asin`` has
no bounded slope: a radius within a few meters of half the Earth's
circumference, 20,015 km, is the one case the band does not cover.)
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .ais import ContextRegistry, Trajectory, context_registry
from .errors import ConfigError, MissingArtifact
from .features import FEATURE_NAMES, NormStats, apply_norm, fit_norm
from .geo import haversine_array, haversine_screen
from .manifest import csv_bytes, json_bytes, present, read_once, text, write_files

log = logging.getLogger(__name__)

DATASET_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")
TRUTH_KINDS = ("none", "collective", "contextual")
TRUTH_DTYPE = f"U{max(map(len, TRUTH_KINDS))}"
# true_context of a window whose truth is not contextual
NO_CONTEXT = -1
# an index file's true_context field, empty for NO_CONTEXT, as int reads it
_EMPTY_AS_NO_CONTEXT = {"": str(NO_CONTEXT)}

# feature column indices
COL_DT = FEATURE_NAMES.index("dt")
COL_DD = FEATURE_NAMES.index("dd")
# windows per distance reduction in filter_near_ports
PORT_FILTER_BLOCK = 64
# relative half-width, around the port radius, of the distances that
# filter_near_ports passes through libm
PORT_SCREEN_BAND = 1e-9


@dataclass(frozen=True)
class TruthSpan:
    """Messages of one vessel from first_ts to last_ts, both inclusive, of a
    truth kind; true_context is the context the vessel is really in."""

    mmsi: int
    first_ts: int
    last_ts: int
    kind: str  # one of TRUTH_KINDS
    true_context: int = NO_CONTEXT

    def __post_init__(self):
        if self.kind not in TRUTH_KINDS:
            raise ValueError(f"unknown truth kind {self.kind!r}")
        if self.kind == "contextual" and self.true_context == NO_CONTEXT:
            raise ValueError("contextual truth must record the true context")
        if self.first_ts > self.last_ts:
            raise ValueError(f"first_ts {self.first_ts} is after "
                             f"last_ts {self.last_ts}")


@dataclass(frozen=True)
class DatasetParams:
    """The build parameters; gap caps are inclusive upper bounds."""

    window_len: int = 50
    stride: int = 50
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    max_time_gap_s: float = 9503.0
    max_dist_gap_m: float = 3556.0
    min_span_s: float = 180.0
    port_radius_m: float = 5000.0

    def __post_init__(self):
        if self.window_len < 2 or self.stride < 1:
            raise ConfigError("window_len must be >= 2 and stride >= 1")
        if len(self.ratios) != 3 or abs(sum(self.ratios) - 1.0) > 1e-9 \
                or min(self.ratios) < 0:
            raise ConfigError("split ratios must be three non-negatives summing to 1")


class WindowRow(NamedTuple):
    """One window of a table; tensor is a view into the table's tensor."""

    mmsi: int
    context_id: int
    start_ts: int
    tensor: np.ndarray


@dataclass(eq=False)
class WindowTable:
    """Fixed-length feature windows as column arrays, one row per window."""

    tensor: np.ndarray          # (n, window_len, 6)
    context_id: np.ndarray      # (n,) int64
    mmsi: np.ndarray            # (n,) int64
    start_ts: np.ndarray        # (n,) int64
    truth: np.ndarray           # (n,) truth kind
    true_context: np.ndarray    # (n,) int64
    end_ts: np.ndarray | None = None      # last message's timestamp, not saved
    positions: np.ndarray | None = None   # (n, window_len, 2) lat/lon, not saved
    weight: np.ndarray | None = None      # sample weight, train split only

    def __len__(self) -> int:
        return self.context_id.shape[0]

    def __iter__(self) -> Iterator[WindowRow]:
        return map(WindowRow, self.mmsi.tolist(), self.context_id.tolist(),
                   self.start_ts.tolist(), self.tensor)

    def take(self, rows: np.ndarray) -> WindowTable:
        """The selected rows, by boolean mask or row indices, in that order."""
        return _map_columns(lambda col: col[rows], self)


def _map_columns(fn, *tables: WindowTable) -> WindowTable:
    """Apply fn to each column across tables; a column one table lacks stays None."""
    def column(name):
        cols = [getattr(t, name) for t in tables]
        return None if any(c is None for c in cols) else fn(*cols)
    return WindowTable(**{f.name: column(f.name) for f in fields(WindowTable)})


def concat(tables: list[WindowTable]) -> WindowTable:
    """The rows of each table in turn."""
    return _map_columns(lambda *cols: np.concatenate(cols), *tables)


def segment(trajectory: Trajectory, features: np.ndarray,
            registry: ContextRegistry, window_len: int, stride: int) -> WindowTable:
    """Cut constant-context runs into fixed-length windows.

    The trailing remainder of each run is dropped; runs whose (vessel type,
    status) pair is unregistered are skipped.
    """
    t = trajectory
    change = np.flatnonzero((t.status[1:] != t.status[:-1])
                            | (t.vtype[1:] != t.vtype[:-1])) + 1
    starts = np.concatenate(([0], change))
    ends = np.append(change, len(t))
    context_ids = registry.context_ids(t.vtype[starts], t.status[starts])
    runs = np.flatnonzero(context_ids >= 0)
    # windows of a run start at start, start + stride, ... while they fit
    counts = np.maximum(ends[runs] - starts[runs] - window_len + stride, 0) // stride
    nth = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    first = np.repeat(starts[runs], counts) + stride * nth
    rows = first[:, None] + np.arange(window_len)
    n = first.shape[0]
    return WindowTable(
        tensor=features[rows], context_id=np.repeat(context_ids[runs], counts),
        mmsi=np.full(n, t.mmsi, dtype=np.int64), start_ts=t.ts[first],
        truth=np.full(n, "none", dtype=TRUTH_DTYPE),
        true_context=np.full(n, NO_CONTEXT, dtype=np.int64),
        end_ts=t.ts[first + window_len - 1],
        positions=np.stack((t.lat[rows], t.lon[rows]), axis=-1))


def attach_truth(windows: WindowTable, spans: list[TruthSpan]) -> WindowTable:
    """Tag each window with the first span of its vessel that overlaps it."""
    truth = windows.truth.astype(TRUTH_DTYPE)
    true_context = windows.true_context.copy()
    tagged = np.zeros(len(windows), dtype=bool)
    for s in spans:
        hit = (~tagged & (windows.mmsi == s.mmsi)
               & (s.first_ts <= windows.end_ts) & (windows.start_ts <= s.last_ts))
        truth[hit] = s.kind
        true_context[hit] = s.true_context
        tagged |= hit
    return replace(windows, truth=truth, true_context=true_context)


def filter_near_ports(windows: WindowTable, ports: list[tuple[float, float]],
                      radius_m: float) -> WindowTable:
    """Drop a window iff any of its positions lies within radius of any port."""
    if not ports or not len(windows):
        return windows
    if windows.positions is None:
        raise ValueError("port filtering requires window positions")
    port = np.asarray(ports, dtype=np.float64)
    near = np.zeros(len(windows), dtype=bool)
    # a block of windows at a time bounds the temporaries' memory
    for first in range(0, len(windows), PORT_FILTER_BLOCK):
        block = slice(first, first + PORT_FILTER_BLOCK)
        lat, lon = windows.positions[block, :, None, 0], windows.positions[block, :, None, 1]
        dist = haversine_screen(lat, lon, port[:, 0], port[:, 1])
        inside = dist < radius_m
        w, p, k = np.nonzero(np.abs(dist - radius_m) <= PORT_SCREEN_BAND * radius_m)
        inside[w, p, k] = haversine_array(lat[w, p, 0], lon[w, p, 0],
                                          port[k, 0], port[k, 1]) < radius_m
        near[block] = inside.any(axis=(1, 2))
    return windows.take(~near)


def remove_outliers(windows: WindowTable, params: DatasetParams) -> WindowTable:
    """Drop windows with an oversized time/distance gap or too little coverage.

    Row 0 of a mid-trajectory window carries the real gap to the previous
    message, so every row participates in the gap checks. The span check
    uses within-window time only (rows 1..end); dt is integer-valued, so
    that sum is exact in any order.
    """
    dt = windows.tensor[:, :, COL_DT]
    dd = windows.tensor[:, :, COL_DD]
    drop = ((dt.max(axis=1) > params.max_time_gap_s)
            | (dd.max(axis=1) > params.max_dist_gap_m)
            | (dt[:, 1:].sum(axis=1) < params.min_span_s))
    return windows.take(~drop)


@dataclass
class DatasetSplit:
    train: WindowTable
    val: WindowTable
    test: WindowTable
    excluded_contexts: tuple[int, ...] = ()
    norm_stats: NormStats | None = None

    def windows(self, split: str) -> WindowTable:
        return getattr(self, split)

    @property
    def train_contexts(self) -> tuple[int, ...]:
        return tuple(np.unique(self.train.context_id).tolist())

    def counts_by_context(self, split: str) -> dict[int, int]:
        ids, counts = np.unique(self.windows(split).context_id, return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))


def split_by_vessel(windows: WindowTable, ratios: tuple[float, float, float],
                    seed: int) -> DatasetSplit:
    """Assign whole vessels, with all their windows, to train/val/test.

    Vessels carrying any ground-truth tag go straight to the test split
    (synthetic runs must not train on injected anomalies). Each split is in
    (mmsi, start_ts) order, ties in input order. Contexts left without
    training windows are excluded from every split with a warning.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")

    anomalous = np.unique(windows.mmsi[windows.truth != "none"])
    clean = np.setdiff1d(windows.mmsi, anomalous)
    rng = np.random.default_rng([seed, 101])
    order = clean[rng.permutation(len(clean))]
    n = len(order)
    n_train = int(n * ratios[0])
    n_val = int(n * (ratios[0] + ratios[1])) - n_train
    assignment = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test": np.concatenate((order[n_train + n_val:], anomalous)),
    }

    by_key = np.lexsort((windows.start_ts, windows.mmsi))
    parts = {name: by_key[np.isin(windows.mmsi[by_key], vessels)]
             for name, vessels in assignment.items()}

    present = np.unique(windows.context_id[np.concatenate(list(parts.values()))])
    trained = np.unique(windows.context_id[parts["train"]])
    excluded = tuple(np.setdiff1d(present, trained).tolist())
    if excluded:
        log.warning("contexts without training windows excluded: %s", excluded)
        parts = {name: rows[~np.isin(windows.context_id[rows], excluded)]
                 for name, rows in parts.items()}

    return DatasetSplit(**{name: windows.take(rows) for name, rows in parts.items()},
                        excluded_contexts=excluded)


def sample_weights(train_windows: WindowTable) -> np.ndarray:
    """Inverse-context-frequency weights: total / (num_contexts * count_c).

    The weighted count per context is then equal across contexts, and the
    weights sum to the number of training windows.
    """
    _, inverse, counts = np.unique(train_windows.context_id, return_inverse=True,
                                   return_counts=True)
    return len(train_windows) / (len(counts) * counts[inverse])


def normalize_split(split: DatasetSplit) -> DatasetSplit:
    """Fit z-score stats on the training split and normalize every window."""
    stats = fit_norm(split.train.tensor)
    for part in SPLIT_NAMES:
        table = split.windows(part)
        table.tensor = apply_norm(stats, table.tensor)
    split.norm_stats = stats
    split.train.weight = sample_weights(split.train)
    return split


# --- persistence ---------------------------------------------------------------

def save_dataset(out_dir: Path, split: DatasetSplit, registry: ContextRegistry,
                 window_len: int, seed: int) -> dict[Path, str]:
    """Write header + per-split flat float32 tensors + index CSVs (bit-exact)."""
    if split.norm_stats is None:
        raise ValueError("dataset must be normalized before saving")
    written = split.norm_stats.save(out_dir / "norm_stats.json")

    header = {
        "version": DATASET_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "window_len": window_len,
        "registry_hash": registry.content_hash(),
        "norm_stats": "norm_stats.json",
        "norm_stats_hash": split.norm_stats.content_hash(),
        "seed": seed,
        "counts": {name: len(split.windows(name)) for name in SPLIT_NAMES},
        "counts_by_context": {
            name: {str(c): n for c, n in sorted(split.counts_by_context(name).items())}
            for name in SPLIT_NAMES
        },
        "excluded_contexts": list(split.excluded_contexts),
    }
    named = {"header.json": json_bytes(header)}
    for name in SPLIT_NAMES:
        table = split.windows(name)
        named[f"{name}.f32"] = table.tensor.astype("<f4").tobytes()
        columns = [table.mmsi.tolist(), table.context_id.tolist(),
                   table.start_ts.tolist(), table.truth.tolist(),
                   ["" if c == NO_CONTEXT else str(c) for c in table.true_context.tolist()]]
        names = ["mmsi", "context_id", "start_ts", "truth", "true_context"]
        if name == "train":
            names.append("weight")
            columns.append([repr(w) for w in table.weight.tolist()])
        named[f"{name}.index.csv"] = csv_bytes([names, *zip(*columns)])
    return written | write_files(out_dir, named)


def load_dataset(dataset_dir: Path) -> tuple[DatasetSplit, dict]:
    """Load a saved dataset, its header digests checked; tensors are float64."""
    header_path = dataset_dir / "header.json"
    if not present(header_path):
        raise MissingArtifact(f"no dataset header at {header_path}")
    header = json.loads(read_once(header_path))
    stats = NormStats.load(dataset_dir / header["norm_stats"])
    for key, source, current in (
            ("registry_hash", "the context registry", context_registry().content_hash()),
            ("norm_stats_hash", header["norm_stats"], stats.content_hash())):
        if header[key] != current:
            raise ConfigError(f"{header_path} records {key} {header[key]}, but {source} "
                              f"hashes to {current}; run the build stage again")
    window_len = header["window_len"]
    n_feat = len(header["feature_names"])

    def ints(values):
        return np.fromiter(map(int, values), np.int64)

    parts: dict[str, WindowTable] = {}
    for name in SPLIT_NAMES:
        count = header["counts"][name]
        raw = read_once(dataset_dir / f"{name}.f32")
        reader = csv.reader(text(read_once(dataset_dir / f"{name}.index.csv")))
        names = next(reader)
        rows = list(reader)
        for file, holds, want, unit in (
                (f"{name}.f32", len(raw), count * window_len * n_feat * 4, "bytes"),
                (f"{name}.index.csv", len(rows), count, "rows")):
            if holds != want:
                raise MissingArtifact(f"{dataset_dir / file} holds {holds} {unit}, but "
                                      f"{header_path} counts {count} {name} windows "
                                      f"({want} {unit}); run the build stage again")
        col = dict(zip(names, zip(*rows))) or dict.fromkeys(names, ())
        parts[name] = WindowTable(
            tensor=np.frombuffer(raw, "<f4").reshape(count, window_len, n_feat).astype(np.float64),
            context_id=ints(col["context_id"]),
            mmsi=ints(col["mmsi"]),
            start_ts=ints(col["start_ts"]),
            truth=np.array(col["truth"], dtype=TRUTH_DTYPE),
            true_context=ints(map(_EMPTY_AS_NO_CONTEXT.get, col["true_context"],
                                  col["true_context"])),
            weight=(np.fromiter(map(float, col["weight"]), np.float64, count)
                    if name == "train" else None))

    split = DatasetSplit(**parts, excluded_contexts=tuple(header["excluded_contexts"]),
                         norm_stats=stats)
    return split, header
