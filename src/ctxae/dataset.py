"""Window dataset construction: segmentation, filtering, splitting, weighting.

Windows are cut per maximal constant-context run of each trajectory, so a
window never mixes contexts. Ground truth arrives as message spans, each a
stretch of one vessel's messages between two timestamps; a window carries
the tag of the span of its vessel that overlaps it, whatever the window
length and stride. Splits are made by vessel id (no mmsi crosses splits)
and per-context caps are applied after splitting. All randomness is seeded,
and saved datasets are byte-identical across runs.

Trajectories arrive as column arrays (see ``ais``): context runs start
where the status or vessel type code changes, and the port filter is one
windows x positions x ports distance reduction through
``geo.haversine_array``, which equals the scalar ``geo.haversine`` bit for
bit, so a window on the radius is kept or dropped exactly as before.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ais import ContextRegistry, Trajectory
from .errors import MissingArtifact
from .features import FEATURE_NAMES, NormStats, apply_norm, fit_norm
from .geo import haversine_array

log = logging.getLogger(__name__)

DATASET_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")

# feature column indices
COL_DT = FEATURE_NAMES.index("dt")
COL_DD = FEATURE_NAMES.index("dd")
# windows per distance reduction in filter_near_ports
PORT_FILTER_BLOCK = 64


@dataclass(frozen=True)
class Truth:
    """Ground-truth tag; kind 'none' means a clean window."""

    kind: str = "none"  # none | point | collective | contextual
    true_context: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "point", "collective", "contextual"):
            raise ValueError(f"unknown truth kind {self.kind!r}")
        if self.kind == "contextual" and self.true_context is None:
            raise ValueError("contextual truth must record the true context")


CLEAN = Truth()


@dataclass(frozen=True)
class TruthSpan:
    """Messages of one vessel from first_ts to last_ts, both inclusive."""

    mmsi: int
    first_ts: int
    last_ts: int
    truth: Truth

    def __post_init__(self):
        if self.first_ts > self.last_ts:
            raise ValueError(f"first_ts {self.first_ts} is after "
                             f"last_ts {self.last_ts}")


@dataclass(eq=False)
class Window:
    """One fixed-length feature window of a single vessel and context."""

    tensor: np.ndarray          # (window_len, 6)
    context_id: int
    mmsi: int
    start_ts: int
    truth: Truth = CLEAN
    end_ts: int | None = None             # last message's timestamp, dropped on save
    positions: np.ndarray | None = None   # (window_len, 2) lat/lon, dropped on save

    @property
    def uid(self) -> tuple[int, int]:
        """Cross-model anomaly identity."""
        return (self.mmsi, self.start_ts)


def segment(trajectory: Trajectory, features: np.ndarray,
            registry: ContextRegistry, window_len: int = 50,
            stride: int | None = None) -> list[Window]:
    """Cut constant-context runs into fixed-length windows.

    The trailing remainder of each run is dropped; runs whose (vessel type,
    status) pair is unregistered are skipped.
    """
    stride = stride or window_len
    t = trajectory
    change = np.flatnonzero((t.status[1:] != t.status[:-1])
                            | (t.vtype[1:] != t.vtype[:-1])) + 1
    starts = [0, *change.tolist()]
    ends = [*change.tolist(), len(t)]
    context_ids = registry.context_ids(t.vtype[starts], t.status[starts]).tolist()
    windows: list[Window] = []
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


def attach_truth(windows: list[Window], spans: list[TruthSpan]) -> list[Window]:
    """Tag each window with the first span of its vessel that overlaps it."""
    by_vessel: dict[int, list[TruthSpan]] = {}
    for span in spans:
        by_vessel.setdefault(span.mmsi, []).append(span)
    out = []
    for w in windows:
        for s in by_vessel.get(w.mmsi, ()):
            if s.first_ts <= w.end_ts and w.start_ts <= s.last_ts:
                w = replace(w, truth=s.truth)
                break
        out.append(w)
    return out


def filter_near_ports(windows: list[Window], ports: list[tuple[float, float]],
                      radius_m: float = 5000.0) -> list[Window]:
    """Drop a window iff any of its positions lies within radius of any port."""
    if not ports or not windows:
        return list(windows)
    if any(w.positions is None for w in windows):
        raise ValueError("port filtering requires window positions")
    port = np.asarray(ports, dtype=np.float64)
    near = []
    # a block of windows at a time bounds the libm round trip's Python floats
    for first in range(0, len(windows), PORT_FILTER_BLOCK):
        pos = np.stack([w.positions for w in windows[first:first + PORT_FILTER_BLOCK]])
        dist = haversine_array(pos[:, :, None, 0], pos[:, :, None, 1],
                               port[:, 0], port[:, 1])
        near.extend((dist < radius_m).any(axis=(1, 2)).tolist())
    return [w for w, drop in zip(windows, near) if not drop]


@dataclass(frozen=True)
class OutlierCaps:
    """Hard per-window limits; gap caps are inclusive upper bounds."""

    max_time_gap_s: float = 9503.0
    max_dist_gap_m: float = 3556.0
    min_span_s: float = 180.0


def remove_outliers(windows: list[Window],
                    caps: OutlierCaps = OutlierCaps()) -> list[Window]:
    """Drop windows with an oversized time/distance gap or too little coverage.

    Row 0 of a mid-trajectory window carries the real gap to the previous
    message, so every row participates in the gap checks. The span check
    uses within-window time only (rows 1..end).
    """
    kept = []
    for w in windows:
        dt = w.tensor[:, COL_DT]
        dd = w.tensor[:, COL_DD]
        if dt.max() > caps.max_time_gap_s or dd.max() > caps.max_dist_gap_m:
            continue
        if dt[1:].sum() < caps.min_span_s:
            continue
        kept.append(w)
    return kept


@dataclass
class DatasetSplit:
    train: list[Window]
    val: list[Window]
    test: list[Window]
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    excluded_contexts: tuple[int, ...] = ()
    norm_stats: NormStats | None = None

    def windows(self, split: str) -> list[Window]:
        return getattr(self, split)

    @property
    def train_contexts(self) -> tuple[int, ...]:
        return tuple(sorted({w.context_id for w in self.train}))

    def counts_by_context(self, split: str) -> dict[int, int]:
        counts: dict[int, int] = {}
        for w in self.windows(split):
            counts[w.context_id] = counts.get(w.context_id, 0) + 1
        return counts


def stack_tensors(windows: list[Window]) -> np.ndarray:
    if not windows:
        return np.zeros((0, 0, len(FEATURE_NAMES)))
    return np.stack([w.tensor for w in windows])


def indices_by_context(windows: list[Window]) -> dict[int, np.ndarray]:
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(windows):
        groups.setdefault(w.context_id, []).append(i)
    return {c: np.array(idx) for c, idx in sorted(groups.items())}


def _sort_key(w: Window):
    return (w.mmsi, w.start_ts)


def split_by_vessel(windows: list[Window], ratios: tuple[float, float, float],
                    seed: int, max_train_per_context: int = 50_000,
                    max_eval_per_context: int = 5_000,
                    anomalous_to_test: bool = True) -> DatasetSplit:
    """Assign whole vessels to train/val/test, then apply per-context caps.

    Vessels carrying any ground-truth tag go straight to the test split when
    anomalous_to_test is set (synthetic runs must not train on injected
    anomalies). Contexts left without training windows are excluded from
    every split with a warning.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")

    by_vessel: dict[int, list[Window]] = {}
    for w in windows:
        by_vessel.setdefault(w.mmsi, []).append(w)

    anomalous = {
        mmsi for mmsi, ws in by_vessel.items()
        if anomalous_to_test and any(w.truth.kind != "none" for w in ws)
    }
    clean = sorted(set(by_vessel) - anomalous)

    rng = np.random.default_rng([seed, 101])
    order = [clean[i] for i in rng.permutation(len(clean))]
    n = len(order)
    n_train = int(n * ratios[0])
    n_val = int(n * (ratios[0] + ratios[1])) - n_train
    assignment = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test": order[n_train + n_val:] + sorted(anomalous),
    }

    parts: dict[str, list[Window]] = {}
    for split_name, vessels in assignment.items():
        ws = [w for m in vessels for w in by_vessel[m]]
        ws.sort(key=_sort_key)
        parts[split_name] = ws

    # per-context downsampling caps
    for split_name, cap in (("train", max_train_per_context),
                            ("val", max_eval_per_context),
                            ("test", max_eval_per_context)):
        ws = parts[split_name]
        groups = indices_by_context(ws)
        keep: list[int] = []
        for cid, idx in groups.items():
            if idx.shape[0] > cap:
                sub_rng = np.random.default_rng([seed, 211, cid, SPLIT_NAMES.index(split_name)])
                chosen = sub_rng.choice(idx.shape[0], size=cap, replace=False)
                keep.extend(idx[np.sort(chosen)])
            else:
                keep.extend(idx)
        keep.sort()
        parts[split_name] = [ws[i] for i in keep]

    present = {w.context_id for p in parts.values() for w in p}
    trained = {w.context_id for w in parts["train"]}
    excluded = tuple(sorted(present - trained))
    if excluded:
        log.warning("contexts without training windows excluded: %s", excluded)
        for split_name in SPLIT_NAMES:
            parts[split_name] = [w for w in parts[split_name]
                                 if w.context_id not in excluded]

    return DatasetSplit(train=parts["train"], val=parts["val"],
                        test=parts["test"], excluded_contexts=excluded)


def sample_weights(train_windows: list[Window]) -> np.ndarray:
    """Inverse-context-frequency weights: total / (num_contexts * count_c).

    The weighted count per context is then equal across contexts, and the
    weights sum to the number of training windows.
    """
    counts = {}
    for w in train_windows:
        counts[w.context_id] = counts.get(w.context_id, 0) + 1
    total = len(train_windows)
    k = len(counts)
    return np.array([total / (k * counts[w.context_id]) for w in train_windows])


def normalize_split(split: DatasetSplit) -> DatasetSplit:
    """Fit z-score stats on the training split and normalize every window."""
    stats = fit_norm(stack_tensors(split.train))
    for part in SPLIT_NAMES:
        for w in split.windows(part):
            w.tensor = apply_norm(stats, w.tensor)
    split.norm_stats = stats
    split.weights = sample_weights(split.train)
    return split


# --- persistence ---------------------------------------------------------------

def truth_fields(t: Truth) -> tuple[str, str]:
    return t.kind, "" if t.true_context is None else str(t.true_context)


def parse_truth(kind: str, true_context: str) -> Truth:
    return Truth(kind=kind, true_context=int(true_context) if true_context else None)


def save_dataset(out_dir: Path, split: DatasetSplit, registry: ContextRegistry,
                 window_len: int, seed: int) -> None:
    """Write header + per-split flat float32 tensors + index CSVs (bit-exact)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if split.norm_stats is None:
        raise ValueError("dataset must be normalized before saving")
    split.norm_stats.save(out_dir / "norm_stats.json")

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
    (out_dir / "header.json").write_text(
        json.dumps(header, indent=2, sort_keys=True) + "\n")

    for name in SPLIT_NAMES:
        ws = split.windows(name)
        tensor = stack_tensors(ws).astype("<f4")
        (out_dir / f"{name}.f32").write_bytes(tensor.tobytes())
        with open(out_dir / f"{name}.index.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            cols = ["mmsi", "context_id", "start_ts", "truth", "true_context"]
            if name == "train":
                cols.append("weight")
            writer.writerow(cols)
            for i, w in enumerate(ws):
                kind, true_ctx = truth_fields(w.truth)
                row = [w.mmsi, w.context_id, w.start_ts, kind, true_ctx]
                if name == "train":
                    row.append(repr(float(split.weights[i])))
                writer.writerow(row)


def load_dataset(dataset_dir: Path) -> tuple[DatasetSplit, dict]:
    """Load a saved dataset; tensors come back float64 for the engine."""
    header_path = dataset_dir / "header.json"
    if not header_path.exists():
        raise MissingArtifact(f"no dataset header at {header_path}")
    header = json.loads(header_path.read_text())
    stats = NormStats.load(dataset_dir / header["norm_stats"])
    window_len = header["window_len"]
    n_feat = len(header["feature_names"])

    parts: dict[str, list[Window]] = {}
    weights: np.ndarray | None = None
    for name in SPLIT_NAMES:
        raw = np.frombuffer((dataset_dir / f"{name}.f32").read_bytes(), dtype="<f4")
        count = header["counts"][name]
        tensors = raw.reshape(count, window_len, n_feat).astype(np.float64)
        ws: list[Window] = []
        w_list: list[float] = []
        with open(dataset_dir / f"{name}.index.csv", newline="") as fh:
            for i, row in enumerate(csv.DictReader(fh)):
                ws.append(Window(
                    tensor=tensors[i],
                    context_id=int(row["context_id"]),
                    mmsi=int(row["mmsi"]),
                    start_ts=int(row["start_ts"]),
                    truth=parse_truth(row["truth"], row["true_context"]),
                ))
                if name == "train":
                    w_list.append(float(row["weight"]))
        parts[name] = ws
        if name == "train":
            weights = np.array(w_list)

    split = DatasetSplit(train=parts["train"], val=parts["val"], test=parts["test"],
                         weights=weights,
                         excluded_contexts=tuple(header["excluded_contexts"]),
                         norm_stats=stats)
    return split, header
