"""Per-message feature derivation and z-score normalization.

Each message yields the six-feature vector
``[sog, cog, heading, dt, dd, bearing]`` where dt/dd/bearing are deltas
against the previous message of the same trajectory (zero for the first
message). Unavailable headings are replaced by the message's cog so the
tensor stays dense.

``enrich`` works on a trajectory's columns in one pass. Its distances and
bearings come from one ``geo.steps_array`` call, which routes ``asin``,
``atan2`` and squaring through libm with ``map`` and hands the bearing's
degenerate test the distance it already computed, so every value equals the
per-message scalar computation bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ais import Trajectory
from .geo import steps_array
from .manifest import json_bytes, read_once, write_file

FEATURE_NAMES = ("sog", "cog", "heading", "dt", "dd", "bearing")
NUM_FEATURES = len(FEATURE_NAMES)

SCALE_FLOOR = 1e-8


def enrich(trajectory: Trajectory) -> np.ndarray:
    """Feature matrix of shape (len(trajectory), 6), float64."""
    t = trajectory
    out = np.zeros((len(t), NUM_FEATURES), dtype=np.float64)
    out[:, 0] = t.sog
    out[:, 1] = t.cog
    out[:, 2] = np.where(t.heading_unavailable, t.cog, t.heading)
    if len(t) > 1:
        prev, cur = slice(None, -1), slice(1, None)
        out[1:, 3] = np.diff(t.ts).astype(np.float64)
        out[1:, 4], out[1:, 5] = steps_array(t.lat[prev], t.lon[prev],
                                             t.lat[cur], t.lon[cur])
    return out


@dataclass(frozen=True)
class NormStats:
    """Per-feature location/scale fitted on the training split only."""

    location: np.ndarray   # shape (6,)
    scale: np.ndarray      # shape (6,), strictly positive
    degenerate: tuple[bool, ...]

    def to_dict(self) -> dict:
        return {
            "features": [
                {
                    "name": FEATURE_NAMES[i],
                    "location": float(self.location[i]),
                    "scale": float(self.scale[i]),
                    "degenerate": bool(self.degenerate[i]),
                }
                for i in range(NUM_FEATURES)
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NormStats":
        entries = data["features"]
        if [e["name"] for e in entries] != list(FEATURE_NAMES):
            raise ValueError("feature names do not match this library's order")
        return cls(
            location=np.array([e["location"] for e in entries], dtype=np.float64),
            scale=np.array([e["scale"] for e in entries], dtype=np.float64),
            degenerate=tuple(bool(e["degenerate"]) for e in entries),
        )

    def save(self, path: Path) -> dict[Path, str]:
        return {path: write_file(path, [json_bytes(self.to_dict())])}

    @classmethod
    def load(cls, path: Path) -> "NormStats":
        return cls.from_dict(json.loads(read_once(path)))

    def content_hash(self) -> str:
        import hashlib

        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def fit_norm(train_tensors: np.ndarray) -> NormStats:
    """Population mean/std per feature over all rows of all training windows.

    train_tensors: array of shape (n, rows, 6) or (rows, 6).
    Zero-variance features are flagged degenerate and floored at 1e-8 so
    normalization stays defined (the column maps to all zeros).
    """
    flat = np.asarray(train_tensors, dtype=np.float64).reshape(-1, NUM_FEATURES)
    if flat.shape[0] == 0:
        raise ValueError("cannot fit normalization on an empty training set")
    location = flat.mean(axis=0)
    scale = flat.std(axis=0)  # population convention (divide by n)
    degenerate = scale < SCALE_FLOOR
    scale = np.where(degenerate, SCALE_FLOOR, scale)
    return NormStats(location=location, scale=scale,
                     degenerate=tuple(bool(d) for d in degenerate))


def apply_norm(stats: NormStats, tensor: np.ndarray) -> np.ndarray:
    return (np.asarray(tensor, dtype=np.float64) - stats.location) / stats.scale
