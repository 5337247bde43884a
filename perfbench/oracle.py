"""Reference computations the benchmark checks `ctxae` outputs against.

Everything here is plain numpy and reads the program's files directly, so a
check never trusts the code it checks:

* vectorized haversine / initial bearing, the same spherical formulas as
  ``ctxae.geo`` applied to whole arrays;
* a forward pass of a saved autoencoder rebuilt from the checkpoint bytes;
* the per-context threshold mu_c + lambda * sigma_c (population sigma);
* readers for ``records.csv``, the dataset split files and ``thresholds.csv``.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

EARTH_RADIUS_M = 6_371_000.0
DEGENERATE_DISTANCE_M = 1.0
BATCHNORM_EPS = 1e-5
FEATURES = ("sog", "cog", "heading", "dt", "dd", "bearing")
SPLITS = ("train", "val", "test")


# --- geodesy -----------------------------------------------------------------

def haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in meters, elementwise."""
    phi1, lam1, phi2, lam2 = (np.radians(np.asarray(a, dtype=np.float64))
                              for a in (lat1, lon1, lat2, lon2))
    a = (np.sin((phi2 - phi1) / 2.0) ** 2
         + np.cos(phi1) * np.cos(phi2) * np.sin((lam2 - lam1) / 2.0) ** 2)
    return EARTH_RADIUS_M * 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def bearing(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Initial bearing in degrees [0, 360); 0 below a 1 m displacement."""
    phi1, lam1, phi2, lam2 = (np.radians(np.asarray(a, dtype=np.float64))
                              for a in (lat1, lon1, lat2, lon2))
    dlam = lam2 - lam1
    y = np.sin(dlam) * np.cos(phi2)
    x = np.cos(phi1) * np.sin(phi2) - np.sin(phi1) * np.cos(phi2) * np.cos(dlam)
    brg = np.degrees(np.arctan2(y, x)) % 360.0
    brg = np.where(brg == 360.0, 0.0, brg)
    return np.where(haversine(lat1, lon1, lat2, lon2) < DEGENERATE_DISTANCE_M,
                    0.0, brg)


def angle_diff(a, b) -> np.ndarray:
    """Signed smallest difference a - b on the circle, degrees."""
    return (np.asarray(a) - np.asarray(b) + 180.0) % 360.0 - 180.0


# --- records and dataset files ------------------------------------------------

class Records:
    """records.csv as columns, in file order, with per-vessel deltas."""

    def __init__(self, path: Path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.mmsi = np.array([int(r["mmsi"]) for r in rows], dtype=np.int64)
        self.ts = np.array([int(r["timestamp"]) for r in rows], dtype=np.int64)
        self.lat = np.array([float(r["lat"]) for r in rows])
        self.lon = np.array([float(r["lon"]) for r in rows])
        order = np.lexsort((self.ts, self.mmsi))
        if not np.array_equal(order, np.arange(len(rows))):
            raise ValueError(f"{path}: records are not sorted by (mmsi, timestamp)")
        first = np.ones(len(rows), dtype=bool)
        first[1:] = self.mmsi[1:] != self.mmsi[:-1]
        prev = np.maximum(np.arange(len(rows)) - 1, 0)
        self.dt = np.where(first, 0.0, (self.ts - self.ts[prev]).astype(np.float64))
        self.dd = np.where(first, 0.0, haversine(self.lat[prev], self.lon[prev],
                                                 self.lat, self.lon))
        self.bearing = np.where(first, 0.0, bearing(self.lat[prev], self.lon[prev],
                                                    self.lat, self.lon))
        self._row = {(int(m), int(t)): i
                     for i, (m, t) in enumerate(zip(self.mmsi, self.ts))}

    def __len__(self) -> int:
        return self.mmsi.shape[0]

    def window_rows(self, mmsi: np.ndarray, start_ts: np.ndarray,
                    window_len: int) -> np.ndarray:
        """(n, window_len) row indices of the windows starting at start_ts."""
        starts = np.array([self._row[(int(m), int(t))]
                           for m, t in zip(mmsi, start_ts)], dtype=np.int64)
        rows = starts[:, None] + np.arange(window_len)[None, :]
        if rows.size and (rows.max() >= len(self)
                          or (self.mmsi[rows] != mmsi[:, None]).any()):
            raise ValueError("a window runs past the end of its vessel's records")
        return rows


def read_index(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "mmsi": np.array([int(r["mmsi"]) for r in rows], dtype=np.int64),
        "context_id": np.array([int(r["context_id"]) for r in rows], dtype=np.int64),
        "start_ts": np.array([int(r["start_ts"]) for r in rows], dtype=np.int64),
    }


def read_split(dataset_dir: Path, name: str) -> tuple[np.ndarray, dict]:
    """Float64 tensors (n, window_len, 6) and the index columns of one split."""
    header = json.loads((dataset_dir / "header.json").read_text())
    raw = np.fromfile(dataset_dir / f"{name}.f32", dtype="<f4")
    tensors = raw.reshape(header["counts"][name], header["window_len"],
                          len(header["feature_names"])).astype(np.float64)
    return tensors, read_index(dataset_dir / f"{name}.index.csv")


def read_norm_stats(dataset_dir: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = json.loads((dataset_dir / "norm_stats.json").read_text())["features"]
    if [f["name"] for f in data] != list(FEATURES):
        raise ValueError("unexpected feature order in norm_stats.json")
    return (np.array([f["location"] for f in data]),
            np.array([f["scale"] for f in data]),
            np.array([f["degenerate"] for f in data], dtype=bool))


def read_taus(path: Path) -> dict[str, float]:
    """thresholds.csv as {'<context id>' or 'global': tau}; flagged rows skipped."""
    taus = {}
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            if row[0].startswith("#") or not row[4]:
                continue
            taus[row[0]] = float(row[4])
    return taus


# --- thresholds ----------------------------------------------------------------

def tau(losses: np.ndarray, lam: float) -> float:
    """mu + lambda * sigma with the population sigma."""
    losses = np.asarray(losses, dtype=np.float64)
    mu = losses.sum() / losses.shape[0]
    sigma = np.sqrt(((losses - mu) ** 2).sum() / losses.shape[0])
    return float(mu + lam * sigma)


# --- autoencoder forward pass ---------------------------------------------------

def read_checkpoint(path: Path) -> tuple[list[dict], list[np.ndarray]]:
    """Layer dicts and float64 state arrays from a CTAE1 checkpoint file."""
    blob = Path(path).read_bytes()
    if blob[:5] != b"CTAE1":
        raise ValueError(f"{path}: bad magic")
    (n,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9:9 + n].decode())
    arrays, offset = [], 9 + n
    for shape in header["blocks"]:
        size = int(np.prod(shape))
        arrays.append(np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
                      .reshape(shape).astype(np.float64))
        offset += 4 * size
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return header["layers"], arrays


def forward(layers: list[dict], arrays: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Inference-mode forward pass; x is (batch, length, channels)."""
    state = iter(arrays)
    for layer in layers:
        kind = layer["kind"]
        if kind == "conv1d":
            w, b = next(state), next(state)
            cols = sliding_window_view(x, w.shape[0], axis=1)    # (b, l, c, k)
            x = np.einsum("blck,kco->blo", cols, w) + b
        elif kind == "conv1d_transpose":
            w, b = next(state), next(state)
            k = w.shape[0]
            padded = np.pad(x, ((0, 0), (k - 1, k - 1), (0, 0)))
            cols = sliding_window_view(padded, k, axis=1)         # (b, l+k-1, c, k)
            x = np.einsum("blck,kco->blo", cols, w[::-1]) + b
        elif kind == "batchnorm":
            gamma, beta, mean, var = (next(state) for _ in range(4))
            x = gamma * (x - mean) / np.sqrt(var + BATCHNORM_EPS) + beta
        elif kind == "activation":
            x = np.maximum(x, 0.0)
        elif kind == "maxpool":
            p = layer["pool"]
            n_out = x.shape[1] // p
            x = x[:, :n_out * p].reshape(x.shape[0], n_out, p, x.shape[2]).max(axis=2)
        elif kind == "upsample":
            x = np.repeat(x, layer["factor"], axis=1)
        elif kind == "dense":
            w, b = next(state), next(state)
            x = x.reshape(x.shape[0], -1) @ w + b
            if "out_shape" in layer:
                x = x.reshape(x.shape[0], *layer["out_shape"])
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    if next(state, None) is not None:
        raise ValueError("checkpoint holds more state arrays than its layers use")
    return x


def reconstruction_loss(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    diff = x_hat - x
    return (diff * diff).reshape(x.shape[0], -1).mean(axis=1)


class DetectorOracle:
    """Scores windows with a detector bundle read straight from its files."""

    def __init__(self, bundle_dir: Path):
        manifest = json.loads((bundle_dir / "detector.json").read_text())
        self.encoders = {int(k): read_checkpoint(bundle_dir / name)
                         for k, name in manifest["encoders"].items()}
        self.decoders = {int(k): read_checkpoint(bundle_dir / name)
                         for k, name in manifest["decoders"].items()}
        grouping = manifest.get("grouping")
        self.grouping = {int(c): int(g) for c, g in grouping.items()} if grouping else None

    def route(self, context_id: int):
        enc = self.encoders.get(context_id, self.encoders.get(-1))
        if self.grouping is not None:
            dec = self.decoders[self.grouping[context_id]]
        else:
            dec = self.decoders.get(context_id, self.decoders.get(-1))
        if enc is None or dec is None:
            raise KeyError(f"context {context_id} has no route")
        return enc, dec

    def score(self, x: np.ndarray, context_ids: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[0])
        for cid in np.unique(context_ids):
            mask = context_ids == cid
            (enc_l, enc_a), (dec_l, dec_a) = self.route(int(cid))
            x_hat = forward(dec_l, dec_a, forward(enc_l, enc_a, x[mask]))
            out[mask] = reconstruction_loss(x[mask], x_hat)
        return out
