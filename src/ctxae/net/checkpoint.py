"""Bit-exact checkpoint files.

Layout: magic ``CTAE1``, a 4-byte little-endian header length, a UTF-8 JSON
header (layer specs, metadata, block shapes), then every state array
concatenated as little-endian float32 in declaration order.

Saving snaps the live model's state to float32-representable values first,
so the file and the in-memory model agree bit for bit afterwards: forward
passes before and after a save/load round trip are identical, and re-saving
reproduces identical bytes.

Loading builds the model from the header's layer specs with zero state (no
random draws) and then overwrites every state array from the file, so the
loaded model depends on the file alone. A file shorter or longer than its
blocks is refused.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import ShapeMismatch
from ..manifest import read_once, write_file
from .layers import LayerSpec
from .model import Sequential

MAGIC = b"CTAE1"


def snap_to_storage_precision(model: Sequential) -> None:
    """Round every state array in place to the nearest float32 value."""
    for a in model.state():
        a[...] = a.astype("<f4").astype(np.float64)


def save_checkpoint(path: Path, model: Sequential,
                    meta: dict | None = None) -> dict[Path, str]:
    snap_to_storage_precision(model)
    arrays = model.state()
    header = {
        "meta": meta or {},
        "layers": model.spec_dicts(),
        "param_count": model.param_count(),
        "blocks": [list(a.shape) for a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blocks = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes,
              *(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)]
    return {Path(path): write_file(Path(path), blocks)}


def load_checkpoint(path: Path) -> tuple[Sequential, dict]:
    """Rebuild the model (float64 state from the float32 block) plus metadata."""
    data = read_once(path)
    if data[:len(MAGIC)] != MAGIC:
        raise ShapeMismatch(f"{path}: not a checkpoint file")
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    offset = len(MAGIC) + 4 + header_len
    header = json.loads(data[offset - header_len:offset])
    specs = [LayerSpec.from_dict(d) for d in header["layers"]]
    model = Sequential.build(specs)
    state = model.state()
    if len(state) != len(header["blocks"]):
        raise ShapeMismatch(f"{path}: block count does not match layer specs")
    for dst, shape in zip(state, header["blocks"]):
        if list(dst.shape) != shape:
            raise ShapeMismatch(f"{path}: block shape {shape} != expected {dst.shape}")
        if offset + dst.size * 4 > len(data):
            raise ShapeMismatch(f"{path}: truncated parameter block")
        dst[...] = np.frombuffer(data, "<f4", dst.size, offset).reshape(dst.shape)
        offset += dst.size * 4
    if offset != len(data):
        raise ShapeMismatch(f"{path}: {len(data) - offset} bytes after the last state block")
    return model, header["meta"]
