"""Stage manifests: content hashes of inputs, config, and outputs.

Manifests carry no timestamps, so identical runs write identical manifests
and stale-artifact reuse shows up as a hash mismatch instead of a silent
wrong answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(config) -> str:
    """Stable hash of the run configuration via its repr tree.

    The output directory is left out: one config and seed hash alike
    wherever the run is written.
    """
    return sha256_text(repr(dataclasses.replace(config, out_dir=None)))


def write_manifest(out_dir: Path, stage: str, config_digest: str,
                   inputs: dict[str, Path], outputs: dict[str, Path],
                   extra: dict | None = None) -> Path:
    manifest = {
        "stage": stage,
        "config_hash": config_digest,
        "inputs": {name: sha256_file(Path(p)) for name, p in sorted(inputs.items())},
        "outputs": {name: sha256_file(Path(p)) for name, p in sorted(outputs.items())},
    }
    if extra:
        manifest["extra"] = extra
    path = Path(out_dir) / f"{stage}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
