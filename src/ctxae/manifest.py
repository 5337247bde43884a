"""Stage manifests: content hashes of inputs, config, and outputs.

Manifests carry no timestamps, so identical runs write identical manifests
and stale-artifact reuse shows up as a hash mismatch instead of a silent
wrong answer. A manifest is the one record of which files its stage wrote:
each output is keyed by its path relative to the manifest's directory. A
stage that reads a produced artifact calls check_inputs on the manifest of
the stage that produced it before it parses any file that manifest records,
so damaged bytes are refused before a parser meets them. check_inputs checks
every input and output that manifest records, and refuses other input names.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from .errors import ConfigError, MissingArtifact


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
    """Write <stage>.manifest.json in out_dir; each output is recorded under
    its path relative to out_dir, whatever name the mapping gives it."""
    out_dir = Path(out_dir)
    manifest = {
        "stage": stage,
        "config_hash": config_digest,
        "inputs": {name: sha256_file(Path(p)) for name, p in inputs.items()},
        "outputs": {Path(p).relative_to(out_dir).as_posix(): sha256_file(Path(p))
                    for p in outputs.values()},
    }
    if extra:
        manifest["extra"] = extra
    path = out_dir / f"{stage}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def check_inputs(out_dir: Path, stage: str, inputs: dict[str, Path],
                 rerun: str) -> None:
    """Raise unless inputs names exactly the inputs stage's manifest records,
    and each of them and every recorded output has the bytes it records.

    A missing manifest or file raises MissingArtifact ending in rerun; another
    set of input names raises ConfigError naming both sets, and other bytes
    raise ConfigError naming both sha256 values.
    """
    out_dir = Path(out_dir)
    path = out_dir / f"{stage}.manifest.json"
    if not path.exists():
        raise MissingArtifact(f"no {stage} manifest at {path}; {rerun}")
    manifest = json.loads(path.read_text())
    if sorted(inputs) != sorted(manifest["inputs"]):
        raise ConfigError(f"{stage} recorded inputs {sorted(manifest['inputs'])}, but "
                          f"this check names {sorted(inputs)}; {rerun}")
    outputs = {name: out_dir / name for name in manifest["outputs"]}
    for role, verb, files in (("inputs", "read", inputs), ("outputs", "wrote", outputs)):
        for name, file_path in sorted(files.items()):
            if not Path(file_path).exists():
                raise MissingArtifact(f"{stage} {verb} {name} at {file_path}, "
                                      f"which is gone; {rerun}")
            recorded, current = manifest[role][name], sha256_file(file_path)
            if recorded != current:
                raise ConfigError(f"{stage} {verb} {name} with sha256 {recorded}, but "
                                  f"{file_path} now has sha256 {current}; {rerun}")
