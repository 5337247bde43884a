"""Stage manifests, and the run directory's files read and written once.

Manifests carry no timestamps, so identical runs write identical manifests
and stale-artifact reuse shows up as a hash mismatch instead of a silent
wrong answer. A manifest is the one record of which files its stage wrote:
each output is keyed by its path relative to the manifest's directory. A
stage that reads a produced artifact calls check_inputs on the manifest of
the stage that produced it before it parses any file that manifest records,
so damaged bytes are refused before a parser meets them. check_inputs checks
every input and output that manifest records, and refuses other input names.

Checks and loaders read through read_once. In the read scope a stage call
opens (``reading()``) it reads each file once, and later reads get the same
bytes even if the file changed on disk; with no scope open it reads from
disk. Every writer hashes what it writes and returns the sha256 by path. So
a stage reads each file once, never reads back what it wrote, and parses
only the bytes its check hashed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, MissingArtifact


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256(Path(path).read_bytes())


_scope: dict[Path, bytes] | None = None     # the open read scope's bytes by path


@contextmanager
def reading():
    """A read scope: within it, read_once reads each file once."""
    global _scope
    outer, _scope = _scope, {}
    try:
        yield
    finally:
        _scope = outer


def read_once(path: Path) -> bytes:
    """path's bytes, read into the open scope once; from disk with none open."""
    path, scope = Path(path), {} if _scope is None else _scope
    if path not in scope:
        scope[path] = path.read_bytes()
    return scope[path]


def present(path: Path) -> bool:
    """Whether read_once has path's bytes, in the open scope or on disk."""
    return (_scope is not None and Path(path) in _scope) or Path(path).exists()


def forget() -> None:
    """Drop the bytes the open scope holds, if one is open."""
    (_scope or {}).clear()


def write_file(path: Path, blocks) -> str:
    """Write the blocks of bytes to path in turn; their sha256."""
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for block in blocks:
            fh.write(block)
            digest.update(block)
    return digest.hexdigest()


def write_files(out_dir: Path, named: dict[str, bytes]) -> dict[Path, str]:
    """Write each named file under out_dir; their sha256, by path."""
    return {out_dir / name: write_file(out_dir / name, [data]) for name, data in named.items()}


def text(data: bytes) -> io.TextIOWrapper:
    """data as a text stream, for the csv module; no copy of the bytes."""
    return io.TextIOWrapper(io.BytesIO(data), newline="")


def csv_bytes(rows) -> bytes:
    """rows as CSV with "\\n" line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def json_bytes(obj, strict: bool = False) -> bytes:
    """obj as indented JSON with sorted keys; strict refuses NaN and infinities."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=not strict) + "\n").encode()


def config_hash(config) -> str:
    """Stable hash of the run configuration via its repr tree.

    The output directory is left out: one config and seed hash alike
    wherever the run is written.
    """
    return sha256(repr(dataclasses.replace(config, out_dir=None)).encode())


def write_manifest(out_dir: Path, stage: str, config_digest: str,
                   inputs: dict[str, Path], outputs: dict[str, Path],
                   digests: dict[Path, str], extra: dict | None = None) -> Path:
    """Write <stage>.manifest.json in out_dir with the sha256 digests gives
    each input and output; each output is recorded under its path relative
    to out_dir, whatever name the mapping gives it."""
    out_dir = Path(out_dir)
    manifest = {
        "stage": stage,
        "config_hash": config_digest,
        "inputs": {name: digests[Path(p)] for name, p in inputs.items()},
        "outputs": {Path(p).relative_to(out_dir).as_posix(): digests[Path(p)]
                    for p in outputs.values()},
    }
    if extra:
        manifest["extra"] = extra
    path = out_dir / f"{stage}.manifest.json"
    write_file(path, [json_bytes(manifest)])
    return path


def check_inputs(out_dir: Path, stage: str, inputs: dict[str, Path], rerun: str) -> None:
    """Raise unless inputs names exactly the inputs stage's manifest records,
    and each of them and every recorded output has the bytes it records.

    A missing or unreadable manifest or a missing file raises MissingArtifact
    ending in rerun; another set of input names raises ConfigError naming
    both sets, and other bytes raise ConfigError naming both sha256 values.
    """
    out_dir = Path(out_dir)
    path = out_dir / f"{stage}.manifest.json"
    try:
        manifest = json.loads(path.read_bytes())
        recorded = {role: dict(manifest[role]) for role in ("inputs", "outputs")}
    except FileNotFoundError:
        raise MissingArtifact(f"no {stage} manifest at {path}; {rerun}") from None
    except (ValueError, KeyError, TypeError):
        raise MissingArtifact(f"the {stage} manifest at {path} is unreadable; {rerun}") from None
    if sorted(inputs) != sorted(recorded["inputs"]):
        raise ConfigError(f"{stage} recorded inputs {sorted(recorded['inputs'])}, but "
                          f"this check names {sorted(inputs)}; {rerun}")
    outputs = {name: out_dir / name for name in recorded["outputs"]}
    for role, verb, named in (("inputs", "read", inputs), ("outputs", "wrote", outputs)):
        for name, file_path in sorted(named.items()):
            try:
                current = sha256(read_once(file_path))
            except FileNotFoundError:
                raise MissingArtifact(f"{stage} {verb} {name} at {file_path}, "
                                      f"which is gone; {rerun}") from None
            if recorded[role][name] != current:
                raise ConfigError(f"{stage} {verb} {name} with sha256 {recorded[role][name]}, "
                                  f"but {file_path} now has sha256 {current}; {rerun}")
