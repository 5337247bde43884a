"""Run configuration: one YAML file drives the whole pipeline.

Only seed and output directory may be overridden on the command line;
everything else lives in the file so a run is reproducible from config +
seed alone. The ``dataset`` section is ``dataset.DatasetParams``, which
lives next to the functions that read it. A section's keys are the fields
of its dataclass, less the seed that the run sets; any other key is refused.
Values that no run changes (Adam's hyperparameters, the synth injection
constants) are named constants where they are used, not keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from os import PathLike
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import yaml

from .ais import NavStatus
from .dataset import DatasetParams
from .detectors import KINDS
from .errors import ConfigError
from .net import TrainConfig
from .synth import PRESETS, BehaviorModel, ContextPlan, SynthConfig
from .thresholds import DEFAULT_LAMBDA


@dataclass(frozen=True)
class ThresholdParams:
    lam: float = DEFAULT_LAMBDA
    fit_split: str = "train"

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError("lambda must be positive")
        if self.fit_split not in ("train", "val"):
            raise ConfigError("fit_split must be 'train' or 'val'")


@dataclass(frozen=True)
class GroupingParams:
    strategy: str = "full"
    delta: float | None = None      # None: one std of the matrix diagonal

    def __post_init__(self):
        if self.strategy not in ("full", "contextual-only"):
            raise ConfigError(f"unknown grouping strategy {self.strategy!r}")
        if self.delta is not None and self.delta <= 0:
            raise ConfigError("delta must be positive")


@dataclass(frozen=True)
class ArchParams:
    latent: int = 75

    def __post_init__(self):
        if self.latent < 1:
            raise ConfigError("latent size must be positive")


@dataclass
class RunConfig:
    seed: int
    out_dir: Path
    synth: SynthConfig | None = None
    records: Path | None = None
    ports: Path | None = None
    truth: Path | None = None
    dataset: DatasetParams = field(default_factory=DatasetParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    arch: ArchParams = field(default_factory=ArchParams)
    thresholds: ThresholdParams = field(default_factory=ThresholdParams)
    grouping: GroupingParams = field(default_factory=GroupingParams)
    models: tuple[str, ...] = KINDS

    def __post_init__(self):
        if self.synth is None and self.records is None:
            raise ConfigError("config needs either a synth section or a records path")
        if self.synth is not None \
                and self.synth.messages_per_vessel < self.dataset.window_len:
            raise ConfigError("vessels must emit at least one window of messages")
        bad = [m for m in self.models if m not in KINDS]
        if bad:
            raise ConfigError(f"unknown model kinds: {bad}")
        if not self.models:
            raise ConfigError("models must name at least one detector kind")
        if len(set(self.models)) != len(self.models):
            raise ConfigError(f"models names a kind twice: {list(self.models)}")


# what a YAML value may be for a field of each type, and its name
_ACCEPTS = {int: (int, "an integer"), float: ((int, float), "a number"),
            str: (str, "a string"), Path: ((str, PathLike), "a path"),
            tuple: ((list, tuple), "a list"), list: (list, "a list"),
            type(None): (type(None), "null")}


def _options(hint) -> list[tuple]:
    if get_origin(hint) in (Union, UnionType):
        return [option for h in get_args(hint) for option in _options(h)]
    if is_dataclass(hint):      # a section, which is null when left empty
        return [((dict, type(None)), "a mapping")]
    return [_ACCEPTS[get_origin(hint) or hint]]


def _typed(where: str, data: dict, hints: dict) -> None:
    """The config's one check of a mapping's keys and value types: refuse a
    key hints lacks, or a value without the type hints gives its key, naming
    the key. No field is a bool, and a float is not an integer."""
    bad = set(data) - set(hints)
    if bad:
        raise ConfigError(f"{where}unknown keys {sorted(bad)}")
    for key, value in data.items():
        options = _options(hints[key])
        if isinstance(value, bool) or not isinstance(value, tuple(t for t, _ in options)):
            raise ConfigError(f"{where}{key} must be {' or '.join(n for _, n in options)}, "
                              f"got {value!r}")


def _build_behavior(raw: dict) -> BehaviorModel:
    name = raw.get("behavior")
    if name not in PRESETS:
        raise ConfigError(f"unknown behavior preset {name!r}")
    preset = PRESETS[name]
    overrides = {k: v for k, v in raw.items()
                 if k not in ("behavior", "id", "vessels", "falsify_to")}
    # the preset names the motion model, so kind is not an override
    _typed(f"synth context {raw['id']!r}: ", overrides,
           {k: h for k, h in get_type_hints(BehaviorModel).items() if k != "kind"})
    return BehaviorModel(**{**preset.__dict__, **overrides})


def _build_synth(raw: dict, seed: int) -> SynthConfig:
    hints = get_type_hints(SynthConfig)
    _typed("invalid section 'synth': ", raw,
           {k: hints[k] for k in hints if k not in ("seed", "plans")} | {"contexts": list})
    if not raw.get("contexts"):
        raise ConfigError("synth section needs a non-empty contexts list")
    plan = get_type_hints(ContextPlan)
    plan_hints = {"id": plan["context_id"], "vessels": plan["vessels"]}
    plans = []
    for entry in raw["contexts"]:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"each synth context needs an id, got {entry!r}")
        falsify = entry.get("falsify_to")
        if falsify is not None:
            try:
                falsify = NavStatus(falsify)
            except ValueError as exc:
                raise ConfigError(f"unknown nav status {entry['falsify_to']!r}") from exc
        _typed(f"synth context {entry['id']!r}: ",
               {key: entry[key] for key in ("id", "vessels") if key in entry}, plan_hints)
        plans.append(ContextPlan(context_id=entry["id"], behavior=_build_behavior(entry),
                                 vessels=entry.get("vessels", 10), falsify_to=falsify))
    kwargs = {k: v for k, v in raw.items() if k not in ("contexts", "ports")}
    if "ports" in raw:
        try:
            kwargs["ports"] = tuple((float(lat), float(lon)) for lat, lon in raw["ports"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"synth ports must be [lat, lon] pairs: {exc}") from exc
    return SynthConfig(seed=seed, plans=tuple(plans), **kwargs)


def _section(raw: dict, key: str, cls, **extra):
    """The section's dataclass; a key that extra sets from the run is unknown."""
    data = raw.get(key) or {}
    _typed(f"invalid section {key!r}: ", data,
           {k: h for k, h in get_type_hints(cls).items() if k not in extra})
    try:
        if key == "dataset" and "ratios" in data:
            data = {**data, "ratios": tuple(data["ratios"])}
        return cls(**{**data, **extra})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {key!r}: {exc}") from exc


def config_from_dict(raw: dict, seed: int | None = None,
                     out_dir: Path | str | None = None) -> RunConfig:
    raw = {**raw, "seed": raw.get("seed") if seed is None else seed,
           "out_dir": out_dir or raw.get("out_dir")}
    for key in ("seed", "out_dir"):
        if raw[key] is None:
            raise ConfigError(f"{key} is mandatory")
    _typed("", raw, get_type_hints(RunConfig))
    seed = raw["seed"]

    synth = _build_synth(raw["synth"], seed) if raw.get("synth") else None
    train = _section(raw, "train", TrainConfig, seed=seed)
    models = tuple(raw.get("models", KINDS))
    return RunConfig(
        seed=seed,
        out_dir=Path(raw["out_dir"]),
        synth=synth,
        records=Path(raw["records"]) if raw.get("records") else None,
        ports=Path(raw["ports"]) if raw.get("ports") else None,
        truth=Path(raw["truth"]) if raw.get("truth") else None,
        dataset=_section(raw, "dataset", DatasetParams),
        train=train,
        arch=_section(raw, "arch", ArchParams),
        thresholds=_section(raw, "thresholds", ThresholdParams),
        grouping=_section(raw, "grouping", GroupingParams),
        models=models,
    )


def load_config(path: Path | str, seed: int | None = None,
                out_dir: Path | str | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping: {path}")
    return config_from_dict(raw, seed=seed, out_dir=out_dir)
