"""Every shipped config loads; cross-section checks refuse a bad config."""

from pathlib import Path

import pytest

from ctxae.config import RunConfig, config_from_dict, load_config
from ctxae.errors import ConfigError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def test_configs_directory_is_not_empty():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    assert isinstance(load_config(path), RunConfig)


def _synth_config(messages_per_vessel, **extra):
    raw = {"synth": {"messages_per_vessel": messages_per_vessel,
                     "contexts": [{"id": 0, "behavior": "transit", "vessels": 1}]},
           **extra}
    return config_from_dict(raw, seed=1, out_dir="unused")


def test_vessels_must_emit_a_window():
    assert _synth_config(50).synth.messages_per_vessel == 50
    with pytest.raises(ConfigError, match="at least one window"):
        _synth_config(49)
    # the bound is the dataset's window length, not a synth setting
    with pytest.raises(ConfigError, match="at least one window"):
        _synth_config(50, dataset={"window_len": 60})


def test_synth_window_len_is_not_a_setting():
    with pytest.raises(ConfigError, match="window_len"):
        config_from_dict({"synth": {"window_len": 50, "contexts": [
            {"id": 0, "behavior": "transit"}]}}, seed=1, out_dir="unused")


ONE_VESSEL = {"messages_per_vessel": 60,
              "contexts": [{"id": 0, "behavior": "transit", "vessels": 1}]}


# keys of fixed values: Adam's hyperparameters, the split caps and three
# synth constants are named constants where they are used, not settings
@pytest.mark.parametrize("section, key, value", [
    ("train", "learning_rate", 0.01), ("train", "beta1", 0.9), ("train", "beta2", 0.999),
    ("train", "epsilon", 1e-8), ("synth", "collective_span", 12),
    ("synth", "collective_magnitude_m", 3000.0), ("synth", "base_mmsi", 200_000_000),
    ("dataset", "max_train_per_context", 50_000), ("dataset", "max_eval_per_context", 5_000),
])
def test_a_removed_key_is_refused(section, key, value):
    raw = {"synth": dict(ONE_VESSEL)}
    raw[section] = {**raw.get(section, {}), key: value}
    with pytest.raises(ConfigError, match=rf"invalid section '{section}': "
                                          rf"unknown keys \['{key}'\]"):
        config_from_dict(raw, seed=1, out_dir="unused")


@pytest.mark.parametrize("section", ["train", "synth"])
def test_a_section_seed_is_not_a_setting(section):
    # the run seed sets both; a section's own seed would be silently replaced
    raw = {"synth": dict(ONE_VESSEL)}
    raw[section] = {**raw.get(section, {}), "seed": 99}
    with pytest.raises(ConfigError, match=rf"invalid section '{section}': "
                                          r"unknown keys \['seed'\]"):
        config_from_dict(raw, seed=7, out_dir="unused")
    assert config_from_dict({**raw, section: {k: v for k, v in raw[section].items()
                                              if k != "seed"}},
                            seed=7, out_dir="unused").train.seed == 7
