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
