"""Every shipped config loads."""

from pathlib import Path

import pytest

from ctxae.config import RunConfig, load_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def test_configs_directory_is_not_empty():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    assert isinstance(load_config(path), RunConfig)
