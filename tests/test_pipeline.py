"""End to end: run_all on a tiny fleet is deterministic per seed."""

import json

import pytest

from ctxae.config import config_from_dict
from ctxae.manifest import config_hash, sha256_file
from ctxae.pipeline import run_all

TINY_FLEET = {
    "synth": {
        "messages_per_vessel": 200,
        "contextual_rate": 0.1,
        "collective_rate": 0.02,
        "contexts": [
            {"id": 0, "behavior": "transit", "vessels": 10, "falsify_to": "moored"},
            {"id": 12, "behavior": "moored", "vessels": 10},
            {"id": 16, "behavior": "fishing_zigzag", "vessels": 10},
        ],
    },
    "train": {"max_epochs": 2, "patience": 1, "batch_size": 64},
}


def _tiny(out_dir, seed=3):
    return config_from_dict(TINY_FLEET, seed=seed, out_dir=out_dir)


def _artifacts(out_dir):
    paths = [out_dir / "report.json"]
    for pattern in ("models/*/*.ckpt", "detections/*.csv", "**/*.manifest.json"):
        paths += sorted(out_dir.glob(pattern))
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in paths}


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    dirs = [tmp_path_factory.mktemp(name) / "run" for name in ("first", "second")]
    for out_dir in dirs:
        run_all(_tiny(out_dir))
    return dirs


def test_run_all_is_byte_identical_across_directories(two_runs):
    first, second = (_artifacts(d) for d in two_runs)
    assert sorted(first) == sorted(second)
    assert len([name for name in first if name.endswith(".manifest.json")]) > 10
    for name, data in first.items():
        assert data == second[name], name


def test_detector_bundles_keep_their_training_record(two_runs):
    for bundle in sorted((two_runs[0] / "models").iterdir()):
        detector_json = bundle / "detector.json"
        assert json.loads(detector_json.read_text())["training"], bundle.name
        manifest = json.loads((bundle / "train.manifest.json").read_text())
        assert manifest["outputs"]["detector.json"] == sha256_file(detector_json)


def test_config_hash_ignores_out_dir_but_not_seed(tmp_path):
    assert config_hash(_tiny(tmp_path / "a")) == config_hash(_tiny(tmp_path / "b"))
    assert config_hash(_tiny(tmp_path / "a", seed=3)) \
        != config_hash(_tiny(tmp_path / "a", seed=4))
