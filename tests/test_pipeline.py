"""End to end: run_all on a tiny fleet is deterministic per seed."""

import builtins
import csv
import hashlib
import io
import json
import os
import shutil
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ctxae import pipeline
from ctxae.config import config_from_dict
from ctxae.detectors import KINDS, load_detector
from ctxae.errors import ConfigError, MissingArtifact
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


def _tiny(out_dir, seed=3, **sections):
    return config_from_dict({**TINY_FLEET, **sections}, seed=seed, out_dir=out_dir)


def _artifacts(out_dir):
    """Every file of the run tree by its path in the tree."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """run_all twice on the tiny fleet at lambda 1, where every model flags
    windows (at the default lambda 5 none does)."""
    dirs = [tmp_path_factory.mktemp(name) / "run" for name in ("first", "second")]
    for out_dir in dirs:
        run_all(config_from_dict({**TINY_FLEET, "thresholds": {"lam": 1.0}}, seed=3,
                                 out_dir=out_dir))
    return dirs


def test_run_all_is_byte_identical_across_directories(two_runs):
    first, second = (_artifacts(d) for d in two_runs)
    assert sorted(first) == sorted(second)
    assert len([name for name in first if name.endswith(".manifest.json")]) > 10
    for name in ("dataset/train.f32", "messages/header.json", "models/gcae/thresholds.csv",
                 "grouping/grouping.json", "evaluation/evaluation.json", "synth/records.csv"):
        assert name in first
    for name, data in first.items():
        assert data == second[name], name


def test_detector_bundles_keep_their_training_record(two_runs):
    for bundle in sorted((two_runs[0] / "models").iterdir()):
        detector_json = bundle / "detector.json"
        assert json.loads(detector_json.read_text())["training"], bundle.name
        manifest = json.loads((bundle / "train.manifest.json").read_text())
        assert manifest["outputs"]["detector.json"] == sha256_file(detector_json)


def _detections(out_dir, kind):
    with open(out_dir / "detections" / f"{kind}.csv", newline="") as f:
        return list(csv.DictReader(f))


def test_severity_by_id_holds_exactly_the_flagged_windows(two_runs):
    report = json.loads((two_runs[0] / "evaluation" / "evaluation.json").read_text())
    assert sorted(report["severity_by_id"]) == sorted(report["models"]) \
        == ["ae", "cae", "gcae", "moe"]
    for kind, entry in report["models"].items():
        by_id = report["severity_by_id"][kind]
        verdict = "global_verdict" if kind == "ae" else "context_verdict"
        # every model flags windows, so none of the checks below runs on an empty set
        assert by_id
        assert set(by_id) == {f"{row['mmsi']}:{row['start_ts']}"
                              for row in _detections(two_runs[0], kind) if row[verdict] == "1"}
        assert len(by_id) == entry["severity"]["count"]
        assert all(value > 0 for value in by_id.values())


def test_loss_by_context_summarises_each_contexts_detections(two_runs):
    report = json.loads((two_runs[0] / "evaluation" / "evaluation.json").read_text())
    assert sorted(report["models"]) == ["ae", "cae", "gcae", "moe"]
    for kind, entry in report["models"].items():
        rows = _detections(two_runs[0], kind)
        tau = "tau_global" if kind == "ae" else "tau_context"
        by_context = {}
        for row in rows:
            by_context.setdefault(row["context_id"], []).append(row)
        assert sorted(entry["loss_by_context"]) == sorted(by_context) == ["0", "12", "16"]
        for cid, summary in entry["loss_by_context"].items():
            scores = [float(row["score"]) for row in by_context[cid]]
            assert {int(row["decoder_key"]) for row in by_context[cid]} \
                == {summary["decoder_key"]}
            assert {float(row[tau]) for row in by_context[cid]} == {summary["tau"]}
            assert (summary["n"], summary["min"], summary["max"]) \
                == (len(scores), min(scores), max(scores))
            assert summary["min"] <= summary["p50"] <= summary["p90"] \
                <= summary["p99"] <= summary["max"]


def test_each_detection_row_has_the_decoder_key_and_tau_its_context_routes_to(two_runs):
    for kind in KINDS:
        det = load_detector(two_runs[0] / "models" / kind)
        rows = _detections(two_runs[0], kind)
        assert rows
        for row in rows:
            cid = int(row["context_id"])
            assert int(row["decoder_key"]) == det.route(cid)[1]
            assert float(row["tau_context"]) == det.thresholds.tau(cid)
            assert float(row["tau_global"]) == det.thresholds.global_tau


def test_config_hash_ignores_out_dir_but_not_seed(tmp_path):
    assert config_hash(_tiny(tmp_path / "a")) == config_hash(_tiny(tmp_path / "b"))
    assert config_hash(_tiny(tmp_path / "a", seed=3)) \
        != config_hash(_tiny(tmp_path / "a", seed=4))


def _prepare(cfg):
    pipeline.stage_simulate(cfg)
    pipeline.stage_ingest(cfg)
    pipeline.stage_build(cfg)


def test_stages_refuse_a_detector_trained_on_another_dataset(tmp_path):
    out_dir = tmp_path / "run"
    _prepare(_tiny(out_dir, seed=3))
    for kind in ("ae", "cae"):
        pipeline.stage_train(_tiny(out_dir, seed=3), kind)
    pipeline.stage_thresholds(_tiny(out_dir, seed=3), "ae")
    stale_hash = sha256_file(out_dir / "dataset" / "header.json")

    # another seed rebuilds the dataset in place with other normalisation stats
    cfg = _tiny(out_dir, seed=4)
    _prepare(cfg)
    fresh_hash = sha256_file(out_dir / "dataset" / "header.json")
    assert fresh_hash != stale_hash
    for stage in (lambda: pipeline.stage_thresholds(cfg, "ae"),
                  lambda: pipeline.stage_detect(cfg, "ae"),
                  lambda: pipeline.stage_group(cfg)):
        with pytest.raises(ConfigError) as err:
            stage()
        assert stale_hash in str(err.value) and fresh_hash in str(err.value)


def test_run_all_refuses_gcae_without_cae_before_any_stage(tmp_path):
    out_dir = tmp_path / "run"
    cfg = config_from_dict({**TINY_FLEET, "models": ["ae", "gcae"]}, seed=3,
                           out_dir=out_dir)
    with pytest.raises(ConfigError, match="gcae requires cae"):
        run_all(cfg)
    assert not out_dir.exists()


def test_evaluate_refuses_detections_scored_on_another_dataset(tmp_path):
    out_dir = tmp_path / "run"
    cfg = _tiny(out_dir, seed=3, models=["ae"])
    _prepare(cfg)
    pipeline.stage_train(cfg, "ae")
    pipeline.stage_thresholds(cfg, "ae")
    pipeline.stage_detect(cfg, "ae")
    pipeline.stage_evaluate(cfg)
    scored = sha256_file(out_dir / "dataset" / "header.json")

    # another seed rebuilds the dataset in place; the detections stay
    cfg = _tiny(out_dir, seed=4, models=["ae"])
    _prepare(cfg)
    current = sha256_file(out_dir / "dataset" / "header.json")
    assert current != scored
    with pytest.raises(ConfigError) as err:
        pipeline.stage_evaluate(cfg)
    assert scored in str(err.value) and current in str(err.value)
    (out_dir / "detections" / "detect-ae.manifest.json").unlink()
    with pytest.raises(MissingArtifact, match="run the detect stage for ae"):
        pipeline.stage_evaluate(cfg)


def test_report_refuses_an_evaluation_of_another_dataset(tmp_path):
    out_dir = tmp_path / "run"
    cfg = _tiny(out_dir, seed=3, models=["ae"])
    _prepare(cfg)
    pipeline.stage_train(cfg, "ae")
    pipeline.stage_thresholds(cfg, "ae")
    pipeline.stage_detect(cfg, "ae")
    pipeline.stage_evaluate(cfg)
    evaluated = sha256_file(out_dir / "dataset" / "header.json")

    # another seed rebuilds the dataset in place; the evaluation stays
    cfg = _tiny(out_dir, seed=4, models=["ae"])
    _prepare(cfg)
    current = sha256_file(out_dir / "dataset" / "header.json")
    assert current != evaluated
    with pytest.raises(ConfigError) as err:
        pipeline.stage_report(cfg)
    assert evaluated in str(err.value) and current in str(err.value)


def test_evaluate_refuses_detections_scored_with_other_thresholds(tmp_path):
    out_dir = tmp_path / "run"
    cfg = _tiny(out_dir, models=["ae"])
    _prepare(cfg)
    pipeline.stage_train(cfg, "ae")
    pipeline.stage_thresholds(cfg, "ae")
    pipeline.stage_detect(cfg, "ae")
    scored = sha256_file(out_dir / "models" / "ae" / "thresholds.csv")

    # refit the taus with another lambda and do not detect again
    pipeline.stage_thresholds(config_from_dict(
        {**TINY_FLEET, "thresholds": {"lam": 1.0}}, seed=3, out_dir=out_dir), "ae")
    current = sha256_file(out_dir / "models" / "ae" / "thresholds.csv")
    assert current != scored
    with pytest.raises(ConfigError) as err:
        pipeline.stage_evaluate(cfg)
    assert scored in str(err.value) and current in str(err.value)


def test_stages_refuse_thresholds_fitted_under_another_lambda_or_split(tmp_path):
    out_dir = tmp_path / "run"
    cfg = _tiny(out_dir, models=["ae", "cae"])
    _prepare(cfg)
    for kind in ("ae", "cae"):
        pipeline.stage_train(cfg, kind)
        pipeline.stage_thresholds(cfg, kind)
        pipeline.stage_detect(cfg, kind)
    pipeline.stage_group(cfg)
    pipeline.stage_evaluate(cfg)

    for asked in ({"lam": 2.0}, {"fit_split": "val"}):
        other = _tiny(out_dir, models=["ae", "cae"], thresholds=asked)
        wanted = (f"lambda {other.thresholds.lam!r} "
                  f"on the {other.thresholds.fit_split} split")
        for stage in (lambda: pipeline.stage_group(other),
                      lambda: pipeline.stage_train(other, "gcae"),
                      lambda: pipeline.stage_detect(other, "ae"),
                      lambda: pipeline.stage_evaluate(other),
                      lambda: pipeline.stage_report(other)):
            with pytest.raises(ConfigError) as err:
                stage()
            assert "fitted with lambda 5.0 on the train split" in str(err.value)
            assert wanted in str(err.value)

    # the thresholds stage refits under the asked values, and detect then runs
    other = config_from_dict({**TINY_FLEET, "thresholds": {"lam": 2.0}}, seed=3,
                             out_dir=out_dir)
    assert pipeline.stage_thresholds(other, "ae")["lam"] == 2.0
    pipeline.stage_detect(other, "ae")


def test_gcae_refuses_a_grouping_of_an_older_cae(tmp_path):
    out_dir = tmp_path / "run"
    cfg = _tiny(out_dir)
    _prepare(cfg)
    pipeline.stage_train(cfg, "cae")
    pipeline.stage_thresholds(cfg, "cae")
    pipeline.stage_group(cfg)
    pipeline.stage_train(cfg, "gcae")
    grouped = sha256_file(out_dir / "models" / "cae" / "detector.json")

    # retrain cae for another number of epochs and do not group again
    longer = {**TINY_FLEET, "train": {"max_epochs": 3, "patience": 2, "batch_size": 64}}
    pipeline.stage_train(config_from_dict(longer, seed=3, out_dir=out_dir), "cae")
    current = sha256_file(out_dir / "models" / "cae" / "detector.json")
    assert current != grouped
    with pytest.raises(ConfigError) as err:
        pipeline.stage_train(cfg, "gcae")
    assert grouped in str(err.value) and current in str(err.value)


def test_gcae_refuses_a_grouping_of_another_dataset(tmp_path):
    out_dir = tmp_path / "run"
    cfg = _tiny(out_dir, seed=3)
    _prepare(cfg)
    pipeline.stage_train(cfg, "cae")
    pipeline.stage_thresholds(cfg, "cae")
    pipeline.stage_group(cfg)
    grouped = sha256_file(out_dir / "dataset" / "header.json")

    # another seed rebuilds the dataset in place; the cae bundle and grouping stay
    cfg = _tiny(out_dir, seed=4)
    _prepare(cfg)
    current = sha256_file(out_dir / "dataset" / "header.json")
    assert current != grouped
    with pytest.raises(ConfigError) as err:
        pipeline.stage_train(cfg, "gcae")
    assert grouped in str(err.value) and current in str(err.value)


def test_gcae_refuses_a_deleted_grouping(tmp_path):
    cfg = _tiny(tmp_path / "run")
    _prepare(cfg)
    pipeline.stage_train(cfg, "cae")
    pipeline.stage_thresholds(cfg, "cae")
    pipeline.stage_group(cfg)
    (tmp_path / "run" / "grouping" / "grouping.json").unlink()
    with pytest.raises(MissingArtifact, match="run the group stage first"):
        pipeline.stage_train(cfg, "gcae")


def test_report_refuses_a_deleted_evaluation(tmp_path):
    cfg = _tiny(tmp_path / "run", models=["ae"])
    _prepare(cfg)
    pipeline.stage_train(cfg, "ae")
    pipeline.stage_thresholds(cfg, "ae")
    pipeline.stage_detect(cfg, "ae")
    pipeline.stage_evaluate(cfg)
    (tmp_path / "run" / "evaluation" / "evaluation.json").unlink()
    with pytest.raises(MissingArtifact, match="run the evaluate stage first"):
        pipeline.stage_report(cfg)


def test_build_refuses_a_missing_ingest_table(tmp_path):
    cfg = _tiny(tmp_path / "run")
    pipeline.stage_simulate(cfg)
    with pytest.raises(MissingArtifact, match="run the ingest stage first"):
        pipeline.stage_build(cfg)
    pipeline.stage_ingest(cfg)
    (tmp_path / "run" / "messages" / "header.json").unlink()
    with pytest.raises(MissingArtifact, match="run the ingest stage first"):
        pipeline.stage_build(cfg)


def test_build_refuses_a_table_parsed_from_other_records(tmp_path):
    out_dir = tmp_path / "run"
    _prepare(_tiny(out_dir, seed=3))
    parsed = sha256_file(out_dir / "synth" / "records.csv")
    # another seed rewrites the records but not the ingest table
    cfg = _tiny(out_dir, seed=4)
    pipeline.stage_simulate(cfg)
    current = sha256_file(out_dir / "synth" / "records.csv")
    assert current != parsed
    with pytest.raises(ConfigError) as err:
        pipeline.stage_build(cfg)
    assert parsed in str(err.value) and current in str(err.value)
    pipeline.stage_ingest(cfg)
    pipeline.stage_build(cfg)


def _dataset(out_dir):
    return {p.name: p.read_bytes() for p in sorted((out_dir / "dataset").glob("*"))
            if not p.name.endswith("manifest.json")}


def test_configured_records_need_no_simulate_manifest(tmp_path):
    simulated = tmp_path / "simulated"
    _prepare(_tiny(simulated))
    raw = tmp_path / "raw"
    shutil.copytree(simulated / "synth", raw)
    (raw / "simulate.manifest.json").unlink()
    out_dir = tmp_path / "run"
    cfg = config_from_dict({"train": TINY_FLEET["train"],
                            **{name: str(raw / f"{name}.csv")
                               for name in ("records", "truth", "ports")}},
                           seed=3, out_dir=out_dir)
    pipeline.stage_ingest(cfg)
    pipeline.stage_build(cfg)
    assert not (out_dir / "synth").exists()
    assert _dataset(out_dir) == _dataset(simulated)
    assert json.loads((out_dir / "dataset" / "build.manifest.json").read_text())["inputs"] == {}


def test_ingest_and_build_refuse_an_edited_simulated_file(tmp_path):
    cfg = _tiny(tmp_path / "run")
    pipeline.stage_simulate(cfg)
    for name, stage in (("records.csv", pipeline.stage_ingest),
                        ("truth.csv", pipeline.stage_build)):
        path = tmp_path / "run" / "synth" / name
        written = path.read_bytes()
        path.write_bytes(written[:-1] + bytes([written[-1] ^ 0x01]))
        _assert_refused(lambda: stage(cfg), path, (hashlib.sha256(written).hexdigest(),
                                                   sha256_file(path)))
        path.write_bytes(written)
        stage(cfg)


@pytest.fixture(scope="module")
def cae_run(tmp_path_factory):
    """The tiny fleet at the default lambda 5 through report with cae alone."""
    out_dir = tmp_path_factory.mktemp("cae") / "run"
    cfg = _tiny(out_dir, models=["cae"])
    _prepare(cfg)
    pipeline.stage_train(cfg, "cae")
    pipeline.stage_thresholds(cfg, "cae")
    pipeline.stage_group(cfg)
    pipeline.stage_detect(cfg, "cae")
    pipeline.stage_evaluate(cfg)
    pipeline.stage_report(cfg)
    return out_dir


def _tampered(cae_run, tmp_path, name, edit):
    """A copy of cae_run with edit applied to the bytes of the file at name:
    its config, the edited file and the file's sha256 before and after."""
    out_dir = tmp_path / "run"
    shutil.copytree(cae_run, out_dir)
    path = out_dir / name
    before = sha256_file(path)
    data = bytearray(path.read_bytes())
    edit(data)
    path.write_bytes(bytes(data))
    assert sha256_file(path) != before
    return _tiny(out_dir, models=["cae"]), path, (before, sha256_file(path))


def _assert_refused(stage, path, digests):
    with pytest.raises(ConfigError) as err:
        stage()
    assert str(path) in str(err.value)
    assert all(digest in str(err.value) for digest in digests)


def _flip_last_byte(data):
    data[-1] ^= 0x01


def test_a_flipped_checkpoint_byte_is_refused(cae_run, tmp_path):
    cfg, path, digests = _tampered(cae_run, tmp_path, "models/cae/decoder_k0.ckpt",
                                   _flip_last_byte)
    for stage in (lambda: pipeline.stage_thresholds(cfg, "cae"),
                  lambda: pipeline.stage_detect(cfg, "cae"),
                  lambda: pipeline.stage_group(cfg)):
        _assert_refused(stage, path, digests)


def test_an_edited_dataset_tensor_is_refused(cae_run, tmp_path):
    def overwrite_last_value(data):
        data[-4:] = struct.pack("<f", 12345.0)
    cfg, path, digests = _tampered(cae_run, tmp_path, "dataset/test.f32",
                                   overwrite_last_value)
    for stage in (lambda: pipeline.stage_train(cfg, "ae"),
                  lambda: pipeline.stage_detect(cfg, "cae")):
        _assert_refused(stage, path, digests)


def test_an_edited_threshold_table_is_refused(cae_run, tmp_path):
    def double_first_tau(data):
        lines = bytes(data).decode().splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[4] = repr(2 * float(fields[4]))
        lines[1] = ",".join(fields) + "\n"
        data[:] = "".join(lines).encode()
    cfg, path, digests = _tampered(cae_run, tmp_path, "models/cae/thresholds.csv",
                                   double_first_tau)
    for stage in (lambda: pipeline.stage_detect(cfg, "cae"),
                  lambda: pipeline.stage_group(cfg),
                  lambda: pipeline.stage_evaluate(cfg)):
        _assert_refused(stage, path, digests)


def _flip_a_header_byte(data):
    data[12] ^= 0x80


def _cut_in_half(data):
    del data[len(data) // 2:]


def _cut_to_60_bytes(data):
    del data[60:]


@pytest.mark.parametrize("name, edit, stages", [
    ("models/cae/decoder_k0.ckpt", _flip_a_header_byte, ("thresholds", "detect", "group")),
    ("models/cae/detector.json", _cut_in_half, ("thresholds", "detect", "group")),
    ("models/cae/thresholds.csv", _cut_to_60_bytes, ("detect", "group", "evaluate")),
])
def test_a_file_its_parser_would_choke_on_is_refused_first(cae_run, tmp_path, name, edit,
                                                            stages):
    cfg, path, digests = _tampered(cae_run, tmp_path, name, edit)
    run = {"thresholds": lambda: pipeline.stage_thresholds(cfg, "cae"),
           "detect": lambda: pipeline.stage_detect(cfg, "cae"),
           "group": lambda: pipeline.stage_group(cfg),
           "evaluate": lambda: pipeline.stage_evaluate(cfg)}
    for stage in stages:
        _assert_refused(run[stage], path, digests)
    # a refused thresholds run deletes nothing
    assert (tmp_path / "run" / "models" / "cae" / "thresholds.csv").exists()


def test_the_thresholds_stage_refits_over_a_damaged_table(cae_run, tmp_path):
    cfg, path, _ = _tampered(cae_run, tmp_path, "models/cae/thresholds.csv",
                             _cut_to_60_bytes)
    pipeline.stage_thresholds(cfg, "cae")
    assert path.read_bytes() == (cae_run / "models" / "cae" / "thresholds.csv").read_bytes()
    pipeline.stage_detect(cfg, "cae")


def test_a_dataset_copied_on_its_own_trains_fits_and_detects(cae_run, tmp_path):
    """No synth, messages or ingest manifest beside it, as a benchmark copies it."""
    out_dir = tmp_path / "run"
    shutil.copytree(cae_run / "dataset", out_dir / "dataset")
    cfg = _tiny(out_dir, models=["cae"])
    pipeline.stage_train(cfg, "cae")
    pipeline.stage_thresholds(cfg, "cae")
    pipeline.stage_detect(cfg, "cae")
    detections = "detections/cae.csv"
    assert (out_dir / detections).read_bytes() == (cae_run / detections).read_bytes()


def _doubled_floats(data):
    """test.f32 with every value doubled: same length, other scores."""
    return (np.frombuffer(data, dtype="<f4") * 2).astype("<f4").tobytes()


def _doubled_taus(data):
    """thresholds.csv with every tau doubled: same rows, other verdicts."""
    rows = [line.split(",") for line in data.decode().splitlines()]
    for row in rows[1:-1]:
        row[4] = repr(2 * float(row[4])) if row[4] else ""
    return "".join(",".join(row) + "\n" for row in rows).encode()


@pytest.mark.parametrize("name, producer, swap", [
    ("dataset/test.f32", "build", _doubled_floats),
    ("models/cae/thresholds.csv", "thresholds", _doubled_taus),
])
def test_detect_parses_the_bytes_its_check_hashed(cae_run, tmp_path, monkeypatch, name,
                                                   producer, swap):
    """A file rewritten on disk right after its check passes is not read again."""
    out_dir = tmp_path / "run"
    shutil.copytree(cae_run, out_dir)
    path = out_dir / name
    checked = pipeline.check_inputs

    def check_then_swap(out, stage, *args):
        result = checked(out, stage, *args)
        if stage == producer:
            path.write_bytes(swap(path.read_bytes()))
        return result
    monkeypatch.setattr(pipeline, "check_inputs", check_then_swap)
    pipeline.stage_detect(_tiny(out_dir, models=["cae"]), "cae")
    assert path.read_bytes() != (cae_run / name).read_bytes()
    detections = "detections/cae.csv"
    assert (out_dir / detections).read_bytes() == (cae_run / detections).read_bytes()


@pytest.mark.parametrize("name, producer", [
    ("dataset/header.json", "build"),
    ("models/cae/detector.json", "train"),
    ("models/cae/thresholds.csv", "thresholds"),
])
def test_detect_parses_a_file_deleted_after_its_check(cae_run, tmp_path, monkeypatch, name,
                                                      producer):
    """A loader finds a checked file in the stage's read scope once it is gone from disk."""
    out_dir = tmp_path / "run"
    shutil.copytree(cae_run, out_dir)
    path = out_dir / name
    checked = pipeline.check_inputs

    def check_then_delete(out, stage, *args):
        checked(out, stage, *args)
        if stage == producer:
            path.unlink()
    monkeypatch.setattr(pipeline, "check_inputs", check_then_delete)
    pipeline.stage_detect(_tiny(out_dir, models=["cae"]), "cae")
    assert not path.exists()
    detections = "detections/cae.csv"
    assert (out_dir / detections).read_bytes() == (cae_run / detections).read_bytes()


def test_detect_parses_the_thresholds_table_once(cae_run, tmp_path, monkeypatch):
    """The table the bundle loads is the one the lambda and split check reads."""
    out_dir = tmp_path / "run"
    shutil.copytree(cae_run, out_dir)
    parsed = []
    load_table = pipeline.th.load_table

    def counted(path):
        parsed.append(Path(path).relative_to(out_dir).as_posix())
        return load_table(path)
    monkeypatch.setattr(pipeline.th, "load_table", counted)
    pipeline.stage_detect(_tiny(out_dir, models=["cae"]), "cae")
    assert parsed == ["models/cae/thresholds.csv"]


def test_no_stage_call_opens_a_file_of_the_run_twice(tmp_path, monkeypatch):
    out_dir = tmp_path / "run"
    run = pipeline.Stage.run
    opened_in_call = []     # the paths opened by the stage call under way
    calls = []              # (stage, kind, paths it opened) per stage call

    def counted_run(stage, cfg, kind=None):
        calls.append((stage.name, kind, []))
        opened_in_call.append(calls[-1][2])
        try:
            return run(stage, cfg, kind)
        finally:
            opened_in_call.pop()

    def counted_open(file, *args, _open=io.open, **kwargs):
        if opened_in_call and isinstance(file, (str, os.PathLike)) \
                and out_dir in Path(file).parents:
            opened_in_call[-1].append(Path(file))
        return _open(file, *args, **kwargs)
    monkeypatch.setattr(pipeline.Stage, "run", counted_run)
    monkeypatch.setattr(io, "open", counted_open)
    monkeypatch.setattr(builtins, "open", counted_open)
    run_all(_tiny(out_dir))
    monkeypatch.undo()

    assert [(name, kind) for name, kind, _ in calls] == [
        ("simulate", None), ("ingest", None), ("build", None),
        *((stage, kind) for kind in ("ae", "moe", "cae")
          for stage in ("train", "thresholds", "detect")),
        ("group", None), ("train", "gcae"), ("thresholds", "gcae"), ("detect", "gcae"),
        ("evaluate", None), ("report", None)]
    assert all(opened for _, _, opened in calls)
    twice = {(name, kind): sorted(str(path.relative_to(out_dir))
                                  for path, n in Counter(opened).items() if n > 1)
             for name, kind, opened in calls}
    assert twice == dict.fromkeys(twice, [])


@pytest.fixture(scope="module")
def ae_cae_run(tmp_path_factory):
    """The tiny fleet through report with ae and cae."""
    out_dir = tmp_path_factory.mktemp("ae_cae") / "run"
    run_all(_tiny(out_dir, models=["ae", "cae"]))
    return out_dir


def test_report_refuses_a_config_that_drops_an_evaluated_model(ae_cae_run, tmp_path):
    out_dir = tmp_path / "run"
    shutil.copytree(ae_cae_run, out_dir)
    with pytest.raises(ConfigError, match=r"evaluate recorded inputs \['ae.csv', 'cae.csv'\], "
                                          r"but this check names \['ae.csv'\]; run the evaluate"):
        pipeline.stage_report(_tiny(out_dir, models=["ae"]))
    assert _artifacts(out_dir) == _artifacts(ae_cae_run)


def _recorded(out_dir):
    """How many manifests under out_dir record each output file."""
    counts = Counter()
    for manifest in out_dir.rglob("*.manifest.json"):
        counts.update(manifest.parent / name
                      for name in json.loads(manifest.read_text())["outputs"])
    return counts


def test_a_rerun_with_a_context_fewer_leaves_only_recorded_files(ae_cae_run, tmp_path):
    out_dir = tmp_path / "run"
    shutil.copytree(ae_cae_run, out_dir)
    leftover = out_dir / "models/cae/decoder_k16.ckpt"
    evaluation = out_dir / "evaluation/evaluation.json"

    def cae_losses():
        return json.loads(evaluation.read_text())["models"]["cae"]["loss_by_context"]
    assert leftover.exists() and "16" in cae_losses()
    synth = {**TINY_FLEET["synth"], "contexts": TINY_FLEET["synth"]["contexts"][:2]}
    run_all(_tiny(out_dir, models=["ae", "cae"], synth=synth))
    recorded = _recorded(out_dir)
    assert set(recorded.values()) == {1}
    assert set(recorded) == {path for path in out_dir.rglob("*") if path.is_file()
                             and not path.name.endswith(".manifest.json")}
    assert not leftover.exists() and "16" not in cae_losses()


def test_a_config_must_name_a_model():
    with pytest.raises(ConfigError, match="models must name at least one detector kind"):
        _tiny("unused", models=[])


def test_evaluate_and_report_refuse_a_configured_model_without_detections(ae_cae_run,
                                                                          tmp_path):
    out_dir = tmp_path / "run"
    shutil.copytree(ae_cae_run, out_dir)
    for name in ("cae.csv", "detect-cae.manifest.json"):
        (out_dir / "detections" / name).unlink()
    left = _artifacts(out_dir)
    cfg = _tiny(out_dir, models=["ae", "cae"])
    for stage in (pipeline.stage_evaluate, pipeline.stage_report):
        with pytest.raises(MissingArtifact, match="no detect-cae manifest at .*; run the "
                                                  "detect stage for cae first"):
            stage(cfg)
    assert _artifacts(out_dir) == left


def test_gcae_refuses_a_regrouping_until_it_is_retrained(tmp_path):
    out_dir = tmp_path / "run"
    fine, coarse = (config_from_dict({**TINY_FLEET, "models": ["cae", "gcae"],
                                      "grouping": {"delta": delta}}, seed=3, out_dir=out_dir)
                    for delta in (0.0001, 5.0))
    run_all(fine)
    grouping_json = out_dir / "grouping" / "grouping.json"
    trained_on = sha256_file(grouping_json)

    pipeline.stage_group(coarse)
    regrouped = sha256_file(grouping_json)
    assert regrouped != trained_on
    for stage in (lambda: pipeline.stage_detect(coarse, "gcae"),
                  lambda: pipeline.stage_report(coarse)):
        with pytest.raises(ConfigError, match="retrain gcae") as err:
            stage()
        assert trained_on in str(err.value) and regrouped in str(err.value)

    pipeline.stage_train(coarse, "gcae")
    pipeline.stage_thresholds(coarse, "gcae")
    pipeline.stage_detect(coarse, "gcae")
    pipeline.stage_evaluate(coarse)
    assert pipeline.stage_report(coarse)["grouping"]["delta"] == 5.0


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_a_model_that_flags_nothing_writes_strict_json(cae_run):
    evaluation = _strict_json(cae_run / "evaluation" / "evaluation.json")
    report = _strict_json(cae_run / "report.json")
    for doc in (evaluation, report):
        severity = doc["models"]["cae"]["severity"]
        assert severity["count"] == 0
        assert severity["mean"] is None and severity["median"] is None


# six contexts x 8 vessels: the context-blind vessel split of seed 1 leaves
# context 8 without validation windows
SPARSE_FLEET = {
    "synth": {
        "messages_per_vessel": 800,
        "ports": [[12.0, -40.0], [-8.0, -32.0], [4.0, -20.0]],
        "contextual_rate": 0.1,
        "collective_rate": 0.05,
        "contexts": [
            {"id": 0, "behavior": "transit", "vessels": 8, "falsify_to": "moored"},
            {"id": 16, "behavior": "fishing_zigzag", "vessels": 8,
             "falsify_to": "under_way_using_engine"},
            {"id": 5, "behavior": "anchor_drift", "vessels": 8},
            {"id": 12, "behavior": "moored", "vessels": 8},
            {"id": 21, "behavior": "sailing", "vessels": 8},
            {"id": 8, "behavior": "loiter", "vessels": 8},
        ],
    },
}


def test_moe_and_gcae_refuse_a_split_without_validation_windows_up_front(tmp_path):
    out_dir = tmp_path / "run"
    sparse = {**SPARSE_FLEET, "train": {"max_epochs": 2, "patience": 1, "batch_size": 128}}
    cfg = config_from_dict(sparse, seed=1, out_dir=out_dir)
    ratios = r"\[0\.6, 0\.2, 0\.2\]"
    # a whole run fails before any model trains
    with pytest.raises(ConfigError, match=rf"contexts \[8\] .*{ratios}.* moe and gcae"):
        run_all(cfg)
    assert not (out_dir / "models").exists()
    with pytest.raises(ConfigError, match=rf"contexts \[8\] .*{ratios}.* moe need"):
        pipeline.stage_train(cfg, "moe")
    # the models that need no validation windows per context still train
    pipeline.stage_train(cfg, "cae")
    pipeline.stage_thresholds(cfg, "cae")
    with pytest.raises(ConfigError, match=r"contexts \[8\] .* gcae need"):
        pipeline.stage_group(cfg)


# every behaviour preset, contextual and collective injection, three ports
GOLDEN_FLEET = {
    "synth": {
        "messages_per_vessel": 300,
        "ports": [[12.0, -40.0], [-8.0, -32.0], [4.0, -20.0]],
        "contextual_rate": 0.5,
        "collective_rate": 0.2,
        "contexts": [
            {"id": 0, "behavior": "transit", "vessels": 2, "falsify_to": "moored"},
            {"id": 16, "behavior": "fishing_zigzag", "vessels": 2,
             "falsify_to": "under_way_using_engine"},
            {"id": 10, "behavior": "loiter", "vessels": 2},
            {"id": 5, "behavior": "anchor_drift", "vessels": 2},
            {"id": 12, "behavior": "moored", "vessels": 2},
            {"id": 21, "behavior": "sailing", "vessels": 2},
        ],
    },
}
GOLDEN_SHA256 = {
    "synth/records.csv": "121ef0fd8c68e70122a7f352aaecc4fe992bc8e218c0b9849a47d80f59c6d7a7",
    "synth/truth.csv": "3b4e6b0499ccdde0d44b0c1837a72cf9e35d4b8faa6e8e718690a6e19bf153cb",
    "synth/ports.csv": "e10026f54451753a77e165421c8533a6ca71a4181bf37fd90c4c0e5303e92d37",
    "ingest.json": "a6e420339816e25260ee178212414900799c7c4a298e5aea4daac92841c28eaa",
    "dataset/header.json": "82c46d0b8dc531eecdf07856e5c25d1c8d8bf164b279a6d517a442437ab1012d",
    "dataset/norm_stats.json": "329277c919c3062dd649d9f1406ce304d32fa257da9ab31e870d8300a4e728bd",
    "dataset/test.f32": "43061604b9d93418b10b49b94591b1c992675ee70504b3bc786f54cef14930bc",
    "dataset/test.index.csv": "9d3c6a7d43a41ea463ee0664770448e8b3c3b02f958e88a401652efd5e417922",
    "dataset/train.f32": "a9dc39f668056a2f7878d26e7c78e858eb4559734bcc7f82cfd536c433913233",
    "dataset/train.index.csv": "aaea8a8380747a0fff64c9fd70d929179da0586d0208ddb295a42f0541920f43",
    "dataset/val.f32": "5e2ff9768af622310d12150f590ebd16d12c5e64d890ca9c1a1db2bd87f86910",
    "dataset/val.index.csv": "3f36a848c89dd1bfbba3c4eb09265b13ccdfccdfba04c8cce860e46c84979806",
    # the manifests too: they are the same from any run directory
    "synth/simulate.manifest.json":
        "c6748d45d867ff72d655f4967f370736514987a2a4ead551bdef9a2dcdac7ca6",
    "ingest.manifest.json": "18293a3f45349ae0cf70b5b736230ec6ddb76cefe26ac1a043257ec6764c72a4",
    "dataset/build.manifest.json":
        "c3251a386e788a666cb1345e3126f52a618a8dacacf8785928155e240c19623e",
}


def test_data_path_bytes_are_pinned(tmp_path):
    """simulate, ingest and build write the bytes the per-message object model wrote.

    The digests were taken on an x86-64 Linux machine with glibc's libm. The
    data path rounds as that libm does (geodesy routes asin, atan2 and pow
    through Python's math), so another libm may legitimately give other
    digests; on the reference machine any change is a regression.
    """
    out_dir = tmp_path / "run"
    _prepare(config_from_dict(GOLDEN_FLEET, seed=1, out_dir=out_dir))
    written = sorted(str(p.relative_to(out_dir)) for p in out_dir.glob("dataset/*")
                     if not p.name.endswith("manifest.json"))
    assert written == sorted(n for n in GOLDEN_SHA256 if n.startswith("dataset/")
                             and not n.endswith("manifest.json"))
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
