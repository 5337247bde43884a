"""Command line: exit codes and the one-line JSON summary."""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from ctxae.cli import main
from ctxae.manifest import sha256_file
from ctxae.net import training

TINY = {
    "seed": 2,
    "synth": {
        "messages_per_vessel": 100,
        "contexts": [{"id": 0, "behavior": "transit", "vessels": 3}],
    },
}


def _invoke(tmp_path, args, raw=TINY):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    return CliRunner().invoke(
        main, [*args, "--config", str(config), "--out", str(tmp_path / "run")])


def test_simulate_prints_its_summary(tmp_path):
    result = _invoke(tmp_path, ["simulate"])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["ok"] == "simulate"
    assert summary["vessels"] == 3
    assert summary["messages"] == 300
    assert (tmp_path / "run" / "synth" / "truth.csv").exists()


def test_config_error_exits_2(tmp_path):
    result = _invoke(tmp_path, ["simulate"], raw={**TINY, "bogus": 1})
    assert result.exit_code == 2
    assert result.stderr.startswith("ConfigError: ")


@pytest.mark.parametrize("section, message", [
    ({"synth": {"contexts": [{"behavior": "transit"}]}}, "each synth context needs an id"),
    ({"synth": {"contexts": [{"id": 0, "behavior": "transit", "vessels": "many"}]}},
     "vessels must be an integer, got 'many'"),
    ({"synth": {**TINY["synth"], "ports": [[1.0]]}}, "synth ports must be [lat, lon] pairs"),
    ({"dataset": {"ratios": 5}}, "invalid section 'dataset'"),
    ({"models": ["cae", "cae"]}, "models names a kind twice: ['cae', 'cae']"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"synth": {**TINY["synth"], "messages_per_vessel": "x"}},
     "invalid section 'synth': messages_per_vessel must be an integer, got 'x'"),
    ({"synth": {**TINY["synth"], "contextual_rate": "x"}},
     "invalid section 'synth': contextual_rate must be a number, got 'x'"),
    ({"records": 5}, "records must be a path or null, got 5"),
    ({"synth": {**TINY["synth"], "contexts": 5}},
     "invalid section 'synth': contexts must be a list, got 5"),
    ({"models": None}, "models must be a list, got None"),
    ({"models": "ae"}, "models must be a list, got 'ae'"),
    ({"train": []}, "train must be a mapping, got []"),
    ({"dataset": {"stride": 25.5}},
     "invalid section 'dataset': stride must be an integer, got 25.5"),
    ({"train": {"batch_size": 64.0}},
     "invalid section 'train': batch_size must be an integer, got 64.0"),
    ({"synth": {**TINY["synth"], "contexts": [{"id": 1.5, "behavior": "transit"}]}},
     "synth context 1.5: id must be an integer, got 1.5"),
    ({"synth": {**TINY["synth"], "contexts": [{"id": True, "behavior": "transit"}]}},
     "synth context True: id must be an integer, got True"),
    ({"synth": {**TINY["synth"], "contexts": [{"id": 0, "behavior": "transit", "vessels": 2.5}]}},
     "synth context 0: vessels must be an integer, got 2.5"),
    ({"synth": {**TINY["synth"], "contexts": [{"id": 0, "behavior": "transit", "vessels": True}]}},
     "synth context 0: vessels must be an integer, got True"),
    # the preset names the motion model: a moored vessel at transit speeds is no preset
    ({"synth": {**TINY["synth"], "contexts": [{"id": 0, "behavior": "transit", "kind": "moored"}]}},
     "synth context 0: unknown keys ['kind']"),
    # Adam runs with fixed hyperparameters, so the key is gone
    ({"train": {"learning_rate": 0.01}}, "unknown keys ['learning_rate']"),
    ({"synth": {**TINY["synth"], "contexts": [
        {"id": 0, "behavior": "transit", "falsify_to": "sunk"}]}},
     "unknown nav status 'sunk'"),
    # no preset varies the message interval, so it is a constant, not a key
    ({"synth": {**TINY["synth"], "contexts": [
        {"id": 0, "behavior": "transit", "interval_s": 60.0}]}},
     "synth context 0: unknown keys ['interval_s']"),
])
def test_a_malformed_config_exits_2_without_a_traceback(tmp_path, section, message):
    result = _invoke(tmp_path, ["simulate"], raw={**TINY, **section})
    assert result.exit_code == 2
    assert result.stderr.startswith("ConfigError: ") and message in result.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("context, message", [
    # set_longlines (context 1) has no moored context
    ({"id": 1, "behavior": "transit", "falsify_to": "moored"},
     "(set_longlines, moored) is not a registered context"),
    ({"id": 0, "behavior": "transit", "falsify_to": "under_way_using_engine"},
     "falsified status maps to the vessel's true context"),
])
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_a_falsification_to_no_other_context_exits_2_at_load(tmp_path, context, message, rate):
    # refused when the config is built, even where no vessel would carry it
    raw = {**TINY, "synth": {**TINY["synth"], "contextual_rate": rate, "contexts": [context]}}
    result = _invoke(tmp_path, ["simulate"], raw=raw)
    assert result.exit_code == 2
    assert result.stderr == f"UnregisteredFalsification: {message}\n"
    assert not (tmp_path / "run").exists()


def test_collective_span_that_does_not_fit_exits_2(tmp_path):
    raw = {**TINY, "dataset": {"window_len": 20},
           "synth": {**TINY["synth"], "messages_per_vessel": 20, "collective_rate": 0.5}}
    result = _invoke(tmp_path, ["simulate"], raw=raw)
    assert result.exit_code == 2
    assert result.stderr.startswith("ConfigError: messages_per_vessel 20 ")
    assert "collective span of 12 messages" in result.stderr


def test_build_before_ingest_exits_3(tmp_path):
    assert _invoke(tmp_path, ["simulate"]).exit_code == 0
    result = _invoke(tmp_path, ["build"])
    assert result.exit_code == 3
    assert result.stderr.startswith("MissingArtifact: ")
    assert "run the ingest stage first" in result.stderr


def test_a_truth_file_naming_a_point_anomaly_exits_2(tmp_path):
    # synth injects collective and contextual anomalies only, so no truth kind
    # names a point anomaly
    assert _invoke(tmp_path, ["simulate"]).exit_code == 0
    synth = tmp_path / "run" / "synth"
    truth = synth / "truth.csv"
    truth.write_text("mmsi,first_ts,last_ts,kind,true_context\n200000001,0,10,point,\n")
    raw = {"seed": 2, **{name: str(synth / f"{name}.csv") for name in ("records", "truth", "ports")}}
    assert _invoke(tmp_path, ["ingest"], raw=raw).exit_code == 0
    result = _invoke(tmp_path, ["build"], raw=raw)
    assert result.exit_code == 2
    assert result.stderr.startswith(
        f"ConfigError: truth file {truth} line 2: unknown truth kind 'point'")


def test_detect_before_train_exits_3(tmp_path):
    for stage in ("simulate", "ingest", "build"):
        assert _invoke(tmp_path, [stage]).exit_code == 0
    result = _invoke(tmp_path, ["detect", "--kind", "cae"])
    assert result.exit_code == 3
    assert result.stderr.startswith("MissingArtifact: no train manifest at ")
    assert "models/cae/train.manifest.json; retrain cae" in result.stderr


def test_non_finite_training_loss_exits_4(tmp_path, monkeypatch):
    for stage in ("simulate", "ingest", "build"):
        assert _invoke(tmp_path, [stage]).exit_code == 0
    monkeypatch.setattr(training, "mse_per_sample", lambda x, y: np.full(x.shape[0], np.nan))
    result = _invoke(tmp_path, ["train", "--kind", "ae"])
    assert result.exit_code == 4
    assert result.stderr.startswith("NonFiniteLoss: training loss became non-finite")


def test_thresholds_fitted_under_another_lambda_exit_2(tmp_path):
    for stage in ("simulate", "ingest", "build"):
        assert _invoke(tmp_path, [stage]).exit_code == 0
    for stage in ("train", "thresholds"):
        assert _invoke(tmp_path, [stage, "--kind", "ae"]).exit_code == 0
    result = _invoke(tmp_path, ["detect", "--kind", "ae"],
                     raw={**TINY, "thresholds": {"lam": 2.0}})
    assert result.exit_code == 2
    assert result.stderr.startswith("ConfigError: ae thresholds were fitted with lambda 5.0")


def test_a_flipped_checkpoint_byte_exits_2(tmp_path):
    # long enough tracks that every context gets a tau, so detect runs
    raw = {**TINY, "synth": {**TINY["synth"], "messages_per_vessel": 200}}
    for stage in ("simulate", "ingest", "build"):
        assert _invoke(tmp_path, [stage], raw=raw).exit_code == 0
    for stage in ("train", "thresholds", "detect"):
        assert _invoke(tmp_path, [stage, "--kind", "ae"], raw=raw).exit_code == 0
    checkpoint = tmp_path / "run" / "models" / "ae" / "decoder.ckpt"
    written = checkpoint.read_bytes()
    # the last weight byte, and byte 12, inside the JSON header the checkpoint
    # parser would choke on
    for at, bit in ((-1, 0x01), (12, 0x80)):
        data = bytearray(written)
        data[at] ^= bit
        checkpoint.write_bytes(bytes(data))
        result = _invoke(tmp_path, ["detect", "--kind", "ae"], raw=raw)
        assert result.exit_code == 2
        assert result.stderr.startswith("ConfigError: train wrote decoder.ckpt with sha256 ")
        assert str(checkpoint) in result.stderr


def _detect_after_table_edit(tmp_path, edit):
    """detect on ae after edit rewrote its thresholds.csv: refused on the
    thresholds manifest's digests, before the table parser sees the table."""
    for stage in ("simulate", "ingest", "build"):
        assert _invoke(tmp_path, [stage]).exit_code == 0
    for stage in ("train", "thresholds"):
        assert _invoke(tmp_path, [stage, "--kind", "ae"]).exit_code == 0
    table = tmp_path / "run" / "models" / "ae" / "thresholds.csv"
    fitted = sha256_file(table)
    edit(table)
    result = _invoke(tmp_path, ["detect", "--kind", "ae"])
    assert result.exit_code == 2
    assert result.stderr.startswith(
        f"ConfigError: thresholds wrote thresholds.csv with sha256 {fitted}, "
        f"but {table} now has sha256 {sha256_file(table)}; ")
    assert "Traceback" not in result.output + result.stderr


def test_thresholds_without_their_lambda_row_exit_2(tmp_path):
    def drop_lambda_row(table):
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("".join(line for line in lines if not line.startswith("# lambda")))
    # the default config asks for lambda 5.0 on the train split, which the
    # table was fitted under; it is refused all the same
    _detect_after_table_edit(tmp_path, drop_lambda_row)


def test_a_truncated_thresholds_table_exits_2(tmp_path):
    _detect_after_table_edit(tmp_path, lambda table: table.write_bytes(table.read_bytes()[:60]))


def _run_ae_and_cae(tmp_path):
    """run on ae and cae; the config and every file the run wrote."""
    raw = {**TINY, "synth": {**TINY["synth"], "messages_per_vessel": 200},
           "train": {"max_epochs": 2, "patience": 1}, "models": ["ae", "cae"]}
    assert _invoke(tmp_path, ["run"], raw=raw).exit_code == 0
    return raw, _files(tmp_path / "run")


def _files(out_dir):
    return {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_report_under_a_config_that_drops_a_model_exits_2(tmp_path):
    raw, written = _run_ae_and_cae(tmp_path)
    result = _invoke(tmp_path, ["report"], raw={**raw, "models": ["ae"]})
    assert result.exit_code == 2
    assert result.stderr.startswith("ConfigError: evaluate recorded inputs "
                                    "['ae.csv', 'cae.csv'], but this check names ['ae.csv']")
    assert _files(tmp_path / "run") == written


def test_evaluate_without_a_models_detections_exits_3(tmp_path):
    raw, _ = _run_ae_and_cae(tmp_path)
    for name in ("cae.csv", "detect-cae.manifest.json"):
        (tmp_path / "run" / "detections" / name).unlink()
    left = _files(tmp_path / "run")
    for stage in ("evaluate", "report"):
        result = _invoke(tmp_path, [stage], raw=raw)
        assert result.exit_code == 3
        assert result.stderr.startswith("MissingArtifact: no detect-cae manifest at ")
    assert _files(tmp_path / "run") == left


def test_detect_after_a_truncated_thresholds_manifest_exits_3(tmp_path):
    raw, _ = _run_ae_and_cae(tmp_path)
    manifest = tmp_path / "run" / "models" / "cae" / "thresholds.manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:40])
    result = _invoke(tmp_path, ["detect", "--kind", "cae"], raw=raw)
    assert result.exit_code == 3
    assert result.stderr.startswith(f"MissingArtifact: the thresholds manifest at {manifest} "
                                    "is unreadable; run the thresholds stage for cae")
    assert "Traceback" not in result.output + result.stderr


def test_report_after_an_edited_loss_distribution_exits_2(tmp_path):
    raw, _ = _run_ae_and_cae(tmp_path)
    evaluation = tmp_path / "run" / "evaluation" / "evaluation.json"
    recorded = sha256_file(evaluation)
    data = bytearray(evaluation.read_bytes())
    data[-2] ^= 1
    evaluation.write_bytes(bytes(data))
    left = _files(tmp_path / "run")
    result = _invoke(tmp_path, ["report"], raw=raw)
    assert result.exit_code == 2
    assert result.stderr.startswith("ConfigError: evaluate wrote evaluation.json "
                                    f"with sha256 {recorded}, but {evaluation} now has "
                                    f"sha256 {sha256_file(evaluation)}; run the evaluate "
                                    "stage first")
    assert _files(tmp_path / "run") == left


def test_each_command_prints_its_own_name(tmp_path):
    raw = {**TINY, "synth": {"messages_per_vessel": 200, "contexts": [
        {"id": 0, "behavior": "transit", "vessels": 10},
        {"id": 12, "behavior": "moored", "vessels": 10}]},
        "train": {"max_epochs": 2, "patience": 1}, "models": ["ae", "cae"]}
    commands = [["simulate"], ["ingest"], ["build"],
                *([stage, "--kind", kind] for kind in ("ae", "cae")
                  for stage in ("train", "thresholds")),
                ["group"], *(["detect", "--kind", kind] for kind in ("ae", "cae")),
                ["evaluate"], ["report"], ["run"]]
    for args in commands:
        result = _invoke(tmp_path, args, raw=raw)
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout.strip().splitlines()[-1])["ok"] == args[0]


def test_kind_must_be_a_detector(tmp_path):
    result = _invoke(tmp_path, ["train", "--kind", "svm"])
    assert result.exit_code == 2
    assert "'svm' is not one of 'ae', 'moe', 'cae', 'gcae'" in result.output
