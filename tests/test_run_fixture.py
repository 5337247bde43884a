"""scripts/run_fixture.py --compare: the fingerprint diff of two summaries."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "run_fixture", Path(__file__).resolve().parent.parent / "scripts" / "run_fixture.py")
run_fixture = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_fixture)

PARTITION = {"groups": {"16": [12, 16, 21]}, "distinct": [0, 5]}
SUMMARY = {
    "fixture": {"1": {
        "elapsed_s": 50.0,
        "models": {"cae": {
            "recall": {"contextual": {"n": 277, "recall": 0.64},
                       "collective": {"n": 5, "recall": 1.0}},
            "fpr_by_context": {"0": 0.0, "5": math.nan},
            "epochs": {"cae": [8, 18]}}},
        "partition": PARTITION}},
    "twin": {"elapsed_s": 80.0, "grouping": {"tau_dit": 0.5},
             "partition": {"groups": {"9": [0, 9]}, "distinct": [5, 16, 21]}},
}


def _compare(tmp_path, after):
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, summary in zip(paths, (SUMMARY, after)):
        path.write_text(json.dumps(summary))
    return run_fixture.compare(*paths)


def test_equal_fingerprints_exit_0_whatever_the_timings(tmp_path, capsys):
    after = copy.deepcopy(SUMMARY)
    after["fixture"]["1"]["elapsed_s"] = 70.0
    after["twin"]["grouping"]["tau_dit"] = 0.6   # not a fingerprint field
    assert _compare(tmp_path, after) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 7 fingerprint fields differ"]


@pytest.mark.parametrize("path,value,line", [
    (("fixture", "1", "models", "cae", "epochs", "cae"), [9, 19],
     "fixture 1 cae epochs cae: [8, 18] -> [9, 19]"),
    (("fixture", "1", "models", "cae", "recall", "contextual", "recall"), 0.65,
     'fixture 1 cae recall contextual: {"n": 277, "recall": 0.64} -> {"n": 277, "recall": 0.65}'),
    (("fixture", "1", "models", "cae", "fpr_by_context", "5"), 0.01,
     "fixture 1 cae fpr_by_context 5: NaN -> 0.01"),
    (("fixture", "1", "partition", "distinct"), [0],
     'fixture 1 partition: {"distinct": [0, 5], "groups": {"16": [12, 16, 21]}} -> '
     '{"distinct": [0], "groups": {"16": [12, 16, 21]}}'),
    (("twin", "partition", "distinct"), [5, 16],
     'twin partition: {"distinct": [5, 16, 21], "groups": {"9": [0, 9]}} -> '
     '{"distinct": [5, 16], "groups": {"9": [0, 9]}}'),
], ids=["epochs", "recall", "fpr", "partition", "twin-partition"])
def test_each_moved_field_is_printed_and_exits_1(tmp_path, capsys, path, value, line):
    after = copy.deepcopy(SUMMARY)
    node = after
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert _compare(tmp_path, after) == 1
    assert capsys.readouterr().out.splitlines() == [line, "1 of 7 fingerprint fields differ"]


def test_a_missing_run_counts_as_a_difference(tmp_path, capsys):
    after = copy.deepcopy(SUMMARY)
    after["twin"] = None
    assert _compare(tmp_path, after) == 1
    assert capsys.readouterr().out.splitlines()[0].startswith("twin partition: {")
