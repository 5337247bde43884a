"""Run the evaluation fleet across seeds plus the grouping fixture.

Usage:
    python scripts/run_fixture.py [--seeds 1 2 3] [--out runs]
    python scripts/run_fixture.py --compare BEFORE.json AFTER.json

Writes one artifact tree per run under --out and a combined summary JSON
next to them. Each run is deterministic for its seed. Per fixture seed the
summary holds each detector's recall per truth kind, FPR per context and
best and stopped epoch per training branch, plus the grouping partition;
for the twin config it holds the grouping and its partition.

--compare reads two such summaries and prints every fingerprint field that
differs: best and stopped epoch per branch, recall per truth kind, FPR per
context, and the fixture and twin partitions. It exits 1 on any difference
and 0 when there is none.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ctxae.config import load_config
from ctxae.pipeline import run_all

ROOT = Path(__file__).resolve().parent.parent


def _epochs(out_dir: Path, kind: str) -> dict:
    """{branch: [best epoch, stopped epoch]} from a detector bundle."""
    manifest = json.loads((out_dir / "models" / kind / "detector.json").read_text())
    return {branch: [t["best_epoch"], t["stopped_epoch"]]
            for branch, t in manifest["training"].items()}


def _partition(grouping: dict | None) -> dict | None:
    if grouping is None:
        return None
    return {"groups": {str(g["representative"]): g["members"] for g in grouping["groups"]},
            "distinct": grouping["distinct"]}


def _fingerprint(summary: dict) -> dict[str, str]:
    """{field path: its value as canonical JSON} for every fingerprint field
    (JSON text, so that a NaN FPR equals itself)."""
    fields = {}
    for seed, run in summary["fixture"].items():
        for kind, model in run["models"].items():
            for name in ("epochs", "recall", "fpr_by_context"):
                for key, value in model[name].items():
                    fields[f"fixture {seed} {kind} {name} {key}"] = value
        fields[f"fixture {seed} partition"] = run["partition"]
    if summary["twin"] is not None:
        fields["twin partition"] = summary["twin"]["partition"]
    return {k: json.dumps(v, sort_keys=True) for k, v in fields.items()}


def compare(before: Path, after: Path) -> int:
    """Print the fingerprint fields that differ; 1 if any do, else 0."""
    old, new = (_fingerprint(json.loads(p.read_text())) for p in (before, after))
    keys = sorted(old.keys() | new.keys())
    differ = [k for k in keys if old.get(k) != new.get(k)]
    for key in differ:
        print(f"{key}: {old.get(key, 'missing')} -> {new.get(key, 'missing')}")
    print(f"{len(differ)} of {len(keys)} fingerprint fields differ")
    return 1 if differ else 0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--out", type=Path, default=ROOT / "runs")
    ap.add_argument("--skip-twin", action="store_true")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two summary files instead of running")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))

    summary: dict = {"fixture": {}, "twin": None}
    for seed in args.seeds:
        out_dir = args.out / f"fixture_s{seed}"
        cfg = load_config(ROOT / "configs" / "fixture.yaml",
                          seed=seed, out_dir=out_dir)
        t0 = time.time()
        report = run_all(cfg)
        summary["fixture"][seed] = {
            "elapsed_s": round(time.time() - t0, 1),
            "models": {k: {"recall": m["truth"]["per_kind"],
                           "fpr_by_context": m["fpr_by_context"],
                           "epochs": _epochs(out_dir, k)}
                       for k, m in report["models"].items()},
            "partition": _partition(report.get("grouping")),
        }
        print(f"fixture seed {seed}: {summary['fixture'][seed]['elapsed_s']}s")

    if not args.skip_twin:
        cfg = load_config(ROOT / "configs" / "twin.yaml",
                          out_dir=args.out / "twin_s1")
        t0 = time.time()
        report = run_all(cfg)
        summary["twin"] = {
            "elapsed_s": round(time.time() - t0, 1),
            "grouping": report.get("grouping"),
            "partition": _partition(report.get("grouping")),
        }
        print(f"twin: {summary['twin']['elapsed_s']}s")

    out_path = args.out / "summary.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
