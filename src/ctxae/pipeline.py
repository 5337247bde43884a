"""Pipeline stages shared by the CLI and the test suite.

Every stage reads its inputs from the run directory, writes its artifacts
plus a manifest, and is idempotent for a fixed config + seed. Stage order:
simulate, ingest, build, train, thresholds, group, detect, evaluate, report.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import detectors, evaluation, grouping, synth, thresholds as th
from .ais import context_registry, group_trajectories, parse_messages
from .config import RunConfig
from .dataset import (DatasetSplit, attach_truth, filter_near_ports,
                      load_dataset, normalize_split, remove_outliers,
                      save_dataset, segment, split_by_vessel, stack_tensors)
from .errors import ConfigError, MissingArtifact
from .features import NUM_FEATURES, enrich
from .manifest import config_hash, write_manifest
from .net import TrainConfig, default_autoencoder_spec

REPORT_VERSION = 1


def _paths(cfg: RunConfig) -> dict[str, Path]:
    out = Path(cfg.out_dir)
    return {
        "out": out,
        "synth": out / "synth",
        "dataset": out / "dataset",
        "models": out / "models",
        "grouping": out / "grouping",
        "detections": out / "detections",
        "evaluation": out / "evaluation",
    }


def _records_path(cfg: RunConfig) -> Path:
    path = cfg.records or _paths(cfg)["synth"] / "records.csv"
    if not path.exists():
        raise MissingArtifact(f"no input records at {path}")
    return path


def _optional_path(configured: Path | None, fallback: Path) -> Path | None:
    if configured is not None:
        if not configured.exists():
            raise MissingArtifact(f"configured file not found: {configured}")
        return configured
    return fallback if fallback.exists() else None


def stage_simulate(cfg: RunConfig) -> dict:
    if cfg.synth is None:
        raise ConfigError("simulate requires a synth section in the config")
    paths = _paths(cfg)
    result = synth.generate(cfg.synth, context_registry())
    synth.write_fleet(paths["synth"], result)
    summary = {
        "vessels": len(result.trajectories),
        "messages": sum(len(t.messages) for t in result.trajectories),
        "truth_rows": len(result.truth),
    }
    write_manifest(paths["synth"], "simulate", config_hash(cfg), {},
                   {name: paths["synth"] / name
                    for name in ("records.csv", "truth.csv", "ports.csv")},
                   extra=summary)
    return summary


def stage_ingest(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    records = _records_path(cfg)
    registry = context_registry()
    with open(records, newline="") as fh:
        messages, errors = parse_messages(fh)
    trajectories = group_trajectories(messages)
    context_counts: dict[str, int] = {}
    for m in messages:
        label = registry.context_of(m)
        key = label.name if label else "unregistered"
        context_counts[key] = context_counts.get(key, 0) + 1
    summary = {
        "messages": len(messages),
        "vessels": len(trajectories),
        "parse_errors": len(errors),
        "first_errors": [str(e) for e in errors[:10]],
        "context_counts": dict(sorted(context_counts.items())),
    }
    paths["out"].mkdir(parents=True, exist_ok=True)
    ingest_path = paths["out"] / "ingest.json"
    ingest_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_manifest(paths["out"], "ingest", config_hash(cfg),
                   {"records": records}, {"ingest": ingest_path})
    return summary


def stage_build(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    registry = context_registry()
    records = _records_path(cfg)
    truth_path = _optional_path(cfg.truth, paths["synth"] / "truth.csv")
    ports_path = _optional_path(cfg.ports, paths["synth"] / "ports.csv")
    truth_lookup = synth.load_truth(truth_path) if truth_path else {}
    ports = synth.load_ports(ports_path) if ports_path else []

    with open(records, newline="") as fh:
        messages, _ = parse_messages(fh)
    windows = []
    for traj in group_trajectories(messages):
        feats = enrich(traj)
        windows.extend(segment(traj, feats, registry,
                               window_len=cfg.dataset.window_len,
                               stride=cfg.dataset.stride))
    total_cut = len(windows)
    windows = attach_truth(windows, truth_lookup)
    windows = filter_near_ports(windows, ports, cfg.dataset.port_radius_m)
    after_ports = len(windows)
    windows = remove_outliers(windows, cfg.dataset.caps())
    after_outliers = len(windows)

    split = split_by_vessel(windows, cfg.dataset.ratios, cfg.seed,
                            cfg.dataset.max_train_per_context,
                            cfg.dataset.max_eval_per_context,
                            cfg.dataset.anomalous_to_test)
    split = normalize_split(split)
    save_dataset(paths["dataset"], split, registry, cfg.dataset.window_len,
                 cfg.seed)

    summary = {
        "windows_cut": total_cut,
        "after_port_filter": after_ports,
        "after_outlier_filter": after_outliers,
        "train": len(split.train), "val": len(split.val), "test": len(split.test),
        "excluded_contexts": list(split.excluded_contexts),
    }
    inputs = {"records": records}
    if truth_path:
        inputs["truth"] = truth_path
    if ports_path:
        inputs["ports"] = ports_path
    outputs = {f.name: f for f in sorted(paths["dataset"].glob("*"))
               if not f.name.endswith("manifest.json")}
    write_manifest(paths["dataset"], "build", config_hash(cfg), inputs,
                   outputs, extra=summary)
    return summary


def _load_split(cfg: RunConfig) -> DatasetSplit:
    split, _ = load_dataset(_paths(cfg)["dataset"])
    return split


def _model_dir(cfg: RunConfig, kind: str) -> Path:
    return _paths(cfg)["models"] / kind


def _spec(cfg: RunConfig):
    return default_autoencoder_spec(cfg.dataset.window_len, NUM_FEATURES,
                                    cfg.arch.latent)


def stage_train(cfg: RunConfig, kind: str) -> dict:
    if kind not in detectors.KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    paths = _paths(cfg)
    split = _load_split(cfg)
    spec = _spec(cfg)
    train_cfg = cfg.train

    if kind == "ae":
        det = detectors.train_ae(split, spec, train_cfg)
    elif kind == "moe":
        det = detectors.train_moe(split, spec, train_cfg)
    elif kind == "cae":
        det = detectors.train_cae(split, spec, train_cfg)
    else:
        grouping_path = paths["grouping"] / "grouping.json"
        if not grouping_path.exists():
            raise MissingArtifact(f"gcae training needs {grouping_path}; "
                                  "run the group stage first")
        result = grouping.load_grouping(grouping_path)
        det = detectors.train_gcae(split, spec, train_cfg, result.as_map())

    det.norm_stats_hash = split.norm_stats.content_hash()
    out_dir = _model_dir(cfg, kind)
    detectors.save_detector(out_dir, det)
    summary = {
        "kind": kind,
        "param_count": det.param_count(),
        "decoder_count": det.decoder_count,
        "contexts": list(det.contexts),
        "best_val_loss": min(r.best_val_loss for r in det.reports.values()),
        "epochs": {name: r.stopped_epoch for name, r in sorted(det.reports.items())},
    }
    outputs = {f.name: f for f in sorted(out_dir.glob("*"))
               if not f.name.endswith("manifest.json")}
    write_manifest(out_dir, "train", config_hash(cfg),
                   {"dataset": paths["dataset"] / "header.json"}, outputs,
                   extra=summary)
    return summary


def _load_detector(cfg: RunConfig, kind: str) -> detectors.Detector:
    return detectors.load_detector(_model_dir(cfg, kind))


def stage_thresholds(cfg: RunConfig, kind: str) -> dict:
    paths = _paths(cfg)
    split = _load_split(cfg)
    det = _load_detector(cfg, kind)
    table = detectors.fit_detector_thresholds(det, split,
                                              cfg.thresholds.fit_split,
                                              cfg.thresholds.lam)
    out_dir = _model_dir(cfg, kind)
    th.save_table(out_dir / "thresholds.csv", table)
    summary = {
        "kind": kind,
        "lam": table.lam,
        "fit_split": table.fit_split,
        "taus": {str(c): e.tau for c, e in sorted(table.entries.items())},
        "flagged": list(table.flagged),
    }
    write_manifest(out_dir, "thresholds", config_hash(cfg),
                   {"dataset": paths["dataset"] / "header.json"},
                   {"thresholds": out_dir / "thresholds.csv"}, extra=summary)
    return summary


def stage_group(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    split = _load_split(cfg)
    det = _load_detector(cfg, "cae")
    if det.thresholds is None and cfg.grouping.tau_dit is None:
        raise MissingArtifact("grouping with per-context caps needs fitted "
                              "cae thresholds; run the thresholds stage first")
    val_by_context = {cid: stack_tensors([w for w in split.val
                                          if w.context_id == cid])
                      for cid in det.contexts}
    matrix = grouping.cross_loss_matrix(det, val_by_context)
    tau_arg = cfg.grouping.tau_dit if cfg.grouping.tau_dit is not None \
        else det.thresholds
    result = grouping.derive_grouping(matrix, tau_arg,
                                      delta=cfg.grouping.delta,
                                      strategy=cfg.grouping.strategy)
    paths["grouping"].mkdir(parents=True, exist_ok=True)
    grouping.save_matrix(paths["grouping"] / "loss_matrix.csv", matrix)
    grouping.save_grouping(paths["grouping"] / "grouping.json", result)
    summary = {
        "groups": [{"representative": rep, "members": list(members)}
                   for rep, members in result.groups],
        "distinct": list(result.distinct),
        "decoder_count": result.decoder_count,
        "delta": result.delta,
        "strategy": result.strategy,
    }
    write_manifest(paths["grouping"], "group", config_hash(cfg),
                   {"cae": _model_dir(cfg, "cae") / "detector.json"},
                   {"loss_matrix": paths["grouping"] / "loss_matrix.csv",
                    "grouping": paths["grouping"] / "grouping.json"},
                   extra=summary)
    return summary


DETECTION_FIELDS = ("mmsi", "start_ts", "context_id", "decoder_key", "score",
                    "tau_context", "tau_global", "global_verdict",
                    "context_verdict", "margin_context")


def stage_detect(cfg: RunConfig, kind: str) -> dict:
    paths = _paths(cfg)
    split = _load_split(cfg)
    det = _load_detector(cfg, kind)
    if det.thresholds is None:
        raise MissingArtifact(f"{kind} bundle has no thresholds; "
                              "run the thresholds stage first")
    windows = split.test
    x = stack_tensors(windows)
    cids = np.array([w.context_id for w in windows])
    scores, ctx_verdicts, margins = det.detect(x, cids, mode="context")
    global_verdicts = scores > det.thresholds.global_tau

    paths["detections"].mkdir(parents=True, exist_ok=True)
    det_path = paths["detections"] / f"{kind}.csv"
    with open(det_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DETECTION_FIELDS)
        for i, w in enumerate(windows):
            writer.writerow([
                w.mmsi, w.start_ts, w.context_id, det.decoder_key(w.context_id),
                repr(float(scores[i])),
                repr(det.thresholds.tau(w.context_id)),
                repr(det.thresholds.global_tau),
                int(global_verdicts[i]), int(ctx_verdicts[i]),
                repr(float(margins[i])),
            ])
    summary = {
        "kind": kind,
        "windows": len(windows),
        "context_anomalies": int(ctx_verdicts.sum()),
        "global_anomalies": int(global_verdicts.sum()),
    }
    write_manifest(paths["detections"], f"detect-{kind}", config_hash(cfg),
                   {"detector": _model_dir(cfg, kind) / "detector.json",
                    "dataset": paths["dataset"] / "header.json"},
                   {f"{kind}.csv": det_path}, extra=summary)
    return summary


def _read_detections(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    def col(name, dtype):
        return np.array([dtype(r[name]) for r in rows])
    return {
        "mmsi": col("mmsi", int),
        "start_ts": col("start_ts", int),
        "context_id": col("context_id", int),
        "decoder_key": col("decoder_key", int),
        "score": col("score", float),
        "tau_context": col("tau_context", float),
        "tau_global": col("tau_global", float),
        "global_verdict": col("global_verdict", int).astype(bool),
        "context_verdict": col("context_verdict", int).astype(bool),
    }


def _primary_mode(kind: str) -> str:
    """AE is the global-threshold baseline; the rest use context thresholds."""
    return "global" if kind == "ae" else "context"


def stage_evaluate(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    split = _load_split(cfg)
    truth_by_id = {w.uid: w.truth.kind for w in split.test}

    kinds = [k for k in cfg.models
             if (paths["detections"] / f"{k}.csv").exists()]
    if not kinds:
        raise MissingArtifact("no detection files to evaluate; run detect first")

    models_report: dict[str, dict] = {}
    anomaly_sets: dict[str, set] = {}
    severity_by_id: dict[str, dict] = {}
    for kind in kinds:
        d = _read_detections(paths["detections"] / f"{kind}.csv")
        n = d["score"].shape[0]
        uids = list(zip(d["mmsi"].tolist(), d["start_ts"].tolist()))
        truth_kinds = [truth_by_id[uid] for uid in uids]
        mode = _primary_mode(kind)
        primary = d["global_verdict"] if mode == "global" else d["context_verdict"]
        taus = d["tau_global"] if mode == "global" else d["tau_context"]

        confusion = evaluation.ConfusionMatrix.from_verdicts(
            d["global_verdict"], d["context_verdict"])
        truth = evaluation.truth_metrics(primary, truth_kinds)
        sev = evaluation.severity(d["score"][primary], taus[primary])

        clean = np.array([k == "none" for k in truth_kinds])
        fpr_by_context = {}
        for cid in sorted(set(d["context_id"].tolist())):
            mask = clean & (d["context_id"] == cid)
            fpr_by_context[str(cid)] = (
                float((primary & mask).sum() / mask.sum()) if mask.sum() else None)

        anomaly_sets[kind] = {uid for uid, v in zip(uids, primary) if v}
        severity_by_id[kind] = {
            uid: float((s - t) / t)
            for uid, s, t, v in zip(uids, d["score"], taus, primary) if v
        }
        models_report[kind] = {
            "mode": mode,
            "windows": n,
            "confusion": confusion.to_dict(),
            "truth": truth.to_dict(),
            "severity": sev.to_dict(),
            "fpr_by_context": fpr_by_context,
        }

        # plot-ready loss distributions, one file per decoder
        by_decoder: dict[int, dict[int, np.ndarray]] = {}
        for dk in sorted(set(d["decoder_key"].tolist())):
            sel = d["decoder_key"] == dk
            by_decoder[int(dk)] = {
                int(cid): d["score"][sel & (d["context_id"] == cid)]
                for cid in sorted(set(d["context_id"][sel].tolist()))
            }
        table = th.load_table(_model_dir(cfg, kind) / "thresholds.csv")
        evaluation.export_distributions(paths["evaluation"], by_decoder, table,
                                        prefix=f"dist_{kind}")

    report = {
        "models": models_report,
        "overlap": evaluation.overlap(anomaly_sets).to_dict(),
        "anomaly_ids": {k: sorted(map(list, v)) for k, v in anomaly_sets.items()},
        "severity_by_id": {
            k: {f"{m}:{t}": s for (m, t), s in sorted(v.items())}
            for k, v in severity_by_id.items()
        },
    }
    paths["evaluation"].mkdir(parents=True, exist_ok=True)
    eval_path = paths["evaluation"] / "evaluation.json"
    eval_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    write_manifest(paths["evaluation"], "evaluate", config_hash(cfg),
                   {f"{k}.csv": paths["detections"] / f"{k}.csv" for k in kinds},
                   {"evaluation": eval_path})
    return report


def stage_report(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    eval_path = paths["evaluation"] / "evaluation.json"
    if not eval_path.exists():
        raise MissingArtifact("no evaluation.json; run evaluate first")
    evaluation_report = json.loads(eval_path.read_text())

    models = {}
    for kind in cfg.models:
        manifest_path = _model_dir(cfg, kind) / "detector.json"
        if not manifest_path.exists():
            continue
        manifest = json.loads(manifest_path.read_text())
        table_path = _model_dir(cfg, kind) / "thresholds.csv"
        taus = {}
        if table_path.exists():
            table = th.load_table(table_path)
            taus = {("global" if c == th.GLOBAL_ID else str(c)): e.tau
                    for c, e in sorted(table.entries.items())}
        models[kind] = {
            "param_count": manifest["param_count"],
            "decoder_count": manifest["decoder_count"],
            "contexts": manifest["contexts"],
            "thresholds": taus,
            **evaluation_report["models"].get(kind, {}),
        }

    report = {
        "version": REPORT_VERSION,
        "seed": cfg.seed,
        "models": models,
        "overlap": evaluation_report["overlap"],
        "anomaly_ids": evaluation_report["anomaly_ids"],
        "severity_by_id": evaluation_report["severity_by_id"],
    }
    grouping_path = paths["grouping"] / "grouping.json"
    if grouping_path.exists():
        report["grouping"] = json.loads(grouping_path.read_text())

    report_path = paths["out"] / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    write_manifest(paths["out"], "report", config_hash(cfg),
                   {"evaluation": eval_path}, {"report": report_path})
    return report


def run_all(cfg: RunConfig) -> dict:
    """Canonical end-to-end order; gcae slots in after grouping."""
    if cfg.synth is not None:
        stage_simulate(cfg)
    stage_ingest(cfg)
    stage_build(cfg)
    base = [k for k in cfg.models if k != "gcae"]
    for kind in base:
        stage_train(cfg, kind)
        stage_thresholds(cfg, kind)
    if "gcae" in cfg.models:
        if "cae" not in cfg.models:
            raise ConfigError("gcae requires cae in the model list")
        stage_group(cfg)
        stage_train(cfg, "gcae")
        stage_thresholds(cfg, "gcae")
    for kind in cfg.models:
        stage_detect(cfg, kind)
    stage_evaluate(cfg)
    return stage_report(cfg)
