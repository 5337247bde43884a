"""Pipeline stages shared by the CLI and the test suite.

Every stage reads its inputs from the run directory, writes its artifacts
plus a manifest, and is idempotent for a fixed config + seed. Stage order:
simulate, ingest, build, train, thresholds, group, detect, evaluate, report.

One staleness rule: each stage's manifest names every file it wrote and the
inputs it read, and a stage checks the producer's manifest (_check) before
it parses any file that manifest records. _inputs gives each stage's inputs,
for its write_manifest call and for every check of it, so a check names
exactly what the producer recorded. Build records none, so a dataset copied
alone stays usable; evaluate and report name the detections of every
configured model; ingest and build check simulate before they read a
simulated file. The check refuses a missing manifest or recorded file
(MissingArtifact), and other recorded inputs or other bytes in a recorded
file (ConfigError naming both), before a parser meets them. One loader per
artifact (_load_split, _bundle, _table, _grouping, _detections) checks,
then parses. The thresholds stage never reads the table it replaces: once
the bundle's train check passes, it deletes it. gcae's train manifest
records the grouping, so re-running group requires retraining gcae. A stage
that reads fitted thresholds, other than the thresholds stage itself, also
refuses a table fitted under another lambda or fit split than the config
asks for (ConfigError naming both).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import detectors, evaluation, grouping, synth, thresholds as th
from .ais import (context_registry, group_trajectories, load_table,
                  parse_messages, save_table)
from .config import RunConfig
from .dataset import (DatasetSplit, attach_truth, concat, filter_near_ports,
                      load_dataset, normalize_split, remove_outliers,
                      save_dataset, segment, split_by_vessel)
from .errors import ConfigError, MissingArtifact
from .features import NUM_FEATURES, enrich
from .manifest import check_inputs, config_hash, write_manifest
from .net import default_autoencoder_spec

REPORT_VERSION = 1


def _paths(cfg: RunConfig) -> dict[str, Path]:
    out = Path(cfg.out_dir)
    return {
        "out": out,
        "synth": out / "synth",
        "messages": out / "messages",
        "dataset": out / "dataset",
        "models": out / "models",
        "grouping": out / "grouping",
        "detections": out / "detections",
        "evaluation": out / "evaluation",
    }


def _raw_path(cfg: RunConfig, name: str) -> Path | None:
    """The configured records, truth or ports file, else the one simulate
    writes for a config with a synth section; None for neither."""
    configured = getattr(cfg, name)
    if configured is not None and not configured.exists():
        raise MissingArtifact(f"configured file not found: {configured}")
    return configured or (_paths(cfg)["synth"] / f"{name}.csv" if cfg.synth else None)


def _model_dir(cfg: RunConfig, kind: str) -> Path:
    return _paths(cfg)["models"] / kind


def _inputs(cfg: RunConfig, stage: str, kind: str = "cae") -> dict[str, Path]:
    """The inputs stage records, for its write_manifest call and for every
    check of its manifest; kind names the bundle (group reads cae's)."""
    paths = _paths(cfg)
    if stage in ("simulate", "build"):
        return {}
    if stage == "ingest":
        return {"records": _raw_path(cfg, "records")}
    if stage == "evaluate":
        return {f"{k}.csv": paths["detections"] / f"{k}.csv" for k in cfg.models}
    if stage == "report":
        return {"evaluation": paths["evaluation"] / "evaluation.json"}
    inputs = {"dataset": paths["dataset"] / "header.json"}
    bundle = _model_dir(cfg, kind)
    if stage == "group":
        inputs.update(cae=bundle / "detector.json", cae_thresholds=bundle / "thresholds.csv")
    elif stage == "detect":
        inputs.update(detector=bundle / "detector.json", thresholds=bundle / "thresholds.csv")
    elif stage == "train" and kind == "gcae":
        inputs["grouping"] = paths["grouping"] / "grouping.json"
    return inputs


_HOMES = {"simulate": "synth", "ingest": "out", "build": "dataset", "group": "grouping",
          "detect": "detections", "evaluate": "evaluation"}


def _check(cfg: RunConfig, stage: str, rerun: str, kind: str = "cae") -> None:
    """Check stage's manifest (kind's, for train, thresholds and detect)
    against _inputs(cfg, stage, kind), the inputs its producer recorded."""
    home = (_model_dir(cfg, kind) if stage in ("train", "thresholds")
            else _paths(cfg)[_HOMES[stage]])
    name = f"detect-{kind}" if stage == "detect" else stage
    check_inputs(home, name, _inputs(cfg, stage, kind), rerun)


def stage_simulate(cfg: RunConfig) -> dict:
    if cfg.synth is None:
        raise ConfigError("simulate requires a synth section in the config")
    paths = _paths(cfg)
    result = synth.generate(cfg.synth, context_registry())
    synth.write_fleet(paths["synth"], result)
    summary = {
        "vessels": len(result.trajectories),
        "messages": sum(len(t) for t in result.trajectories),
        "truth_spans": len(result.truth),
    }
    write_manifest(paths["synth"], "simulate", config_hash(cfg), _inputs(cfg, "simulate"),
                   {name: paths["synth"] / name
                    for name in ("records.csv", "truth.csv", "ports.csv")},
                   extra=summary)
    return summary


def stage_ingest(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    inputs = _inputs(cfg, "ingest")
    if cfg.records is None:
        _check(cfg, "simulate", "run the simulate stage first")
    registry = context_registry()
    with open(inputs["records"], newline="") as fh:
        table, errors = parse_messages(fh)
    ids, counts = np.unique(registry.context_ids(table.vtype, table.status),
                            return_counts=True)
    context_counts = {registry.by_id(c).name if c >= 0 else "unregistered": n
                      for c, n in zip(ids.tolist(), counts.tolist())}
    summary = {
        "messages": len(table),
        "vessels": len(np.unique(table.mmsi)),
        "parse_errors": len(errors),
        "first_errors": [str(e) for e in errors[:10]],
        "context_counts": dict(sorted(context_counts.items())),
    }
    paths["out"].mkdir(parents=True, exist_ok=True)
    ingest_path = paths["out"] / "ingest.json"
    ingest_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs = {f"messages/{path.name}": path
               for path in save_table(paths["messages"], table)}
    write_manifest(paths["out"], "ingest", config_hash(cfg), inputs,
                   {"ingest.json": ingest_path, **outputs})
    return summary


def stage_build(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    registry = context_registry()
    truth_path, ports_path = _raw_path(cfg, "truth"), _raw_path(cfg, "ports")
    _check(cfg, "ingest", "run the ingest stage first")
    if cfg.synth and None in (cfg.truth, cfg.ports):
        _check(cfg, "simulate", "run the simulate stage first")
    spans = synth.load_truth(truth_path) if truth_path else []
    ports = synth.load_ports(ports_path) if ports_path else []
    windows = concat([segment(traj, enrich(traj), registry, cfg.dataset.window_len,
                              cfg.dataset.stride)
                      for traj in group_trajectories(load_table(paths["messages"]))])
    total_cut = len(windows)
    windows = attach_truth(windows, spans)
    windows = filter_near_ports(windows, ports, cfg.dataset.port_radius_m)
    after_ports = len(windows)
    windows = remove_outliers(windows, cfg.dataset)
    after_outliers = len(windows)

    split = split_by_vessel(windows, cfg.dataset.ratios, cfg.seed,
                            cfg.dataset.max_train_per_context,
                            cfg.dataset.max_eval_per_context)
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
    outputs = {f.name: f for f in sorted(paths["dataset"].glob("*"))
               if not f.name.endswith("manifest.json")}
    write_manifest(paths["dataset"], "build", config_hash(cfg), _inputs(cfg, "build"),
                   outputs, extra=summary)
    return summary


def _check_validation_coverage(cfg: RunConfig, split: DatasetSplit,
                               kinds: tuple[str, ...]) -> None:
    """Refuse to start moe or gcae on a split that leaves a trained context
    without validation windows: moe early-stops and the gcae grouping
    compares contexts on them. The vessel split ignores context, so a small
    fleet can leave one out."""
    needs = [kind for kind in kinds if kind in ("moe", "gcae")]
    missing = sorted(set(split.train_contexts) - set(split.val.context_id.tolist()))
    if needs and missing:
        raise ConfigError(
            f"contexts {missing} have training windows but no validation windows "
            f"under split ratios {list(cfg.dataset.ratios)} (train, val, test); "
            f"{' and '.join(needs)} need validation windows in every trained "
            "context: add vessels or raise the validation share")


def _load_split(cfg: RunConfig) -> DatasetSplit:
    _check(cfg, "build", "run the build stage first")
    return load_dataset(_paths(cfg)["dataset"])[0]


def _spec(cfg: RunConfig):
    return default_autoencoder_spec(cfg.dataset.window_len, NUM_FEATURES,
                                    cfg.arch.latent)


def stage_train(cfg: RunConfig, kind: str) -> dict:
    if kind not in detectors.KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    split = _load_split(cfg)
    spec = _spec(cfg)
    train_cfg = cfg.train

    if kind == "ae":
        det = detectors.train_ae(split, spec, train_cfg)
    elif kind == "moe":
        _check_validation_coverage(cfg, split, ("moe",))
        det = detectors.train_moe(split, spec, train_cfg)
    elif kind == "cae":
        det = detectors.train_cae(split, spec, train_cfg)
    else:
        det = detectors.train_gcae(split, spec, train_cfg, _grouping(cfg).as_map())

    out_dir = _model_dir(cfg, kind)
    outputs = {path.name: path for path in detectors.save_detector(out_dir, det)}
    summary = {
        "kind": kind,
        "param_count": det.param_count(),
        "decoder_count": det.decoder_count,
        "contexts": list(det.contexts),
        "best_val_loss": min(r.best_val_loss for r in det.reports.values()),
        "epochs": {name: r.stopped_epoch for name, r in sorted(det.reports.items())},
    }
    write_manifest(out_dir, "train", config_hash(cfg), _inputs(cfg, "train", kind),
                   outputs, extra=summary)
    return summary


def _trained(cfg: RunConfig, kind: str) -> Path:
    """kind's bundle directory, once its train manifest passes."""
    _check(cfg, "train", f"retrain {kind}", kind)
    return _model_dir(cfg, kind)


def _bundle(cfg: RunConfig, kind: str, fitted: bool = True) -> detectors.Detector:
    """kind's trained bundle, loaded once its train manifest passes. Fitted,
    it holds its threshold table, once _table passes it (load_detector then
    parses those few rows again). Unfitted, for the thresholds stage, the
    table it replaces is deleted unread."""
    model_dir = _trained(cfg, kind)
    if fitted:
        _table(cfg, kind)
    else:
        (model_dir / "thresholds.csv").unlink(missing_ok=True)
    return detectors.load_detector(model_dir)


def _table(cfg: RunConfig, kind: str) -> th.ThresholdTable:
    """kind's threshold table, parsed once its thresholds manifest passes,
    and refused unless fitted under the lambda and split the config asks for."""
    _check(cfg, "thresholds", f"run the thresholds stage for {kind}", kind)
    table = th.load_table(_model_dir(cfg, kind) / "thresholds.csv")
    asked = (cfg.thresholds.lam, cfg.thresholds.fit_split)
    if (table.lam, table.fit_split) != asked:
        raise ConfigError(
            f"{kind} thresholds were fitted with lambda {table.lam!r} on the "
            f"{table.fit_split} split, the config asks for lambda {asked[0]!r} "
            f"on the {asked[1]} split; run the thresholds stage for {kind}")
    return table


def stage_thresholds(cfg: RunConfig, kind: str) -> dict:
    split = _load_split(cfg)
    det = _bundle(cfg, kind, fitted=False)
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
    write_manifest(out_dir, "thresholds", config_hash(cfg), _inputs(cfg, "thresholds", kind),
                   {"thresholds.csv": out_dir / "thresholds.csv"}, extra=summary)
    return summary


def _grouping(cfg: RunConfig) -> grouping.GroupingResult:
    """The grouping, parsed once its group manifest passes and the cae table
    it was derived with passes _table."""
    _check(cfg, "group", "run the group stage first")
    _table(cfg, "cae")
    return grouping.load_grouping(_paths(cfg)["grouping"] / "grouping.json")


def stage_group(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    split = _load_split(cfg)
    det = _bundle(cfg, "cae")
    _check_validation_coverage(cfg, split, ("gcae",))
    val = split.val
    matrix = grouping.cross_loss_matrix(
        det, {cid: val.tensor[val.context_id == cid] for cid in det.contexts})
    result = grouping.derive_grouping(matrix, det.thresholds,
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
    write_manifest(paths["grouping"], "group", config_hash(cfg), _inputs(cfg, "group"),
                   {name: paths["grouping"] / name
                    for name in ("loss_matrix.csv", "grouping.json")},
                   extra=summary)
    return summary


DETECTION_FIELDS = ("mmsi", "start_ts", "context_id", "decoder_key", "score",
                    "tau_context", "tau_global", "global_verdict",
                    "context_verdict", "margin_context")


def stage_detect(cfg: RunConfig, kind: str) -> dict:
    paths = _paths(cfg)
    split = _load_split(cfg)
    det = _bundle(cfg, kind)
    table = det.thresholds
    windows = split.test
    scores, ctx_verdicts, margins = det.detect(windows.tensor, windows.context_id,
                                               mode="context")
    global_verdicts = scores > table.global_tau

    paths["detections"].mkdir(parents=True, exist_ok=True)
    det_path = paths["detections"] / f"{kind}.csv"
    with open(det_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DETECTION_FIELDS)
        for w, score, g, c, margin in zip(windows, scores.tolist(), global_verdicts.tolist(),
                                          ctx_verdicts.tolist(), margins.tolist()):
            writer.writerow([
                w.mmsi, w.start_ts, w.context_id, det.decoder_key(w.context_id),
                repr(score), repr(table.tau(w.context_id)),
                repr(table.global_tau), int(g), int(c), repr(margin),
            ])
    summary = {
        "kind": kind,
        "windows": len(windows),
        "context_anomalies": int(ctx_verdicts.sum()),
        "global_anomalies": int(global_verdicts.sum()),
    }
    write_manifest(paths["detections"], f"detect-{kind}", config_hash(cfg),
                   _inputs(cfg, "detect", kind), {f"{kind}.csv": det_path}, extra=summary)
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


def _detections(cfg: RunConfig) -> dict[str, Path]:
    """The detections CSV of each configured model, by file name, once every
    detect manifest passes."""
    for kind in cfg.models:
        _check(cfg, "detect", f"run the detect stage for {kind} first", kind)
    return _inputs(cfg, "evaluate")


def _primary_mode(kind: str) -> str:
    """AE is the global-threshold baseline; the rest use context thresholds."""
    return "global" if kind == "ae" else "context"


def stage_evaluate(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    split = _load_split(cfg)
    test = split.test
    truth_by_id = dict(zip(zip(test.mmsi.tolist(), test.start_ts.tolist()),
                           test.truth.tolist()))

    detections = _detections(cfg)
    tables = {path.stem: _table(cfg, path.stem) for path in detections.values()}
    for stale in paths["evaluation"].glob("dist_*.csv"):
        stale.unlink()
    dists: list[Path] = []

    models_report: dict[str, dict] = {}
    anomaly_sets: dict[str, set] = {}
    severity_by_id: dict[str, dict] = {}
    for det_path in detections.values():
        kind = det_path.stem
        d = _read_detections(det_path)
        n = d["score"].shape[0]
        uids = list(zip(d["mmsi"].tolist(), d["start_ts"].tolist()))
        truth_kinds = [truth_by_id[uid] for uid in uids]
        mode = _primary_mode(kind)
        primary = d["global_verdict"] if mode == "global" else d["context_verdict"]
        taus = d["tau_global"] if mode == "global" else d["tau_context"]

        sev, sev_values = evaluation.severity(d["score"][primary], taus[primary])
        clean = np.array([k == "none" for k in truth_kinds])
        fpr_by_context = {}
        for cid in sorted(set(d["context_id"].tolist())):
            mask = clean & (d["context_id"] == cid)
            fpr_by_context[str(cid)] = (
                float((primary & mask).sum() / mask.sum()) if mask.sum() else None)

        flagged = [uid for uid, v in zip(uids, primary.tolist()) if v]
        anomaly_sets[kind] = set(flagged)
        severity_by_id[kind] = {f"{m}:{t}": s
                                for (m, t), s in zip(flagged, sev_values.tolist())}
        models_report[kind] = {
            "mode": mode,
            "windows": n,
            "confusion": evaluation.confusion(d["global_verdict"], d["context_verdict"]),
            "truth": evaluation.truth_metrics(primary, truth_kinds),
            "severity": sev,
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
        dists += evaluation.export_distributions(paths["evaluation"], by_decoder,
                                                 tables[kind], prefix=f"dist_{kind}")

    report = {
        "models": models_report,
        "overlap": evaluation.overlap(anomaly_sets),
        "anomaly_ids": {k: sorted(map(list, v)) for k, v in anomaly_sets.items()},
        "severity_by_id": severity_by_id,
    }
    paths["evaluation"].mkdir(parents=True, exist_ok=True)
    eval_path = paths["evaluation"] / "evaluation.json"
    eval_path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
                       + "\n")
    write_manifest(paths["evaluation"], "evaluate", config_hash(cfg), detections,
                   {"evaluation.json": eval_path, **{path.name: path for path in dists}})
    return report


def stage_report(cfg: RunConfig) -> dict:
    paths = _paths(cfg)
    _detections(cfg)
    _check(cfg, "evaluate", "run the evaluate stage first")
    inputs = _inputs(cfg, "report")
    evaluation_report = json.loads(inputs["evaluation"].read_text())

    models = {}
    for kind in cfg.models:
        manifest = json.loads((_trained(cfg, kind) / "detector.json").read_text())
        table = _table(cfg, kind)
        models[kind] = {
            "param_count": manifest["param_count"],
            "decoder_count": manifest["decoder_count"],
            "contexts": manifest["contexts"],
            "thresholds": {("global" if c == th.GLOBAL_ID else str(c)): e.tau
                           for c, e in sorted(table.entries.items())},
            **evaluation_report["models"][kind],
        }

    report = {
        "version": REPORT_VERSION,
        "seed": cfg.seed,
        "models": models,
        "overlap": evaluation_report["overlap"],
        "anomaly_ids": evaluation_report["anomaly_ids"],
        "severity_by_id": evaluation_report["severity_by_id"],
    }
    if "gcae" in models:
        report["grouping"] = _grouping(cfg).to_dict()

    report_path = paths["out"] / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
                         + "\n")
    write_manifest(paths["out"], "report", config_hash(cfg),
                   inputs, {"report.json": report_path})
    return report


def run_all(cfg: RunConfig) -> dict:
    """Canonical end-to-end order; gcae slots in after grouping."""
    if "gcae" in cfg.models and "cae" not in cfg.models:
        raise ConfigError("gcae requires cae in the model list")
    if cfg.synth is not None:
        stage_simulate(cfg)
    stage_ingest(cfg)
    stage_build(cfg)
    _check_validation_coverage(cfg, _load_split(cfg), cfg.models)
    base = [k for k in cfg.models if k != "gcae"]
    for kind in base:
        stage_train(cfg, kind)
        stage_thresholds(cfg, kind)
    if "gcae" in cfg.models:
        stage_group(cfg)
        stage_train(cfg, "gcae")
        stage_thresholds(cfg, "gcae")
    for kind in cfg.models:
        stage_detect(cfg, kind)
    stage_evaluate(cfg)
    return stage_report(cfg)
