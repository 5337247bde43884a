"""Pipeline stages shared by the CLI and the test suite.

Every stage reads its inputs from the run directory, writes its artifacts
plus a manifest, and is idempotent for a fixed config + seed. STAGES is the
one description of each stage: its command and help line, its home (the
directory of its manifest and outputs), the producers it reads, the inputs
it records from them, and its body. Stage.run, behind the CLI, run_all and
the stage_<name> functions, opens one read scope (see ``manifest``), checks
each producer's manifest, runs the body and writes the stage's manifest.

One staleness rule: a manifest names every file its stage wrote and the
inputs it recorded, and every check of it names exactly those inputs. A
check refuses a missing or unreadable manifest or a missing recorded file
(MissingArtifact), and other recorded inputs or other bytes in a recorded
file (ConfigError naming both), before the body starts. Build records no
inputs, so a dataset copied alone stays usable. Bodies load through the
public loaders (load_dataset, load_detector, ...), which in the scope parse
the bytes the checks hashed even if a file changed on disk since. The
thresholds stage never reads the table it replaces: once the checks pass,
it deletes it. gcae's train manifest records the grouping, so re-running
group requires retraining gcae. A stage that reads fitted thresholds, other
than the thresholds stage itself, also refuses a table fitted under another
lambda or fit split than the config asks for (ConfigError naming both).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
from .manifest import (check_inputs, config_hash, csv_bytes, forget, json_bytes,
                       read_once, reading, sha256, text, write_files, write_manifest)
from .net import default_autoencoder_spec

REPORT_VERSION = 2


def _dir(cfg: RunConfig, stage: str, kind: str | None = None) -> Path:
    """The home of stage (kind's, for a stage per kind)."""
    return Path(cfg.out_dir) / STAGES[stage].home.format(kind=kind)


def _raw_path(cfg: RunConfig, name: str) -> Path | None:
    """The configured records, truth or ports file, else the one simulate
    writes for a config with a synth section; None for neither."""
    configured = getattr(cfg, name)
    if configured is not None and not configured.exists():
        raise MissingArtifact(f"configured file not found: {configured}")
    return configured or (_dir(cfg, "simulate") / f"{name}.csv" if cfg.synth else None)


def _simulate(cfg: RunConfig, kind: None) -> tuple[dict, dict]:
    if cfg.synth is None:
        raise ConfigError("simulate requires a synth section in the config")
    result = synth.generate(cfg.synth, context_registry())
    summary = {
        "vessels": len(result.trajectories),
        "messages": sum(len(t) for t in result.trajectories),
        "truth_spans": len(result.truth),
    }
    return summary, synth.write_fleet(_dir(cfg, "simulate"), result)


def _ingest(cfg: RunConfig, kind: None) -> tuple[dict, dict]:
    registry = context_registry()
    table, errors = parse_messages(text(read_once(_raw_path(cfg, "records"))))
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
    out = _dir(cfg, "ingest")
    return summary, (write_files(out, {"ingest.json": json_bytes(summary)})
                     | save_table(out / "messages", table))


def _build(cfg: RunConfig, kind: None) -> tuple[dict, dict]:
    registry = context_registry()
    truth_path, ports_path = _raw_path(cfg, "truth"), _raw_path(cfg, "ports")
    spans = synth.load_truth(truth_path) if truth_path else []
    ports = synth.load_ports(ports_path) if ports_path else []
    table = load_table(_dir(cfg, "ingest") / "messages")
    # build parses nothing more and records no inputs: free the bytes its
    # checks read, records.csv's among them, before the windows are cut
    forget()
    windows = concat([segment(traj, enrich(traj), registry, cfg.dataset.window_len,
                              cfg.dataset.stride)
                      for traj in group_trajectories(table)])
    total_cut = len(windows)
    windows = attach_truth(windows, spans)
    windows = filter_near_ports(windows, ports, cfg.dataset.port_radius_m)
    after_ports = len(windows)
    windows = remove_outliers(windows, cfg.dataset)
    after_outliers = len(windows)

    split = split_by_vessel(windows, cfg.dataset.ratios, cfg.seed)
    split = normalize_split(split)
    summary = {
        "windows_cut": total_cut,
        "after_port_filter": after_ports,
        "after_outlier_filter": after_outliers,
        "train": len(split.train), "val": len(split.val), "test": len(split.test),
        "excluded_contexts": list(split.excluded_contexts),
    }
    return summary, save_dataset(_dir(cfg, "build"), split, registry,
                                 cfg.dataset.window_len, cfg.seed)


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


def _split(cfg: RunConfig) -> DatasetSplit:
    return load_dataset(_dir(cfg, "build"))[0]


def _fitted(cfg: RunConfig, kind: str, table: th.ThresholdTable) -> th.ThresholdTable:
    """kind's table, refused unless fitted under the lambda and split asked for."""
    asked = (cfg.thresholds.lam, cfg.thresholds.fit_split)
    if (table.lam, table.fit_split) != asked:
        raise ConfigError(
            f"{kind} thresholds were fitted with lambda {table.lam!r} on the "
            f"{table.fit_split} split, the config asks for lambda {asked[0]!r} "
            f"on the {asked[1]} split; run the thresholds stage for {kind}")
    return table


def _table(cfg: RunConfig, kind: str) -> th.ThresholdTable:
    return _fitted(cfg, kind, th.load_table(_dir(cfg, "thresholds", kind) / "thresholds.csv"))


def _bundle(cfg: RunConfig, kind: str) -> detectors.Detector:
    """kind's trained bundle, once the table it holds passes _fitted."""
    det = detectors.load_detector(_dir(cfg, "train", kind))
    _fitted(cfg, kind, det.thresholds)
    return det


def _grouping(cfg: RunConfig) -> grouping.GroupingResult:
    """The grouping, once the cae table it was derived with passes _fitted."""
    _table(cfg, "cae")
    return grouping.load_grouping(_dir(cfg, "group") / "grouping.json")


def _train(cfg: RunConfig, kind: str) -> tuple[dict, dict]:
    split = _split(cfg)
    spec = default_autoencoder_spec(cfg.dataset.window_len, NUM_FEATURES, cfg.arch.latent)
    if kind == "ae":
        det = detectors.train_ae(split, spec, cfg.train)
    elif kind == "moe":
        _check_validation_coverage(cfg, split, ("moe",))
        det = detectors.train_moe(split, spec, cfg.train)
    elif kind == "cae":
        det = detectors.train_cae(split, spec, cfg.train)
    else:
        det = detectors.train_gcae(split, spec, cfg.train, _grouping(cfg).as_map())
    summary = {
        "kind": kind,
        "param_count": det.param_count(),
        "decoder_count": det.decoder_count,
        "contexts": list(det.contexts),
        "best_val_loss": min(r.best_val_loss for r in det.reports.values()),
        "epochs": {name: r.stopped_epoch for name, r in sorted(det.reports.items())},
    }
    return summary, detectors.save_detector(_dir(cfg, "train", kind), det)


def _thresholds(cfg: RunConfig, kind: str) -> tuple[dict, dict]:
    split = _split(cfg)
    bundle = _dir(cfg, "thresholds", kind)
    (bundle / "thresholds.csv").unlink(missing_ok=True)
    det = detectors.load_detector(bundle)
    table = detectors.fit_detector_thresholds(det, split, cfg.thresholds.fit_split,
                                              cfg.thresholds.lam)
    summary = {
        "kind": kind,
        "lam": table.lam,
        "fit_split": table.fit_split,
        "taus": {str(c): e.tau for c, e in sorted(table.entries.items())},
        "flagged": list(table.flagged),
    }
    return summary, th.save_table(bundle / "thresholds.csv", table)


def _group(cfg: RunConfig, kind: None) -> tuple[dict, dict]:
    split = _split(cfg)
    det = _bundle(cfg, "cae")
    _check_validation_coverage(cfg, split, ("gcae",))
    val = split.val
    matrix = grouping.cross_loss_matrix(
        det, {cid: val.tensor[val.context_id == cid] for cid in det.contexts})
    result = grouping.derive_grouping(matrix, det.thresholds,
                                      delta=cfg.grouping.delta,
                                      strategy=cfg.grouping.strategy)
    summary = {
        "groups": [{"representative": rep, "members": list(members)}
                   for rep, members in result.groups],
        "distinct": list(result.distinct),
        "decoder_count": result.decoder_count,
        "delta": result.delta,
        "strategy": result.strategy,
    }
    out = _dir(cfg, "group")
    return summary, (grouping.save_matrix(out / "loss_matrix.csv", matrix)
                     | grouping.save_grouping(out / "grouping.json", result))


DETECTION_FIELDS = ("mmsi", "start_ts", "context_id", "decoder_key", "score",
                    "tau_context", "tau_global", "global_verdict",
                    "context_verdict", "margin_context")


def _detect(cfg: RunConfig, kind: str) -> tuple[dict, dict]:
    split = _split(cfg)
    det = _bundle(cfg, kind)
    table = det.thresholds
    windows = split.test
    cids = windows.context_id
    scores, ctx_verdicts, margins = det.detect(windows.tensor, cids, mode="context")
    global_verdicts = scores > table.global_tau
    tau_global = repr(table.global_tau)
    rows = [DETECTION_FIELDS] + [
        [mmsi, start_ts, cid, key, repr(score), repr(tau), tau_global, int(g), int(c),
         repr(margin)]
        for mmsi, start_ts, cid, key, score, tau, g, c, margin in zip(
            windows.mmsi.tolist(), windows.start_ts.tolist(), cids.tolist(),
            det.decoder_keys(cids).tolist(), scores.tolist(), table.taus(cids).tolist(),
            global_verdicts.tolist(), ctx_verdicts.tolist(), margins.tolist())]
    summary = {
        "kind": kind,
        "windows": len(windows),
        "context_anomalies": int(ctx_verdicts.sum()),
        "global_anomalies": int(global_verdicts.sum()),
    }
    return summary, write_files(_dir(cfg, "detect"), {f"{kind}.csv": csv_bytes(rows)})


def _read_detections(data: bytes) -> dict[str, np.ndarray]:
    rows = list(csv.DictReader(text(data)))
    def col(name, dtype):
        return np.array([dtype(r[name]) for r in rows])
    cols = {name: col(name, int) for name in ("mmsi", "start_ts", "context_id", "decoder_key")}
    cols.update({name: col(name, float) for name in ("score", "tau_context", "tau_global")})
    cols.update({name: col(name, int).astype(bool)
                 for name in ("global_verdict", "context_verdict")})
    return cols


def _evaluate(cfg: RunConfig, kind: None) -> tuple[dict, dict]:
    split = _split(cfg)
    test = split.test
    truth_by_id = dict(zip(zip(test.mmsi.tolist(), test.start_ts.tolist()),
                           test.truth.tolist()))

    models_report: dict[str, dict] = {}
    severity_by_id: dict[str, dict] = {}
    for kind in cfg.models:
        _table(cfg, kind)    # refuses a table fitted under another lambda or split
        d = _read_detections(read_once(_dir(cfg, "detect") / f"{kind}.csv"))
        uids = list(zip(d["mmsi"].tolist(), d["start_ts"].tolist()))
        truth_kinds = [truth_by_id[uid] for uid in uids]
        # ae is the global-threshold baseline; the rest use context thresholds
        mode = "global" if kind == "ae" else "context"
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
        severity_by_id[kind] = {f"{m}:{t}": s
                                for (m, t), s in zip(flagged, sev_values.tolist())}
        models_report[kind] = {
            "mode": mode,
            "windows": len(uids),
            "confusion": evaluation.confusion(d["global_verdict"], d["context_verdict"]),
            "truth": evaluation.truth_metrics(primary, truth_kinds),
            "severity": sev,
            "fpr_by_context": fpr_by_context,
            "loss_by_context": evaluation.export_distributions(
                d["context_id"], d["decoder_key"], d["score"], taus),
        }

    report = {
        "models": models_report,
        "overlap": evaluation.overlap({k: set(v) for k, v in severity_by_id.items()}),
        "severity_by_id": severity_by_id,
    }
    return report, write_files(_dir(cfg, "evaluate"),
                               {"evaluation.json": json_bytes(report, strict=True)})


def _report(cfg: RunConfig, kind: None) -> tuple[dict, dict]:
    evaluation_report = json.loads(read_once(_dir(cfg, "evaluate") / "evaluation.json"))
    models = {}
    for kind in cfg.models:
        manifest = json.loads(read_once(_dir(cfg, "train", kind) / "detector.json"))
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
        "severity_by_id": evaluation_report["severity_by_id"],
    }
    if "gcae" in models:
        report["grouping"] = _grouping(cfg).to_dict()
    return report, write_files(_dir(cfg, "report"),
                               {"report.json": json_bytes(report, strict=True)})


@dataclass(frozen=True)
class Stage:
    """One pipeline stage; see the module doc."""

    name: str
    home: str          # under the run directory; {kind} names a kind's own
    body: Callable     # (cfg, kind) -> (summary, sha256 of each file written)
    help: str
    # (producer, its kind, {input name this stage records: file in its home})
    # for each producer, in the order their manifests are checked; a file
    # outside the run directory is recorded, unchecked, under producer None
    reads: Callable = lambda cfg, kind: []
    rerun: str = "run the {name} stage first"
    manifest: str = "{name}"
    extra: bool = True                     # the manifest keeps the summary
    per_model: bool = False                # runs once per configured model

    def inputs(self, cfg: RunConfig, kind: str | None) -> dict[str, Path]:
        """The inputs the stage records, by name."""
        return {name: _dir(cfg, producer, of) / file if producer else file
                for producer, of, recorded in self.reads(cfg, kind)
                for name, file in recorded.items()}

    def check(self, cfg: RunConfig, kind: str | None) -> None:
        """Check the stage's manifest (kind's) against the inputs it records."""
        check_inputs(_dir(cfg, self.name, kind), self.manifest.format(name=self.name, kind=kind),
                     self.inputs(cfg, kind), self.rerun.format(name=self.name, kind=kind))

    def run(self, cfg: RunConfig, kind: str | None = None) -> dict:
        """Check each producer the stage reads, run its body and write its
        manifest, in one read scope; the summary."""
        if self.per_model and kind not in detectors.KINDS:
            raise ConfigError(f"unknown model kind {kind!r}")
        inputs = self.inputs(cfg, kind)
        with reading():
            for producer, of, _ in self.reads(cfg, kind):
                if producer:
                    STAGES[producer].check(cfg, of)
            summary, written = self.body(cfg, kind)
            read = {path: sha256(read_once(path)) for path in inputs.values()}
        write_manifest(_dir(cfg, self.name, kind), self.manifest.format(name=self.name, kind=kind),
                       config_hash(cfg), inputs, {str(path): path for path in written},
                       read | written, extra=summary if self.extra else None)
        return summary


_DATASET = ("build", None, {"dataset": "header.json"})

STAGES: dict[str, Stage] = {stage.name: stage for stage in (
    Stage("simulate", "synth", _simulate,
          "Generate the synthetic fleet with ground-truth anomaly tags."),
    Stage("ingest", "", _ingest,
          "Parse and validate input records once; write the table and context counts.",
          reads=lambda cfg, kind: [
              ("simulate", None, {"records": "records.csv"}) if cfg.records is None
              else (None, None, {"records": _raw_path(cfg, "records")})],
          extra=False),
    Stage("build", "dataset", _build,
          "Cut, filter, split, normalize and persist the window dataset.",
          reads=lambda cfg, kind: [("ingest", None, {})] + (
              [("simulate", None, {})] if cfg.synth and None in (cfg.truth, cfg.ports)
              else [])),
    Stage("train", "models/{kind}", _train,
          "Train one detector variant on the built dataset.",
          reads=lambda cfg, kind: [_DATASET] + (
              [("group", None, {"grouping": "grouping.json"}), ("thresholds", "cae", {})]
              if kind == "gcae" else []),
          rerun="retrain {kind}", per_model=True),
    Stage("thresholds", "models/{kind}", _thresholds,
          "Fit per-context and global thresholds for a trained detector.",
          reads=lambda cfg, kind: [_DATASET, ("train", kind, {})],
          rerun="run the thresholds stage for {kind}", per_model=True),
    Stage("group", "grouping", _group,
          "Derive the context grouping from the trained CAE.",
          reads=lambda cfg, kind: [_DATASET, ("train", "cae", {"cae": "detector.json"}),
                                   ("thresholds", "cae", {"cae_thresholds": "thresholds.csv"})]),
    Stage("detect", "detections", _detect,
          "Score the test split and write verdicts.",
          reads=lambda cfg, kind: [_DATASET, ("train", kind, {"detector": "detector.json"}),
                                   ("thresholds", kind, {"thresholds": "thresholds.csv"})],
          rerun="run the detect stage for {kind} first", manifest="detect-{kind}",
          per_model=True),
    Stage("evaluate", "evaluation", _evaluate,
          "Aggregate detections into confusion/overlap/severity/truth metrics.",
          reads=lambda cfg, kind: [("build", None, {})]
          + [("detect", k, {f"{k}.csv": f"{k}.csv"}) for k in cfg.models]
          + [("thresholds", k, {}) for k in cfg.models],
          extra=False),
    Stage("report", "", _report,
          "Write the versioned summary report for the run.",
          reads=lambda cfg, kind: [("detect", k, {}) for k in cfg.models]
          + [("evaluate", None, {"evaluation": "evaluation.json"})]
          + [(stage, k, {}) for k in cfg.models for stage in ("train", "thresholds")]
          + ([("group", None, {})] if "gcae" in cfg.models else []),
          extra=False),
)}


# the stages by the names the benchmark and the tests call them by
stage_simulate = STAGES["simulate"].run
stage_ingest = STAGES["ingest"].run
stage_build = STAGES["build"].run
stage_train = STAGES["train"].run
stage_thresholds = STAGES["thresholds"].run
stage_group = STAGES["group"].run
stage_detect = STAGES["detect"].run
stage_evaluate = STAGES["evaluate"].run
stage_report = STAGES["report"].run


def run_all(cfg: RunConfig) -> dict:
    """The report, each stage call it reads run first, recursively: so every
    stage the config needs runs once, after each producer it reads."""
    if "gcae" in cfg.models and "cae" not in cfg.models:
        raise ConfigError("gcae requires cae in the model list")
    done: dict[tuple[str, str | None], dict] = {}

    def run(name: str, kind: str | None) -> dict:
        if (name, kind) not in done:
            for producer, of, _ in STAGES[name].reads(cfg, kind):
                if producer:
                    run(producer, of)
            done[name, kind] = STAGES[name].run(cfg, kind)
            if name == "build":
                # a split moe or gcae cannot train on is refused before any model trains
                with reading():
                    STAGES["build"].check(cfg, None)
                    _check_validation_coverage(cfg, _split(cfg), cfg.models)
        return done[name, kind]
    return run("report", None)
