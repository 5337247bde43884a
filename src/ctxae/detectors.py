"""The four detector variants and their routing, scoring, and persistence.

All four are one model: an encoder and a map from context to decoder key.

* ae:   one shared encoder, every context maps to the one decoder (SHARED)
* cae:  one shared encoder, each context maps to its own decoder
* gcae: one shared encoder, each context maps to its group's decoder
* moe:  the ae trainer run once per context, so each context also has its
        own encoder

Routing is two dict lookups: the encoder is the context's own or the shared
one, and the decoder key is the context's group (its own id without a
grouping), falling back to SHARED. A window is always scored through the
decoder its (claimed) context routes to; scoring and verdicts never look at
ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import thresholds as th
from .dataset import DatasetSplit, Window, indices_by_context, stack_tensors
from .errors import (EmptyValidationSet, IncompleteGrouping, MissingArtifact,
                     UnroutedContext)
from .net import (AutoencoderSpec, Sequential, TrainConfig, TrainReport,
                  load_checkpoint, save_checkpoint, score_windows,
                  train_autoencoder, train_multi_decoder)

SHARED = -1
KINDS = ("ae", "moe", "cae", "gcae")


@dataclass
class Detector:
    kind: str
    spec: AutoencoderSpec
    contexts: tuple[int, ...]
    encoders: dict[int, Sequential]
    decoders: dict[int, Sequential]
    grouping: dict[int, int] | None = None     # context -> decoder key (gcae)
    thresholds: th.ThresholdTable | None = None
    norm_stats_hash: str | None = None
    reports: dict[str, TrainReport] = field(default_factory=dict)

    def decoder_key(self, context_id: int) -> int:
        key = (self.grouping or {}).get(context_id, context_id)
        if key not in self.decoders:
            key = SHARED
        if key not in self.decoders:
            raise UnroutedContext(f"context {context_id} has no decoder")
        return key

    def route(self, context_id: int) -> tuple[Sequential, Sequential]:
        enc = self.encoders.get(context_id, self.encoders.get(SHARED))
        if enc is None:
            raise UnroutedContext(f"context {context_id} has no encoder")
        return enc, self.decoders[self.decoder_key(context_id)]

    def score(self, x: np.ndarray, context_id: int) -> np.ndarray:
        enc, dec = self.route(context_id)
        return score_windows(enc, dec, x)

    def score_mixed(self, x: np.ndarray, context_ids: np.ndarray) -> np.ndarray:
        """Score a mixed batch, dispatching each window by its context."""
        out = np.empty(x.shape[0])
        for cid in np.unique(context_ids):
            mask = context_ids == cid
            out[mask] = self.score(x[mask], int(cid))
        return out

    def detect(self, x: np.ndarray, context_ids: np.ndarray,
               mode: str = "context") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores, verdicts and severities under the fitted thresholds.

        mode 'context' applies tau_c of each window's context, 'global'
        applies the pooled threshold to every window.
        """
        if self.thresholds is None:
            raise MissingArtifact(f"{self.kind} detector has no fitted thresholds")
        scores = self.score_mixed(x, context_ids)
        if mode == "global":
            taus = np.full(scores.shape[0], self.thresholds.global_tau)
        elif mode == "context":
            taus = np.array([self.thresholds.tau(int(c)) for c in context_ids])
        else:
            raise ValueError(f"unknown detection mode {mode!r}")
        verdicts = scores > taus
        severities = (scores - taus) / taus
        return scores, verdicts, severities

    def param_count(self) -> int:
        return (sum(e.param_count() for e in self.encoders.values())
                + sum(d.param_count() for d in self.decoders.values()))

    @property
    def decoder_count(self) -> int:
        return len(self.decoders)


def _by_context(windows: list[Window]) -> dict[int, np.ndarray]:
    tensors = stack_tensors(windows)
    return {cid: tensors[idx]
            for cid, idx in indices_by_context(windows).items()}


def _weights_by_context(split: DatasetSplit) -> dict[int, np.ndarray]:
    return {cid: split.weights[idx]
            for cid, idx in indices_by_context(split.train).items()}


def train_ae(split: DatasetSplit, spec: AutoencoderSpec,
             config: TrainConfig) -> Detector:
    rng = np.random.default_rng([config.seed, 11])
    enc, dec = spec.build_encoder(rng), spec.build_decoder(rng)
    report = train_autoencoder(enc, dec, stack_tensors(split.train),
                               stack_tensors(split.val), config,
                               sample_weights=split.weights)
    return Detector(kind="ae", spec=spec, contexts=split.train_contexts,
                    encoders={SHARED: enc}, decoders={SHARED: dec},
                    reports={"ae": report})


def train_moe(split: DatasetSplit, spec: AutoencoderSpec,
              config: TrainConfig) -> Detector:
    """One independently trained autoencoder per context."""
    train_ctx = _by_context(split.train)
    val_ctx = _by_context(split.val)
    encoders, decoders, reports = {}, {}, {}
    for cid, x_train in train_ctx.items():
        if val_ctx.get(cid) is None or val_ctx[cid].shape[0] == 0:
            raise EmptyValidationSet(
                f"context {cid} has no validation windows; early stopping "
                "needs every trained context in the validation split")
        rng = np.random.default_rng([config.seed, 12, cid])
        enc, dec = spec.build_encoder(rng), spec.build_decoder(rng)
        reports[f"c{cid}"] = train_autoencoder(enc, dec, x_train, val_ctx[cid],
                                               config, sample_weights=None)
        encoders[cid], decoders[cid] = enc, dec
    return Detector(kind="moe", spec=spec, contexts=tuple(sorted(train_ctx)),
                    encoders=encoders, decoders=decoders, reports=reports)


def train_cae(split: DatasetSplit, spec: AutoencoderSpec,
              config: TrainConfig) -> Detector:
    """Shared encoder with one decoder per context: gcae under the identity map."""
    return _train_shared(split, spec, config, "cae", None, enc_tag=13, dec_tag=14)


def train_gcae(split: DatasetSplit, spec: AutoencoderSpec, config: TrainConfig,
               grouping: dict[int, int]) -> Detector:
    """Shared encoder with one decoder per context group.

    grouping maps every trained context to its decoder key (the group's
    representative context id).
    """
    return _train_shared(split, spec, config, "gcae", grouping,
                         enc_tag=15, dec_tag=16)


def _train_shared(split: DatasetSplit, spec: AutoencoderSpec, config: TrainConfig,
                  kind: str, grouping: dict[int, int] | None,
                  enc_tag: int, dec_tag: int) -> Detector:
    """Train a shared encoder and one decoder per key of the context map.

    A grouping of None maps every context to itself. Each key's training
    and validation windows are its member contexts' windows in context
    order.
    """
    train_ctx = _by_context(split.train)
    key_of = grouping if grouping is not None else {c: c for c in train_ctx}
    missing = sorted(set(train_ctx) - set(key_of))
    if missing:
        raise IncompleteGrouping(f"contexts without a group: {missing}")

    weights_ctx = _weights_by_context(split)
    val_ctx = _val_aligned(split, train_ctx)
    train_by_key: dict[int, np.ndarray] = {}
    val_by_key: dict[int, np.ndarray] = {}
    weights_by_key: dict[int, np.ndarray] = {}
    for key in sorted(set(key_of[c] for c in train_ctx)):
        members = sorted(c for c in train_ctx if key_of[c] == key)
        train_by_key[key] = np.concatenate([train_ctx[c] for c in members])
        val_by_key[key] = np.concatenate([val_ctx[c] for c in members])
        weights_by_key[key] = np.concatenate([weights_ctx[c] for c in members])

    enc = spec.build_encoder(np.random.default_rng([config.seed, enc_tag]))
    decoders = {key: spec.build_decoder(np.random.default_rng([config.seed, dec_tag, key]))
                for key in train_by_key}
    report = train_multi_decoder(enc, decoders, train_by_key, val_by_key,
                                 config, weights_by_key=weights_by_key)
    return Detector(kind=kind, spec=spec, contexts=tuple(sorted(train_ctx)),
                    encoders={SHARED: enc}, decoders=decoders,
                    grouping=(None if grouping is None
                              else {c: grouping[c] for c in sorted(train_ctx)}),
                    reports={kind: report})


def _val_aligned(split: DatasetSplit, train_ctx: dict[int, np.ndarray]
                 ) -> dict[int, np.ndarray]:
    """Validation tensors keyed like the training contexts (may be empty)."""
    val_ctx = _by_context(split.val)
    empty = np.zeros((0,) + next(iter(train_ctx.values())).shape[1:])
    return {cid: val_ctx.get(cid, empty) for cid in train_ctx}


def fit_detector_thresholds(detector: Detector, split: DatasetSplit,
                            fit_split: str = "train",
                            lam: float = th.DEFAULT_LAMBDA) -> th.ThresholdTable:
    """Fit per-context and global thresholds from one split's losses."""
    windows = split.windows(fit_split)
    tensors = stack_tensors(windows)
    context_ids = np.array([w.context_id for w in windows])
    scores = detector.score_mixed(tensors, context_ids)
    losses = {int(cid): scores[context_ids == cid]
              for cid in np.unique(context_ids)}
    table = th.fit(losses, lam=lam, fit_split=fit_split)
    detector.thresholds = table
    return table


# --- persistence -----------------------------------------------------------------

def _ckpt_name(role: str, key: int) -> str:
    if key == SHARED:
        return f"{role}.ckpt"
    return f"{role}_k{key}.ckpt"


def save_detector(out_dir: Path, detector: Detector) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "kind": detector.kind,
        "param_count": detector.param_count(),
        "decoder_count": detector.decoder_count,
        "contexts": list(detector.contexts),
        "grouping": ({str(c): g for c, g in detector.grouping.items()}
                     if detector.grouping else None),
        "spec": detector.spec.to_dict(),
        "norm_stats_hash": detector.norm_stats_hash,
        "encoders": {str(k): _ckpt_name("encoder", k) for k in detector.encoders},
        "decoders": {str(k): _ckpt_name("decoder", k) for k in detector.decoders},
        "training": {
            branch: {
                "best_epoch": r.best_epoch,
                "best_val_loss": r.best_val_loss,
                "stopped_epoch": r.stopped_epoch,
            }
            for branch, r in sorted(detector.reports.items())
        },
    }
    (out_dir / "detector.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for key, enc in detector.encoders.items():
        save_checkpoint(out_dir / _ckpt_name("encoder", key), enc,
                        meta={"role": "encoder", "key": key, "kind": detector.kind})
    for key, dec in detector.decoders.items():
        save_checkpoint(out_dir / _ckpt_name("decoder", key), dec,
                        meta={"role": "decoder", "key": key, "kind": detector.kind})
    thresholds_path = out_dir / "thresholds.csv"
    if detector.thresholds is not None:
        th.save_table(thresholds_path, detector.thresholds)
    else:
        # a retrained bundle must not inherit the previous model's taus
        thresholds_path.unlink(missing_ok=True)


def load_detector(bundle_dir: Path) -> Detector:
    manifest_path = bundle_dir / "detector.json"
    if not manifest_path.exists():
        raise MissingArtifact(f"no detector manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    encoders = {int(k): load_checkpoint(bundle_dir / name)[0]
                for k, name in manifest["encoders"].items()}
    decoders = {int(k): load_checkpoint(bundle_dir / name)[0]
                for k, name in manifest["decoders"].items()}
    thresholds_path = bundle_dir / "thresholds.csv"
    table = th.load_table(thresholds_path) if thresholds_path.exists() else None
    grouping = manifest.get("grouping")
    return Detector(
        kind=manifest["kind"],
        spec=AutoencoderSpec.from_dict(manifest["spec"]),
        contexts=tuple(manifest["contexts"]),
        encoders=encoders,
        decoders=decoders,
        grouping={int(c): g for c, g in grouping.items()} if grouping else None,
        thresholds=table,
        norm_stats_hash=manifest.get("norm_stats_hash"),
    )
