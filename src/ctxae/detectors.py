"""The four detector variants and their routing, scoring, and persistence.

All four are one model: an encoder and a map from context to decoder key.

* ae:   one shared encoder, every context maps to the one decoder (SHARED)
* cae:  one shared encoder, each context maps to its own decoder
* gcae: one shared encoder, each context maps to its group's decoder
* moe:  the ae trainer run once per context, so each context also has its
        own encoder

Routing maps a context to an encoder key (its own, else SHARED) and a
decoder key (its group, its own id without a grouping, else SHARED); a
context with neither is refused. A window is always scored through the
decoder its (claimed) context routes to; scoring and verdicts never look at
ground truth.

Scoring runs a pass plan, not a loop over contexts. The plan is built once,
when a Detector is constructed: every (encoder key, decoder key) pair a
context routes to, sorted, and a table from context id to its pair's index
(an id without a key of its own routes like any untrained one). A batch
then costs one lookup of its rows' passes, a stable sort of the rows by
pass, and one ``net.score_windows`` call per encoder key with one span per
decoder key; a batch of a single pass is scored as it comes. That loop
alone sets chunk sizes. So ae makes two passes per batch whatever the
contexts, gcae one encoder pass plus one per group present, and moe one
pair per context. A score depends on the row count of the GEMMs that
produced it at the ULP level (BLAS kernels differ below and above a few
dozen rows), so the same window can score a few ULPs apart in batches of
other sizes or mixes. ``detect`` takes each window's tau from the
threshold table's own lookup (see ``thresholds``), and refuses a batch
whose ids and windows differ in number, a context without a tau, or an
unrouted one before any window is scored.

The passes run folded scoring models (``net.fold_for_scoring``: each
convolution -> batch norm pair merged into one convolution), built once when
a Detector is constructed. Construction first snaps the stored encoders and
decoders to float32 storage precision, as saving does, so the stored models
are final: saving changes none of their values, a saved and loaded copy
scores bit-identically, and the fold never describes weights the checkpoint
does not hold. Scores differ from the layer-by-layer forward pass of the
stored models at the ULP level. Every model, stored or folded, runs each
nearest upsampling -> transposed convolution pair as one polyphase layer, so
training, validation (through a fold of its own each epoch), the grouping's
cross-loss matrix (through this fold) and scoring run that one layer. A
bundle saves the stored models, and ``detector.json`` keeps each training
branch's per-epoch curves.

Trainers read the split's window tables (see ``dataset``): a context's
windows are the rows its boolean mask over ``context_id`` selects, and a
decoder key's windows are its member contexts' rows, context by context.
Scoring takes a tensor batch with one context id per row, such as a table's
``tensor`` and ``context_id`` columns or rows a caller stacked itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from . import thresholds as th
from .dataset import DatasetSplit
from .errors import (EmptyValidationSet, IncompleteGrouping, MissingArtifact,
                     ShapeMismatch, UnroutedContext)
from .manifest import json_bytes, present, read_once, write_files
from .net import (AutoencoderSpec, Sequential, TrainConfig, TrainReport,
                  fold_for_scoring, load_checkpoint, save_checkpoint, score_windows,
                  snap_to_storage_precision, train_autoencoder, train_multi_decoder)

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
    reports: dict[str, TrainReport] = field(default_factory=dict)
    # what score_mixed runs: the stored models folded (see the module doc)
    scoring_encoders: dict[int, Sequential] = field(init=False, repr=False, compare=False)
    scoring_decoders: dict[int, Sequential] = field(init=False, repr=False, compare=False)
    # the pass plan: every (encoder key, decoder key) pair a context routes to, sorted
    plan: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    # slot c + 1 holds context c's index into plan (len(plan) if unrouted); both
    # end slots hold that of every id outside, which take(mode="clip") sends there
    _pass_of: np.ndarray = field(init=False, repr=False, compare=False)
    # per encoder key of plan: its scoring encoder, its first pass, and the
    # scoring decoders of its passes in plan order
    _encoder_passes: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for model in (*self.encoders.values(), *self.decoders.values()):
            snap_to_storage_precision(model)
        self.scoring_encoders = {k: fold_for_scoring(m) for k, m in self.encoders.items()}
        self.scoring_decoders = {k: fold_for_scoring(m) for k, m in self.decoders.items()}

        # ids 0..n-1 cover every key, so id n routes like any id outside them
        n = 1 + max((c for c in (*self.encoders, *self.decoders, *(self.grouping or {}))
                     if c >= 0), default=-1)
        routes = []
        for c in range(n + 1):
            try:
                routes.append(self.route(c))
            except UnroutedContext:
                routes.append(None)
        self.plan = tuple(sorted(set(routes) - {None}))
        index = [len(self.plan) if r is None else self.plan.index(r) for r in routes]
        self._pass_of = np.array([index[n], *index], dtype=np.intp)
        self._encoder_passes, first = [], 0
        for enc_key, pairs in groupby(self.plan, key=lambda pair: pair[0]):
            decoders = [self.scoring_decoders[dec_key] for _, dec_key in pairs]
            self._encoder_passes.append((self.scoring_encoders[enc_key], first, decoders))
            first += len(decoders)

    def route(self, context_id: int) -> tuple[int, int]:
        """The (encoder key, decoder key) pair that scores context_id."""
        enc_key = context_id if context_id in self.encoders else SHARED
        if enc_key not in self.encoders:
            raise UnroutedContext(f"context {context_id} has no encoder")
        dec_key = (self.grouping or {}).get(context_id, context_id)
        if dec_key not in self.decoders:
            dec_key = SHARED
        if dec_key not in self.decoders:
            raise UnroutedContext(f"context {context_id} has no decoder")
        return enc_key, dec_key

    def _passes(self, context_ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Each row's index into plan, and where each pass's rows start in
        pass order, plus the row count; refuses an unrouted context."""
        row_pass = self._pass_of.take(context_ids + 1, mode="clip")
        counts = np.bincount(row_pass, minlength=len(self.plan) + 1)
        if counts[-1]:
            self.route(int(context_ids[row_pass == len(self.plan)][0]))    # raises
        return row_pass, [0, *counts[:-1].cumsum().tolist()]

    def decoder_keys(self, context_ids: np.ndarray) -> np.ndarray:
        """The decoder key of each context id; refuses an unrouted context."""
        row_pass, _ = self._passes(context_ids)
        return np.array([dec_key for _, dec_key in self.plan], dtype=np.int64)[row_pass]

    def score_mixed(self, x: np.ndarray, context_ids: np.ndarray) -> np.ndarray:
        """Per-window reconstruction loss of a mixed batch; shape (n,).

        Runs the pass plan (see the module doc): rows sorted by their pass,
        then one ``score_windows`` call per encoder key with one span per
        decoder key. A batch of a single pass is scored as it comes.
        """
        _check_lengths(x, context_ids)
        row_pass, starts = self._passes(context_ids)
        n = x.shape[0]
        if n == 0:
            return np.empty(0)
        p = row_pass[0]
        if starts[p + 1] - starts[p] == n:
            enc_key, dec_key = self.plan[p]
            return score_windows(self.scoring_encoders[enc_key], x,
                                 [(self.scoring_decoders[dec_key], 0, n)])[0]
        # rows in pass order: each encoder key's rows are one slice of order,
        # each of its passes one span of that slice
        order = np.argsort(row_pass, kind="stable")
        out = np.empty(n)
        for encoder, first, decoders in self._encoder_passes:
            lo, hi = starts[first], starts[first + len(decoders)]
            if lo < hi:
                spans = [(dec, a - lo, b - lo) for dec, a, b in
                         zip(decoders, starts[first:], starts[first + 1:]) if a < b]
                rows = order[lo:hi]
                out[rows] = np.concatenate(score_windows(encoder, x[rows], spans))
        return out

    def detect(self, x: np.ndarray, context_ids: np.ndarray,
               mode: str = "context") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores, verdicts and severities under the fitted thresholds.

        mode 'context' applies tau_c of each window's context, 'global'
        applies the pooled threshold to every window. The mode, the batch's
        shape and every threshold it needs are checked before any window is
        scored.
        """
        if self.thresholds is None:
            raise MissingArtifact(f"{self.kind} detector has no fitted thresholds")
        _check_lengths(x, context_ids)
        if mode == "global":
            taus = self.thresholds.global_tau
        elif mode == "context":
            taus = self.thresholds.taus(context_ids)
        else:
            raise ValueError(f"unknown detection mode {mode!r}")
        scores = self.score_mixed(x, context_ids)
        verdicts = scores > taus
        severities = (scores - taus) / taus
        return scores, verdicts, severities

    def param_count(self) -> int:
        return (sum(e.param_count() for e in self.encoders.values())
                + sum(d.param_count() for d in self.decoders.values()))

    @property
    def decoder_count(self) -> int:
        return len(self.decoders)


def _check_lengths(x: np.ndarray, context_ids: np.ndarray) -> None:
    if x.shape[0] != context_ids.shape[0]:
        raise ShapeMismatch(f"{x.shape[0]} windows but {context_ids.shape[0]} context ids")


def train_ae(split: DatasetSplit, spec: AutoencoderSpec,
             config: TrainConfig) -> Detector:
    rng = np.random.default_rng([config.seed, 11])
    enc, dec = spec.build_encoder(rng), spec.build_decoder(rng)
    report = train_autoencoder(enc, dec, split.train.tensor, split.val.tensor,
                               config, sample_weights=split.train.weight)
    return Detector(kind="ae", spec=spec, contexts=split.train_contexts,
                    encoders={SHARED: enc}, decoders={SHARED: dec},
                    reports={"ae": report})


def train_moe(split: DatasetSplit, spec: AutoencoderSpec,
              config: TrainConfig) -> Detector:
    """One independently trained autoencoder per context."""
    train, val = split.train, split.val
    encoders, decoders, reports = {}, {}, {}
    for cid in split.train_contexts:
        x_val = val.tensor[val.context_id == cid]
        if x_val.shape[0] == 0:
            raise EmptyValidationSet(
                f"context {cid} has no validation windows; early stopping "
                "needs every trained context in the validation split")
        rng = np.random.default_rng([config.seed, 12, cid])
        enc, dec = spec.build_encoder(rng), spec.build_decoder(rng)
        reports[f"c{cid}"] = train_autoencoder(enc, dec,
                                               train.tensor[train.context_id == cid],
                                               x_val, config, sample_weights=None)
        encoders[cid], decoders[cid] = enc, dec
    return Detector(kind="moe", spec=spec, contexts=split.train_contexts,
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
    contexts = split.train_contexts
    key_of = grouping if grouping is not None else {c: c for c in contexts}
    missing = sorted(set(contexts) - set(key_of))
    if missing:
        raise IncompleteGrouping(f"contexts without a group: {missing}")

    # each table's row indices in context-major order: a key's mask of them
    # takes its members in turn, and its arrays are cut straight from the
    # split's, with no sorted copy of a whole table
    train, val = split.train, split.val
    train_order, val_order = (np.argsort(t.context_id, kind="stable")
                              for t in (train, val))
    train_by_key: dict[int, np.ndarray] = {}
    val_by_key: dict[int, np.ndarray] = {}
    weights_by_key: dict[int, np.ndarray] = {}
    for key in sorted(set(key_of[c] for c in contexts)):
        members = [c for c in contexts if key_of[c] == key]
        rows = train_order[np.isin(train.context_id[train_order], members)]
        val_rows = val_order[np.isin(val.context_id[val_order], members)]
        train_by_key[key] = train.tensor[rows]
        weights_by_key[key] = train.weight[rows]
        val_by_key[key] = val.tensor[val_rows]

    enc = spec.build_encoder(np.random.default_rng([config.seed, enc_tag]))
    decoders = {key: spec.build_decoder(np.random.default_rng([config.seed, dec_tag, key]))
                for key in train_by_key}
    report = train_multi_decoder(enc, decoders, train_by_key, val_by_key,
                                 config, weights_by_key=weights_by_key)
    return Detector(kind=kind, spec=spec, contexts=contexts,
                    encoders={SHARED: enc}, decoders=decoders,
                    grouping=(None if grouping is None
                              else {c: grouping[c] for c in contexts}),
                    reports={kind: report})


def fit_detector_thresholds(detector: Detector, split: DatasetSplit,
                            fit_split: str = "train",
                            lam: float = th.DEFAULT_LAMBDA) -> th.ThresholdTable:
    """Fit per-context and global thresholds from one split's losses."""
    windows = split.windows(fit_split)
    context_ids = windows.context_id
    scores = detector.score_mixed(windows.tensor, context_ids)
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


def save_detector(out_dir: Path, detector: Detector) -> dict[Path, str]:
    """Write the bundle and remove any other checkpoint from out_dir; the
    sha256 of each file written, by path, for the train manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "kind": detector.kind,
        "param_count": detector.param_count(),
        "decoder_count": detector.decoder_count,
        "contexts": list(detector.contexts),
        "grouping": ({str(c): g for c, g in detector.grouping.items()}
                     if detector.grouping else None),
        "spec": detector.spec.to_dict(),
        "encoders": {str(k): _ckpt_name("encoder", k) for k in detector.encoders},
        "decoders": {str(k): _ckpt_name("decoder", k) for k in detector.decoders},
        "training": {
            branch: {
                "best_epoch": r.best_epoch,
                "best_val_loss": r.best_val_loss,
                "stopped_epoch": r.stopped_epoch,
                "train_losses": r.train_losses,
                "val_losses": r.val_losses,
                "samples_seen": {str(k): n for k, n in sorted(r.samples_seen.items())},
            }
            for branch, r in sorted(detector.reports.items())
        },
    }
    written = write_files(out_dir, {"detector.json": json_bytes(manifest)})
    for role, models in (("encoder", detector.encoders), ("decoder", detector.decoders)):
        for key, model in models.items():
            written |= save_checkpoint(out_dir / _ckpt_name(role, key), model,
                                       meta={"role": role, "key": key, "kind": detector.kind})
    for stale in set(out_dir.glob("*.ckpt")) - set(written):
        stale.unlink()
    thresholds_path = out_dir / "thresholds.csv"
    if detector.thresholds is not None:
        written |= th.save_table(thresholds_path, detector.thresholds)
    else:
        # a retrained bundle must not inherit the previous model's taus
        thresholds_path.unlink(missing_ok=True)
    return written


def load_detector(bundle_dir: Path) -> Detector:
    """The bundle in bundle_dir, with its thresholds.csv if it has one. A
    bundle whose detector.json lacks a training curve is refused."""
    manifest_path = bundle_dir / "detector.json"
    if not present(manifest_path):
        raise MissingArtifact(f"no detector manifest at {manifest_path}")
    manifest = json.loads(read_once(manifest_path))
    try:
        reports = {branch: TrainReport(
            train_losses=t["train_losses"], val_losses=t["val_losses"],
            best_epoch=t["best_epoch"], best_val_loss=t["best_val_loss"],
            stopped_epoch=t["stopped_epoch"],
            samples_seen={int(k): n for k, n in t["samples_seen"].items()})
            for branch, t in manifest["training"].items()}
        grouping = manifest["grouping"]
    except KeyError as exc:
        raise MissingArtifact(f"{manifest_path} records no {exc.args[0]}, as a bundle "
                              "saved before the training curves were kept; train "
                              "the detector again") from None
    models = {role: {int(k): load_checkpoint(bundle_dir / name)[0]
                     for k, name in manifest[role].items()}
              for role in ("encoders", "decoders")}
    table = bundle_dir / "thresholds.csv"
    return Detector(
        kind=manifest["kind"],
        spec=AutoencoderSpec.from_dict(manifest["spec"]),
        contexts=tuple(manifest["contexts"]),
        **models,
        grouping={int(c): g for c, g in grouping.items()} if grouping else None,
        thresholds=th.load_table(table) if present(table) else None,
        reports=reports,
    )
