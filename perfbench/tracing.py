"""Spans and counts recorded around `ctxae` calls, from outside the package.

The tracer swaps public functions, methods and layer-instance methods of the
loaded ``ctxae`` modules for wrappers while it is installed and puts the
originals back when it is removed, so untraced work runs the program's own
code objects untouched. Spans (name, start, end, parent) and counts are kept
in memory, tagged with the benchmark segment that was running, and written
out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, span name); "{0}" is filled from the first positional
# argument after the config, which names the detector kind of a stage.
SPANS = (
    ("ctxae.synth", "generate", "synth.generate"),
    ("ctxae.synth", "write_fleet", "synth.write_fleet"),
    ("ctxae.ais", "parse_messages", "ais.parse_messages"),
    ("ctxae.ais", "group_trajectories", "ais.group_trajectories"),
    ("ctxae.features", "enrich", "features.enrich"),
    ("ctxae.dataset", "segment", "dataset.segment"),
    ("ctxae.dataset", "attach_truth", "dataset.attach_truth"),
    ("ctxae.dataset", "filter_near_ports", "dataset.filter_near_ports"),
    ("ctxae.dataset", "remove_outliers", "dataset.remove_outliers"),
    ("ctxae.dataset", "split_by_vessel", "dataset.split_by_vessel"),
    ("ctxae.dataset", "normalize_split", "dataset.normalize_split"),
    ("ctxae.dataset", "save_dataset", "dataset.save_dataset"),
    ("ctxae.dataset", "load_dataset", "dataset.load_dataset"),
    ("ctxae.manifest", "write_manifest", "manifest.write_manifest"),
    ("ctxae.net.training", "train_autoencoder", "net.train_autoencoder"),
    ("ctxae.net.training", "train_multi_decoder", "net.train_multi_decoder"),
    ("ctxae.detectors", "fit_detector_thresholds", "detectors.fit_detector_thresholds"),
    ("ctxae.detectors", "save_detector", "detectors.save_detector"),
    ("ctxae.detectors", "load_detector", "detectors.load_detector"),
    ("ctxae.thresholds", "fit", "thresholds.fit"),
    ("ctxae.grouping", "cross_loss_matrix", "grouping.cross_loss_matrix"),
    ("ctxae.grouping", "derive_grouping", "grouping.derive_grouping"),
    ("ctxae.evaluation", "export_distributions", "evaluation.export_distributions"),
    ("ctxae.pipeline", "stage_simulate", "pipeline.stage_simulate"),
    ("ctxae.pipeline", "stage_ingest", "pipeline.stage_ingest"),
    ("ctxae.pipeline", "stage_build", "pipeline.stage_build"),
    ("ctxae.pipeline", "stage_train", "pipeline.stage_train.{0}"),
    ("ctxae.pipeline", "stage_thresholds", "pipeline.stage_thresholds"),
    ("ctxae.pipeline", "stage_group", "pipeline.stage_group"),
    ("ctxae.pipeline", "stage_detect", "pipeline.stage_detect"),
    ("ctxae.pipeline", "stage_evaluate", "pipeline.stage_evaluate"),
    ("ctxae.pipeline", "stage_report", "pipeline.stage_report"),
)
METHOD_SPANS = (
    ("ctxae.detectors", "Detector", "detect", "detectors.Detector.detect"),
    ("ctxae.detectors", "Detector", "score_mixed", "detectors.Detector.score_mixed"),
    ("ctxae.net.training", "Adam", "step", "net.Adam.step"),
)
COUNTERS = (
    ("ctxae.geo", "destination", "geo.destination"),
    ("ctxae.geo", "haversine", "geo.haversine"),
    ("ctxae.geo", "bearing", "geo.bearing"),
    ("ctxae.net.training", "score_windows", "net.score_windows"),
)


def _manifest_bytes(args, kwargs, result):
    inputs, outputs = args[3], args[4]
    return sum(Path(p).stat().st_size for p in (*inputs.values(), *outputs.values()))


def _samples_seen(args, kwargs, result):
    return sum(result.samples_seen.values())


# span name -> function(args, kwargs, result) giving the span's measure
MEASURES = {
    "ais.parse_messages": lambda a, k, r: len(r[0]),
    "dataset.segment": lambda a, k, r: len(r),
    "manifest.write_manifest": _manifest_bytes,
    "net.train_autoencoder": _samples_seen,
    "net.train_multi_decoder": _samples_seen,
}


def rebind(module_name: str, attr: str, make, undo: list) -> None:
    """Replace every ctxae module binding of module.attr with make(orig).

    Each replaced binding is appended to undo as (owner, key, original).
    """
    orig = getattr(sys.modules[module_name], attr)
    repl = make(orig)
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("ctxae") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, repl)
                undo.append((mod, key, orig))


def restore(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)
    undo.clear()


class Tracer:
    """Span and count store plus the patches that feed it."""

    def __init__(self):
        # parallel span columns; ends stay 0 until the span closes
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.measures: list = []
        self.segments: list[str] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.segment = ""
        self._stack = [-1]
        self._undo: list = []
        self._layer_owners: list = []

    # --- recording -----------------------------------------------------------

    def _span(self, name: str, fn, measure=None, label_arg: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name.format(args[1]) if label_arg else name
            idx = len(tracer.names)
            tracer.names.append(label)
            tracer.parents.append(tracer._stack[-1])
            tracer.segments.append(tracer.segment)
            tracer.measures.append(None)
            tracer.starts.append(0)
            tracer.ends.append(0)
            tracer._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if measure is not None:
                tracer.measures[idx] = measure(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer.segment, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in SPANS:
            rebind(module_name, attr,
                   lambda f, n=name: self._span(n, f, MEASURES.get(n),
                                                label_arg="{0}" in n),
                   self._undo)
        for module_name, attr, name in COUNTERS:
            rebind(module_name, attr, lambda f, n=name: self._counter(n, f),
                   self._undo)
        for module_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules[module_name], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._span(name, orig))
            self._undo.append((cls, attr, orig))
        self._patch_model_builders()

    def _patch_model_builders(self) -> None:
        """Name the layers of every model built or loaded while installed."""
        model_mod = sys.modules["ctxae.net.model"]
        spec_cls = model_mod.AutoencoderSpec
        for attr, role in (("build_encoder", "enc"), ("build_decoder", "dec")):
            orig = spec_cls.__dict__[attr]

            def build(spec, rng, _orig=orig, _role=role):
                model = _orig(spec, rng)
                self.wrap_model(model, _role)
                return model
            setattr(spec_cls, attr, build)
            self._undo.append((spec_cls, attr, orig))

        def load(path, _orig=sys.modules["ctxae.net.checkpoint"].load_checkpoint):
            model, meta = _orig(path)
            self.wrap_model(model, "enc" if meta.get("role") == "encoder" else "dec")
            return model, meta
        rebind("ctxae.net.checkpoint", "load_checkpoint", lambda f: load, self._undo)

    def wrap_model(self, model, role: str) -> None:
        """Give each layer instance spans named net.<role>.<i>_<kind>.<fwd|infer|bwd>."""
        for i, layer in enumerate(model.layers):
            prefix = f"net.{role}.{i}_{layer.spec.kind}"
            fwd = self._span(prefix + ".fwd", layer.forward,
                             lambda a, k, r: a[0].shape[0])
            infer = self._span(prefix + ".infer", layer.forward,
                               lambda a, k, r: a[0].shape[0])

            def forward(x, training, _fwd=fwd, _infer=infer):
                return _fwd(x, training) if training else _infer(x, training)
            layer.forward = forward
            layer.backward = self._span(prefix + ".bwd", layer.backward,
                                        lambda a, k, r: a[0].shape[0])
            self._layer_owners.append(layer)

    def uninstall(self) -> None:
        restore(self._undo)
        for layer in self._layer_owners:
            layer.__dict__.pop("forward", None)
            layer.__dict__.pop("backward", None)
        self._layer_owners.clear()

    # --- summaries ----------------------------------------------------------------

    def durations(self):
        """(total ns, self ns) per span index."""
        total = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(total)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= total[idx]
        return total, own

    def write(self, path: Path) -> None:
        """One CSV row per span: id, parent, segment, name, start/end ns, measure."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,segment,name,start_ns,end_ns,measure\n")
            for idx, name in enumerate(self.names):
                measure = self.measures[idx]
                fh.write(f"{idx},{self.parents[idx]},{self.segments[idx]},{name},"
                         f"{self.starts[idx]},{self.ends[idx]},"
                         f"{'' if measure is None else measure}\n")


# --- per-layer metrics ------------------------------------------------------------

def layer_names() -> list[tuple[str, str]]:
    """(role, '<i>_<kind>') for each layer of the default autoencoder."""
    from ctxae.net import default_autoencoder_spec
    spec = default_autoencoder_spec()
    return ([("enc", f"{i}_{s.kind}") for i, s in enumerate(spec.encoder)]
            + [("dec", f"{i}_{s.kind}") for i, s in enumerate(spec.decoder)])


TRAIN_BATCH = 128
PREPARE_SELF = ("synth.generate", "synth.write_fleet", "ais.parse_messages",
                "ais.group_trajectories", "features.enrich", "dataset.segment",
                "dataset.attach_truth", "dataset.filter_near_ports",
                "dataset.remove_outliers", "dataset.split_by_vessel",
                "dataset.normalize_split", "dataset.save_dataset",
                "manifest.write_manifest")
FIT_SELF = ("detectors.fit_detector_thresholds", "thresholds.fit",
            "grouping.cross_loss_matrix", "grouping.derive_grouping",
            "evaluation.export_distributions", "dataset.load_dataset",
            "detectors.save_detector", "detectors.load_detector")
FIT_CALLS = ("dataset.load_dataset", "detectors.save_detector",
             "detectors.load_detector")
KINDS = ("ae", "moe", "cae", "gcae")


def catalog() -> list[tuple]:
    """Per-layer metrics as (name, unit, better, segment, rule, span or counter).

    A segment is the part of the traced run the metric is taken from; values
    are per op of that segment unless the rule is a median or a rate.
    """
    rows = []
    for span in PREPARE_SELF:
        rows.append((f"{span}.s", "s", "lower", "prepare", "self_s", span))
    for counter in ("geo.destination", "geo.haversine", "geo.bearing"):
        rows.append((f"{counter}.calls", "count", "lower", "prepare", "count", counter))
    rows.append(("ais.parse_messages.msgs", "count", "lower", "prepare",
                 "measure", "ais.parse_messages"))
    rows.append(("dataset.segment.windows", "count", "higher", "prepare",
                 "measure", "dataset.segment"))
    rows.append(("manifest.write_manifest.bytes", "B", "lower", "prepare",
                 "measure", "manifest.write_manifest"))
    stages = [("prepare", f"pipeline.stage_{s}") for s in ("simulate", "ingest", "build")]
    stages += [("fit", f"pipeline.stage_train.{k}") for k in KINDS]
    stages += [("fit", f"pipeline.stage_{s}")
               for s in ("thresholds", "group", "detect", "evaluate", "report")]
    for segment, span in stages:
        rows.append((f"{span}.s", "s", "lower", segment, "total_s", span))
        rows.append((f"{span}.self_s", "s", "lower", segment, "self_s", span))
    for role, layer in layer_names():
        prefix = f"net.{role}.{layer}"
        rows.append((f"{prefix}.fwd_us", "us", "lower", "fit", "median_us_128", prefix + ".fwd"))
        rows.append((f"{prefix}.bwd_us", "us", "lower", "fit", "median_us_128", prefix + ".bwd"))
    for role, layer in layer_names():
        prefix = f"net.{role}.{layer}"
        rows.append((f"{prefix}.infer_us", "us", "lower", "stream", "median_us", prefix + ".infer"))
    rows.append(("net.Adam.step_us", "us", "lower", "fit", "median_us", "net.Adam.step"))
    for span in ("net.train_autoencoder", "net.train_multi_decoder"):
        rows.append((f"{span}.windows_per_s", "1/s", "higher", "fit", "rate", span))
    for span in FIT_SELF:
        rows.append((f"{span}.s", "s", "lower", "fit", "self_s", span))
    for span in FIT_CALLS:
        rows.append((f"{span}.calls", "count", "lower", "fit", "calls", span))
    for span in ("detectors.Detector.detect", "detectors.Detector.score_mixed"):
        rows.append((f"{span}.s", "s", "lower", "stream", "self_s", span))
    rows.append(("net.score_windows.calls", "count", "lower", "stream", "count",
                 "net.score_windows"))
    return rows


OVERHEAD = ("trace.overhead.pct", "%", "lower")


def layer_metrics(tracer: Tracer, ops: dict[str, int]) -> dict[str, dict]:
    """Evaluate the catalogue on a finished trace; ops counts traced ops per segment."""
    import numpy as np

    total, own = tracer.durations()
    spans: dict[tuple[str, str], list[int]] = defaultdict(list)
    for idx, (segment, name) in enumerate(zip(tracer.segments, tracer.names)):
        spans[(segment, name)].append(idx)

    out = {}
    for name, unit, _better, segment, rule, key in catalog():
        idx = spans.get((segment, key), [])
        per_op = max(ops.get(segment, 0), 1)
        if rule == "self_s":
            value = sum(own[i] for i in idx) / per_op / 1e9
        elif rule == "total_s":
            value = sum(total[i] for i in idx) / per_op / 1e9
        elif rule == "calls":
            value = len(idx) / per_op
        elif rule == "count":
            value = tracer.counts.get((segment, key), 0) / per_op
        elif rule == "measure":
            value = sum(tracer.measures[i] for i in idx) / per_op
        elif rule == "rate":
            seconds = sum(total[i] for i in idx) / 1e9
            value = sum(tracer.measures[i] for i in idx) / seconds if seconds else 0.0
        else:
            if rule == "median_us_128":
                idx = [i for i in idx if tracer.measures[i] == TRAIN_BATCH]
            value = float(np.median([total[i] for i in idx])) / 1e3 if idx else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
