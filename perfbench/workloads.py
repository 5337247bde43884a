"""The three workloads and the loop that times them.

prepare  one op = stage_simulate -> stage_ingest -> stage_build on a fleet
         of all six behaviour presets; the item is one AIS message.
fit      one op = the model half of run_all in a fresh output directory;
         the item is one training window passed forward and backward.
stream   one op = one request of windows from distinct test vessels, scored
         by Detector.detect in context mode, rotating over the four kinds;
         the item is one scored window.

Every op's outputs are checked against the references in oracle.py after
its timer stops. run.py imports this module only after pinning the BLAS
pool to one thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from ctxae import pipeline
from ctxae.config import config_from_dict
from ctxae.dataset import load_dataset
from ctxae.detectors import load_detector

import oracle
from tracing import OVERHEAD, Tracer, layer_metrics, rebind, restore

KINDS = ("ae", "moe", "cae", "gcae")
SETUPS = 3
TAIL_OPS = 1000
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("wall_p99_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
PORTS = [[12.0, -40.0], [-8.0, -32.0], [4.0, -20.0]]
# five contexts as in configs/fixture.yaml, two of them carrying falsified
# statuses; the prepare fleet adds the loiter preset no shipped config uses
BASE_CONTEXTS = (
    {"id": 0, "behavior": "transit", "falsify_to": "moored"},
    {"id": 16, "behavior": "fishing_zigzag", "falsify_to": "under_way_using_engine"},
    {"id": 5, "behavior": "anchor_drift"},
    {"id": 12, "behavior": "moored"},
    {"id": 21, "behavior": "sailing"},
)
LOITER = {"id": 10, "behavior": "loiter"}


def fleet(contexts, vessels: int, messages: int) -> dict:
    return {"messages_per_vessel": messages, "ports": PORTS,
            "contextual_rate": 0.1, "collective_rate": 0.05,
            "contexts": [{**c, "vessels": vessels} for c in contexts]}


PREPARE_FLEET = {"synth": fleet(BASE_CONTEXTS + (LOITER,), 6, 500)}
WARMUP_FLEET = {"synth": fleet(BASE_CONTEXTS + (LOITER,), 3, 500)}
# max_epochs = N with patience = N - 1: no detector can stop early. The moe
# detector needs validation windows in every context; with a 0.3 validation
# share of about 33 clean vessels per context, a seed leaves a context
# without any with odds of about 0.7 ** 33, or 1e-5.
EPOCHS = 6
MODEL_FLEET = {
    "synth": fleet(BASE_CONTEXTS, 36, 300),
    "dataset": {"ratios": [0.5, 0.3, 0.2]},
    "train": {"max_epochs": EPOCHS, "patience": EPOCHS - 1, "batch_size": 128},
}
# scoring cost does not depend on how long the detectors trained, so the
# stream set-up trains them for fewer epochs
STREAM_FLEET = {**MODEL_FLEET,
                "train": {"max_epochs": 3, "patience": 2, "batch_size": 128}}
REQUEST_VESSELS = 24
REQUEST_POOL = 32
# requests traced when another workload is the measured one: 16 rounds of
# one request to each kind
STREAM_TRACE_OPS = 64


def dataset_digest(dataset_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(dataset_dir.glob("*.f32")) + sorted(dataset_dir.glob("*.index.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def model_steps(cfg, report: bool = True) -> list:
    """run_all from training on, gcae after grouping, as steps of about equal size."""
    steps = [lambda k=kind: (pipeline.stage_train(cfg, k), pipeline.stage_thresholds(cfg, k))
             for kind in ("ae", "moe", "cae")]
    steps.append(lambda: (pipeline.stage_group(cfg), pipeline.stage_train(cfg, "gcae"),
                          pipeline.stage_thresholds(cfg, "gcae")))
    if report:
        steps.append(lambda: ([pipeline.stage_detect(cfg, k) for k in KINDS],
                              pipeline.stage_evaluate(cfg), pipeline.stage_report(cfg)))
    return steps


def build_steps(cfg, keep: dict) -> list:
    """simulate, ingest, build; keep["ingest"] receives the ingest summary."""
    return [lambda: pipeline.stage_simulate(cfg),
            lambda: keep.update(ingest=pipeline.stage_ingest(cfg)),
            lambda: pipeline.stage_build(cfg)]


# --- workloads ------------------------------------------------------------------

class Workload:
    """setup_steps(k) reach the timed state, steps(i) are op i; both are timed.

    before(i), after(i) and after_setup(k) prepare and check, untimed.
    """

    round_size = 1      # ops a run attempts as one unit
    probe_every = 1     # op steps between machine-speed samples
    block = 1           # ops per traced or untraced block in a traced run
    trace_ops = 1       # ops traced when another workload is the one measured

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def setup_steps(self, k: int) -> list:
        """The timed work of set-up k, as calls a speed sample may separate."""
        raise NotImplementedError

    def after_setup(self, k: int) -> None:
        pass

    def steps(self, i: int) -> list:
        """The timed work of op i, as calls a speed sample may separate."""
        raise NotImplementedError

    def items(self, i: int) -> int:
        raise NotImplementedError

    def before(self, i: int) -> None:
        pass

    def after(self, i: int) -> None:
        pass

    def on_install(self, tracer: Tracer) -> None:
        pass

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


class Prepare(Workload):
    """The pure-Python data path: simulate, ingest, build."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.digest = None
        self.messages = sum(c["vessels"] for c in PREPARE_FLEET["synth"]["contexts"]) \
            * PREPARE_FLEET["synth"]["messages_per_vessel"]

    def setup_steps(self, k):
        # a warm-up op on a small fleet: imports, allocator and file cache
        out = fresh(self.work / f"prepare-warmup{k}")
        return build_steps(config_from_dict(WARMUP_FLEET, seed=self.seed, out_dir=out), {})

    def before(self, i):
        self.out = fresh(self.work / f"prepare-op{i}")
        self.cfg = config_from_dict(PREPARE_FLEET, seed=self.seed, out_dir=self.out)
        self.kept = {}

    def steps(self, i):
        return build_steps(self.cfg, self.kept)

    def items(self, i):
        return self.messages

    def after(self, i):
        if (self.out / "dataset" / "header.json").exists():
            self.verify()
        shutil.rmtree(self.out, ignore_errors=True)

    def verify(self):
        cfg, ds = self.cfg, self.out / "dataset"
        rec = oracle.Records(self.out / "synth" / "records.csv")
        ingest = self.kept["ingest"]
        self.check(ingest["parse_errors"] == 0,
                   f"prepare: {ingest['parse_errors']} parse errors")
        self.check(len(rec) == self.messages == ingest["messages"],
                   f"prepare: {len(rec)} records, {ingest['messages']} parsed, "
                   f"{self.messages} expected")
        loc, scale, degenerate = oracle.read_norm_stats(ds)
        ports = np.array(cfg.synth.ports)
        caps = cfg.dataset
        vessels = {}
        for split in oracle.SPLITS:
            x, idx = oracle.read_split(ds, split)
            vessels[split] = set(idx["mmsi"].tolist())
            if x.shape[0] == 0:
                continue
            rows = rec.window_rows(idx["mmsi"], idx["start_ts"], caps.window_len)
            values = x * scale + loc
            for col, name in ((3, "dt"), (4, "dd"), (5, "bearing")):
                ref = getattr(rec, name)[rows]
                # float32 storage of (v - loc) / scale, plus float64 slack
                tol = 2.0 ** -23 * np.abs(ref - loc[col]) + 1e-9 * (np.abs(ref) + 1.0)
                diff = values[..., col] - ref
                if name == "bearing":
                    diff = oracle.angle_diff(values[..., col], ref)
                bad = int((np.abs(diff) > tol).sum())
                self.check(bad == 0, f"prepare: {bad} {split} {name} values differ "
                                     "from the oracle beyond float32 rounding")
            lat, lon = rec.lat[rows], rec.lon[rows]
            dist = oracle.haversine(lat[..., None], lon[..., None],
                                    ports[:, 0], ports[:, 1])
            near = int((dist < caps.port_radius_m * (1 - 1e-12)).any(axis=(1, 2)).sum())
            self.check(near == 0, f"prepare: {near} kept {split} windows touch a port")
            dt, dd = rec.dt[rows], rec.dd[rows]
            broken = int(((dt.max(axis=1) > caps.max_time_gap_s)
                          | (dd.max(axis=1) > caps.max_dist_gap_m * (1 + 1e-12))
                          | (dt[:, 1:].sum(axis=1) < caps.min_span_s)).sum())
            self.check(broken == 0, f"prepare: {broken} kept {split} windows break a cap")
            if split == "train":
                flat = x.reshape(-1, x.shape[2])[:, ~degenerate]
                self.check(np.allclose(flat.mean(axis=0), 0.0, atol=1e-5)
                           and np.allclose(flat.std(axis=0), 1.0, atol=1e-5),
                           "prepare: train features are not standardized")
        for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
            shared = vessels[a] & vessels[b]
            self.check(not shared, f"prepare: {len(shared)} vessels in both {a} and {b}")
        digest = dataset_digest(ds)
        self.digest = self.digest or digest
        self.check(digest == self.digest, "prepare: dataset bytes differ between ops")


class Fit(Workload):
    """Training-mode net plus the pipeline's model stages."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.digest = None
        self.calls: list[tuple[str, object]] = []
        # keep each TrainReport, which no stage persists, for the checks
        self._undo: list = []
        for attr in ("train_autoencoder", "train_multi_decoder"):
            rebind("ctxae.net.training", attr, self._capture, self._undo)

    def _capture(self, fn):
        def capture(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.calls.append((fn.__name__, report))
            return report
        return capture

    def close(self):
        restore(self._undo)

    def setup_steps(self, k):
        out = fresh(self.work / f"fit-setup{k}")
        return build_steps(config_from_dict(MODEL_FLEET, seed=self.seed, out_dir=out), {})

    def after_setup(self, k):
        self.dataset = self.work / f"fit-setup{k}" / "dataset"
        digest = dataset_digest(self.dataset)
        self.digest = self.digest or digest
        self.check(digest == self.digest, "fit: set-up datasets differ")

    def before(self, i):
        self.out = fresh(self.work / f"fit-op{i}")
        shutil.copytree(self.dataset, self.out / "dataset")
        self.cfg = config_from_dict(MODEL_FLEET, seed=self.seed, out_dir=self.out)
        self.calls.clear()

    def steps(self, i):
        return model_steps(self.cfg)

    def items(self, i):
        return sum(sum(r.samples_seen.values()) for _, r in self.calls)

    def after(self, i):
        if (self.out / "report.json").exists():
            self.verify()
            if i == 0:
                print("fit fingerprint:", json.dumps(fingerprint(self.out / "report.json")),
                      file=sys.stderr)
        shutil.rmtree(self.out, ignore_errors=True)

    def verify(self):
        out, epochs = self.out, self.cfg.train.max_epochs
        x, idx = oracle.read_split(out / "dataset", "train")
        cids = idx["context_id"]
        counts = {int(c): int((cids == c).sum()) for c in np.unique(cids)}
        contexts = sorted(counts)

        grouping = json.loads((out / "grouping" / "grouping.json").read_text())
        members = [m for g in grouping["groups"] for m in g["members"]] \
            + grouping["distinct"]
        self.check(sorted(members) == contexts,
                   f"fit: grouping {members} is no partition of {contexts}")
        self.check(all(g["representative"] in g["members"] for g in grouping["groups"]),
                   "fit: a group representative is not among its members")
        key_of = {c: c for c in grouping["distinct"]}
        key_of.update({m: g["representative"] for g in grouping["groups"]
                       for m in g["members"]})
        by_key: dict[int, int] = {}
        for c in contexts:
            by_key[key_of.get(c, c)] = by_key.get(key_of.get(c, c), 0) + counts[c]

        expected = ([("train_autoencoder", {0: len(cids)})]
                    + [("train_autoencoder", {0: counts[c]}) for c in contexts]
                    + [("train_multi_decoder", counts), ("train_multi_decoder", by_key)])
        self.check(len(self.calls) == len(expected),
                   f"fit: {len(self.calls)} training calls, {len(expected)} expected")
        for (name, report), (want_name, windows) in zip(self.calls, expected):
            want = {k: epochs * n for k, n in windows.items()}
            self.check(name == want_name and report.samples_seen == want,
                       f"fit: {name} saw {report.samples_seen}, expected {want}")
            losses = report.train_losses
            self.check(len(losses) == epochs and losses[-1] < losses[0],
                       f"fit: {name} training losses {losses} did not fall "
                       f"over {epochs} epochs")

        lam = self.cfg.thresholds.lam
        for kind in KINDS:
            bundle = out / "models" / kind
            scores = oracle.DetectorOracle(bundle).score(x, cids)
            taus = oracle.read_taus(bundle / "thresholds.csv")
            want = {str(c): oracle.tau(scores[cids == c], lam) for c in contexts}
            want["global"] = oracle.tau(scores, lam)
            for key, value in want.items():
                self.check(key in taus and math.isclose(taus[key], value, rel_tol=1e-9),
                           f"fit: {kind} tau[{key}] = {taus.get(key)}, oracle {value}")


def fingerprint(report_path: Path) -> dict:
    """Recall per truth kind, FPR per context and the grouping partition."""
    report = json.loads(report_path.read_text())
    out = {kind: {"recall": {k: v["recall"] for k, v in m["truth"]["per_kind"].items()},
                  "fpr": m["fpr_by_context"]}
           for kind, m in report["models"].items()}
    grouping = report["grouping"]
    out["grouping"] = {"groups": [g["members"] for g in grouping["groups"]],
                       "distinct": grouping["distinct"]}
    return out


class Stream(Workload):
    """Closed loop of mixed-context scoring requests from one client."""

    round_size = len(KINDS)
    probe_every = 32 * len(KINDS)
    block = 16 * len(KINDS)
    trace_ops = STREAM_TRACE_OPS

    def setup_steps(self, k):
        out = fresh(self.work / f"stream-setup{k}")
        cfg = config_from_dict(STREAM_FLEET, seed=self.seed, out_dir=out)
        return (build_steps(cfg, {}) + model_steps(cfg, report=False)
                + [lambda: self.load(out)])

    def load(self, out: Path) -> None:
        """Load the detectors and cut the request pool."""
        self.detectors = {kind: load_detector(out / "models" / kind) for kind in KINDS}
        split, _ = load_dataset(out / "dataset")
        by_vessel: dict[int, list] = {}
        for w in split.test:
            by_vessel.setdefault(w.mmsi, []).append(w)
        vessels = sorted(by_vessel)
        rng = np.random.default_rng([self.seed, 404])
        self.requests = []
        for _ in range(REQUEST_POOL):
            chosen = rng.choice(len(vessels), size=REQUEST_VESSELS, replace=False)
            windows = [by_vessel[vessels[j]][rng.integers(len(by_vessel[vessels[j]]))]
                       for j in chosen]
            self.requests.append((np.stack([w.tensor for w in windows]),
                                  np.array([w.context_id for w in windows])))
        self.results = []
        self.out = out

    def on_install(self, tracer):
        for det in self.detectors.values():
            for model in det.encoders.values():
                tracer.wrap_model(model, "enc")
            for model in det.decoders.values():
                tracer.wrap_model(model, "dec")

    def steps(self, i):
        return [lambda: self.request(i)]

    def request(self, i):
        kind = KINDS[i % len(KINDS)]
        r = (i // len(KINDS)) % REQUEST_POOL
        x, cids = self.requests[r]
        scores, verdicts, _ = self.detectors[kind].detect(x, cids, mode="context")
        self.results.append((kind, r, scores, verdicts))

    def items(self, i):
        return self.results[-1][2].shape[0]

    def finish(self):
        oracles = {kind: oracle.DetectorOracle(self.out / "models" / kind) for kind in KINDS}
        taus = {kind: oracle.read_taus(self.out / "models" / kind / "thresholds.csv")
                for kind in KINDS}
        expected = {}
        for kind, r, scores, verdicts in self.results:
            x, cids = self.requests[r]
            if (kind, r) not in expected:
                expected[(kind, r)] = oracles[kind].score(x, cids)
            want = expected[(kind, r)]
            self.check(scores.shape == want.shape,
                       f"stream: {scores.shape[0]} windows scored, {x.shape[0]} sent")
            if scores.shape != want.shape:
                continue
            self.check(np.allclose(scores, want, rtol=1e-9, atol=0.0),
                       f"stream: {kind} request {r} scores differ from the oracle")
            tau = np.array([taus[kind][str(c)] for c in cids])
            self.check(np.array_equal(verdicts, scores > tau),
                       f"stream: {kind} request {r} verdicts differ from score > tau")


WORKLOADS = {"prepare": Prepare, "fit": Fit, "stream": Stream}


# --- driving ----------------------------------------------------------------------

class Probe:
    """Machine speed from two fixed kernels timed between units of work.

    On a shared virtual machine the same code runs up to 1.9x slower in
    spells of seconds to minutes. A pure-Python and a
    numpy kernel, neither touching ctxae, slow down with it. sample()
    returns the machine's slowness relative to the kernels' reference times
    (1.0 at reference speed); a unit of work bracketed by two samples is
    scaled by their mean.
    """

    PYTHON_REF_S = 0.005
    NUMPY_REF_S = 0.006

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(128, 48, 16))
        self._w = rng.normal(size=(16, 32))

    @staticmethod
    def _python_kernel() -> float:
        acc, table = 0.0, {}
        for i in range(20_000):
            v = (i * 0.37) % 7.0
            table[i & 63] = v
            acc += math.sqrt(v + table.get((i * 7) & 63, 1.0))
        return acc

    def _numpy_kernel(self) -> float:
        y = self._x @ self._w
        for _ in range(3):
            mean = y.mean(axis=(0, 1))
            y = np.maximum((y - mean) / np.sqrt(y.var(axis=(0, 1)) + 1e-5), 0.0)
        return float(y.sum())

    def sample(self, repeats: int = 3) -> float:
        py, nu = [], []
        for _ in range(repeats):
            start = perf_counter()
            self._python_kernel()
            middle = perf_counter()
            self._numpy_kernel()
            py.append(middle - start)
            nu.append(perf_counter() - middle)
        return 0.5 * (statistics.median(py) / self.PYTHON_REF_S
                      + statistics.median(nu) / self.NUMPY_REF_S)


class Tally:
    """Per-op records of one drive and the speed samples between them."""

    def __init__(self):
        # (steps as (wall, cpu, block), items, traced) for each op that ran
        self.ops: list[tuple[list[tuple[float, float, int]], int, bool]] = []
        self.slowness: list[float] = []     # sample b opens block b, b + 1 closes it
        self.attempted = 0
        self.failed = 0
        self.traced_ops = 0

    def walls(self, traced: bool) -> list[float]:
        return [sum(w for w, _, _ in steps) for steps, _, t in self.ops if t == traced]

    def scaled(self) -> list[tuple[float, float, int]]:
        """(wall, cpu, items) of each untraced op at the probe's reference speed."""
        out = []
        for steps, items, traced in self.ops:
            if traced:
                continue
            factors = [0.5 * (self.slowness[b] + self.slowness[b + 1]) for _, _, b in steps]
            out.append((sum(w / f for (w, _, _), f in zip(steps, factors)),
                        sum(c / f for (_, c, _), f in zip(steps, factors)), items))
        return out


def drive(wl: Workload, seconds: float, tally: Tally, min_ops: int = 1,
          tracer: Tracer | None = None, traced=lambda i: False,
          probe: Probe | None = None) -> None:
    """Run ops until `seconds` of op time are spent, in whole rounds.

    traced(i) says whether op i runs with the tracer installed; the tracer
    is swapped in and out only between ops, outside their timers. With a
    probe, speed samples bracket every block of wl.probe_every op steps.
    """
    installed = False
    spent, i, count = 0.0, 0, 0
    if probe is not None:
        tally.slowness.append(probe.sample())
    try:
        while i < min_ops or spent < seconds or i % wl.round_size:
            want = traced(i)
            if want != installed:
                if want:
                    tracer.install()
                    wl.on_install(tracer)
                else:
                    tracer.uninstall()
                installed = want
            wl.before(i)
            tally.attempted += 1
            tally.traced_ops += want
            steps = []
            try:
                for step in wl.steps(i):
                    wall0, cpu0 = perf_counter(), process_time()
                    try:
                        step()
                    finally:
                        wall, cpu = perf_counter() - wall0, process_time() - cpu0
                        spent += wall
                    steps.append((wall, cpu, len(tally.slowness) - 1))
                    count += 1
                    if probe is not None and count == wl.probe_every:
                        tally.slowness.append(probe.sample())
                        count = 0
                items = wl.items(i)
            except Exception:
                tally.failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                tally.ops.append((steps, items, want))
            wl.after(i)
            i += 1
        if probe is not None and count:
            tally.slowness.append(probe.sample())
    finally:
        if installed:
            tracer.uninstall()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name: str, seed: int, seconds: float, work: Path) -> dict:
    wl = WORKLOADS[name](seed, work)
    tally = Tally()
    probe = Probe()
    try:
        setups, scaled_setups, slowness = [], [], []
        for k in range(SETUPS):
            raw = scaled = 0.0
            before = probe.sample()
            for step in wl.setup_steps(k):
                start = perf_counter()
                step()
                wall = perf_counter() - start
                after = probe.sample()
                raw, scaled = raw + wall, scaled + 2.0 * wall / (before + after)
                slowness.append(before)
                before = after
            wl.after_setup(k)
            setups.append(raw)
            scaled_setups.append(scaled)
        drive(wl, seconds, tally, probe=probe)
        wl.finish()
    finally:
        wl.close()
    ops = tally.scaled()
    walls = [w for w, _, _ in ops]
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(scaled_setups),
        "wall_s": wall,
        # a 99th percentile needs ten ops beyond it; with fewer ops there is
        # no tail to report and the median stands in for it
        "wall_p99_s": float(np.percentile(walls, 99)) if len(walls) >= TAIL_OPS else wall,
        "cpu_s": statistics.median(c for _, c, _ in ops),
        "items_per_s": statistics.median(n / w for w, _, n in ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = tally.walls(False)
    print(f"{name}: {len(raw)} ops; unscaled set-ups {[round(t, 3) for t in setups]}, "
          f"median op {statistics.median(raw):.6g} s; machine slowness "
          f"{min(slowness + tally.slowness):.3f}-{max(slowness + tally.slowness):.3f}",
          file=sys.stderr)
    return result(wl.errors, tally, {k: {"value": values[k], "unit": unit}
                                     for k, unit, _ in END_TO_END})


def run_traced(name: str, seed: int, seconds: float, work: Path,
               spans_path: Path) -> dict:
    """Walk prepare, fit and stream with the tracer; `name` alternates for `seconds`."""
    tracer = Tracer()
    tally = Tally()
    ops: dict[str, int] = {}
    errors: list[str] = []
    overhead = None
    for segment, cls in WORKLOADS.items():
        wl = cls(seed, work)
        seg_tally = Tally()
        try:
            for step in wl.setup_steps(0):
                step()
            wl.after_setup(0)
            tracer.segment = segment
            if segment == name:
                drive(wl, seconds, seg_tally, min_ops=2 * wl.block, tracer=tracer,
                      traced=lambda i, b=wl.block: (i // b) % 2 == 1)
                overhead = 100.0 * (statistics.median(seg_tally.walls(True))
                                    / statistics.median(seg_tally.walls(False)) - 1.0)
            else:
                drive(wl, 0.0, seg_tally, min_ops=wl.trace_ops, tracer=tracer,
                      traced=lambda i: True)
            wl.finish()
        finally:
            wl.close()
        ops[segment] = seg_tally.traced_ops
        errors += wl.errors
        tally.attempted += seg_tally.attempted
        tally.failed += seg_tally.failed
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, ops)
    metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    return result(errors, tally, metrics)


def result(errors: list[str], tally: Tally, metrics: dict) -> dict:
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": not errors, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}
