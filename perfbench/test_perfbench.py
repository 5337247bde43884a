"""Tests of the benchmark's own references and of its file contract.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import tracing  # noqa: E402
from ctxae import geo, synth, thresholds  # noqa: E402
from ctxae.ais import context_registry  # noqa: E402
from ctxae.detectors import Detector, save_detector  # noqa: E402
from ctxae.features import enrich  # noqa: E402
from ctxae.net import default_autoencoder_spec, save_checkpoint  # noqa: E402


def random_pairs(rng, n):
    lat1 = rng.uniform(-80.0, 80.0, n)
    lon1 = rng.uniform(-180.0, 180.0, n)
    # a third of the pairs are a few meters apart, some across the date line
    step = np.where(rng.random(n) < 0.33, rng.uniform(0.0, 3e-5, n),
                    rng.uniform(0.0, 2.0, n))
    lat2 = np.clip(lat1 + step * rng.normal(size=n), -89.0, 89.0)
    lon2 = (lon1 + step * rng.normal(size=n) + 180.0) % 360.0 - 180.0
    return lat1, lon1, lat2, lon2


def test_vectorized_geodesy_matches_geo():
    lat1, lon1, lat2, lon2 = random_pairs(np.random.default_rng(3), 3000)
    dist = oracle.haversine(lat1, lon1, lat2, lon2)
    brg = oracle.bearing(lat1, lon1, lat2, lon2)
    for i in range(lat1.shape[0]):
        ref_d = geo.haversine(lat1[i], lon1[i], lat2[i], lon2[i])
        ref_b = geo.bearing(lat1[i], lon1[i], lat2[i], lon2[i])
        assert math.isclose(dist[i], ref_d, rel_tol=1e-9, abs_tol=1e-9)
        assert abs(oracle.angle_diff(brg[i], ref_b)) < 1e-6
        assert 0.0 <= brg[i] < 360.0
        assert (brg[i] == 0.0) == (ref_b == 0.0) or abs(ref_d - 1.0) < 1e-9


def test_record_deltas_match_enrich(tmp_path):
    plans = tuple(synth.ContextPlan(context_id=cid, behavior=synth.PRESETS[name],
                                    vessels=2)
                  for cid, name in ((0, "transit"), (5, "anchor_drift"), (10, "loiter")))
    cfg = synth.SynthConfig(seed=5, plans=plans, messages_per_vessel=120,
                            collective_rate=0.2)
    result = synth.generate(cfg, context_registry())
    synth.write_fleet(tmp_path, result)
    rec = oracle.Records(tmp_path / "records.csv")
    offset = 0
    for traj in sorted(result.trajectories, key=lambda t: t.mmsi):
        feats = enrich(traj)
        rows = slice(offset, offset + len(traj))
        np.testing.assert_array_equal(rec.dt[rows], feats[:, 3])
        np.testing.assert_allclose(rec.dd[rows], feats[:, 4], rtol=1e-9, atol=1e-9)
        assert np.abs(oracle.angle_diff(rec.bearing[rows], feats[:, 5])).max() < 1e-6
        offset += len(traj)
    assert offset == len(rec)


def random_model(spec, rng, role):
    model = spec.build_encoder(rng) if role == "enc" else spec.build_decoder(rng)
    for layer in model.layers:
        for array in layer.state():
            array[...] = rng.normal(0.0, 0.5, array.shape)
        if layer.spec.kind == "batchnorm":
            layer.running_var[...] = rng.uniform(0.5, 2.0, layer.running_var.shape)
    return model


def test_forward_oracle_matches_sequential(tmp_path):
    rng = np.random.default_rng(11)
    spec = default_autoencoder_spec()
    x = rng.normal(size=(7, 50, 6))
    for role in ("enc", "dec"):
        model = random_model(spec, rng, role)
        save_checkpoint(tmp_path / f"{role}.ckpt", model)
        layers, arrays = oracle.read_checkpoint(tmp_path / f"{role}.ckpt")
        inp = x if role == "enc" else rng.normal(size=(7, spec.latent))
        np.testing.assert_allclose(oracle.forward(layers, arrays, inp),
                                   model.forward(inp, training=False),
                                   rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind", ["ae", "moe", "gcae"])
def test_detector_oracle_routes_like_detector(tmp_path, kind):
    rng = np.random.default_rng(17)
    spec = default_autoencoder_spec()
    contexts = (0, 5, 12)
    enc_keys = contexts if kind == "moe" else (-1,)
    dec_keys = {"ae": (-1,), "moe": contexts, "gcae": (0, 12)}[kind]
    det = Detector(kind=kind, spec=spec, contexts=contexts,
                   encoders={k: random_model(spec, rng, "enc") for k in enc_keys},
                   decoders={k: random_model(spec, rng, "dec") for k in dec_keys},
                   grouping={0: 0, 5: 0, 12: 12} if kind == "gcae" else None)
    save_detector(tmp_path, det)
    x = rng.normal(size=(30, 50, 6))
    cids = rng.choice(contexts, size=30)
    np.testing.assert_allclose(oracle.DetectorOracle(tmp_path).score(x, cids),
                               det.score_mixed(x, cids), rtol=1e-9, atol=0.0)


def test_tau_matches_threshold_fit():
    rng = np.random.default_rng(23)
    losses = {c: rng.gamma(2.0, 0.1, size=n) for c, n in ((0, 40), (5, 3), (12, 250))}
    table = thresholds.fit(losses, lam=5.0)
    for c, values in losses.items():
        assert math.isclose(oracle.tau(values, 5.0), table.tau(c), rel_tol=1e-12)
    pooled = np.concatenate([losses[c] for c in sorted(losses)])
    assert math.isclose(oracle.tau(pooled, 5.0), table.global_tau, rel_tol=1e-12)


def test_benchmark_json_lists_the_printed_metrics():
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(workloads.END_TO_END)
    layers = [(name, unit, better) for name, unit, better, *_ in tracing.catalog()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers + [tracing.OVERHEAD]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prepare",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
