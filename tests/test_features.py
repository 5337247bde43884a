"""Feature derivation and normalization against hand-computed oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxae.ais import context_registry
from ctxae.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    SCALE_FLOOR,
    NormStats,
    apply_norm,
    enrich,
    fit_norm,
)
from ctxae.geo import bearing, haversine
from ctxae.synth import PRESET_KINDS, PRESETS, ContextPlan, SynthConfig, generate

from conftest import make_track


def scalar_enrich(trajectory):
    """The per-message loop enrich replaced: the reference for its bits."""
    t = trajectory
    ts, lat, lon = t.ts.tolist(), t.lat.tolist(), t.lon.tolist()
    sog, cog, heading = t.sog.tolist(), t.cog.tolist(), t.heading.tolist()
    out = np.zeros((len(t), NUM_FEATURES), dtype=np.float64)
    for i in range(len(t)):
        h = cog[i] if math.isnan(heading[i]) else heading[i]
        if i == 0:
            dt = dd = brg = 0.0
        else:
            dt = float(ts[i] - ts[i - 1])
            dd = haversine(lat[i - 1], lon[i - 1], lat[i], lon[i])
            brg = bearing(lat[i - 1], lon[i - 1], lat[i], lon[i])
        out[i] = (sog[i], cog[i], h, dt, dd, brg)
    return out


def test_feature_order_is_fixed():
    assert FEATURE_NAMES == ("sog", "cog", "heading", "dt", "dd", "bearing")
    assert NUM_FEATURES == 6


def test_enrich_first_row_has_zero_deltas():
    traj = make_track([100, 130], lat=[10.0, 10.01], lon=20.0, sog=[5.0, 5.5],
                      cog=[45.0, 10.0], heading=[44.0, 12.0])
    feats = enrich(traj)
    assert feats.shape == (2, 6)
    sog, cog, heading, dt, dd, brg = feats[0]
    assert (sog, cog, heading) == (5.0, 45.0, 44.0)
    assert (dt, dd, brg) == (0.0, 0.0, 0.0)


def test_enrich_deltas_match_scalar_oracles():
    traj = make_track([1000, 1031, 1060], lat=[55.0, 55.002, 55.004],
                      lon=[10.0, 10.004, 10.009], sog=[3.0, 3.2, 3.1],
                      cog=[90.0, 88.0, 86.0], heading=[91.0, 87.0, None])
    feats = enrich(traj)
    assert feats[1][3] == 31.0
    assert feats[1][4] == pytest.approx(
        haversine(55.0, 10.0, 55.002, 10.004), rel=1e-12)
    assert feats[1][5] == pytest.approx(
        bearing(55.0, 10.0, 55.002, 10.004), rel=1e-12)
    assert feats[2][3] == 29.0
    assert feats[2][4] == pytest.approx(
        haversine(55.002, 10.004, 55.004, 10.009), rel=1e-12)


def test_enrich_missing_heading_falls_back_to_cog():
    traj = make_track([0, 30], heading=[None, 200.0], cog=[123.4, 10.0])
    feats = enrich(traj)
    assert feats[0][2] == pytest.approx(123.4)
    assert feats[1][2] == pytest.approx(200.0)


def test_enrich_matches_the_scalar_loop_bit_for_bit():
    # every behaviour preset, with unavailable headings and a collective
    # displacement, plus hand-made edge cases: one message, a repeated fix,
    # a sub-metre step, the antimeridian and a pole-ward step
    plans = tuple(ContextPlan(context_id=cid, behavior=PRESETS[kind], vessels=2)
                  for cid, kind in zip((0, 16, 10, 5, 12, 21), PRESET_KINDS))
    fleet = generate(SynthConfig(seed=11, plans=plans, messages_per_vessel=400,
                                 collective_rate=0.2), context_registry())
    edge = [make_track([0]),
            make_track([0, 30, 60, 90, 120, 150],
                       lat=[10.0, 10.0, 10.000001, 0.5, 0.5, 89.9],
                       lon=[179.9999, 179.9999, 179.9999, 180.0, -179.9999, 0.0],
                       heading=[None, 1.0, None, 359.0, 0.0, None])]
    for traj in fleet.trajectories + edge:
        got, want = enrich(traj), scalar_enrich(traj)
        assert got.shape == (len(traj), NUM_FEATURES)
        assert got.tobytes() == want.tobytes()


def test_fit_norm_matches_loop_oracle(rng):
    data = rng.normal(2.0, 3.0, size=(7, 50, 6))
    stats = fit_norm(data)
    flat = data.reshape(-1, 6)
    for f in range(6):
        col = flat[:, f]
        mean = sum(col) / len(col)
        var = sum((x - mean) ** 2 for x in col) / len(col)
        assert stats.location[f] == pytest.approx(mean, abs=1e-9)
        assert stats.scale[f] == pytest.approx(math.sqrt(var), rel=1e-12)
        assert not stats.degenerate[f]


def test_fit_norm_flags_constant_feature():
    data = np.ones((4, 10, 6))
    data[..., 2] = 7.5   # constant column
    data[..., 0] = np.linspace(0, 1, 40).reshape(4, 10)
    stats = fit_norm(data)
    assert stats.degenerate[2]
    assert stats.scale[2] == SCALE_FLOOR
    normed = apply_norm(stats, data)
    assert np.allclose(normed[..., 2], 0.0)


def test_fit_norm_rejects_empty():
    with pytest.raises(ValueError):
        fit_norm(np.zeros((0, 50, 6)))


def test_apply_then_invert_is_identity(rng):
    data = rng.normal(0.0, 5.0, size=(3, 50, 6))
    stats = fit_norm(data)
    normed = apply_norm(stats, data)
    assert np.allclose(normed * stats.scale + stats.location, data, atol=1e-9)


def test_normalized_train_split_has_zero_mean_unit_std(rng):
    data = rng.uniform(-4.0, 9.0, size=(20, 50, 6))
    stats = fit_norm(data)
    normed = apply_norm(stats, data).reshape(-1, 6)
    assert np.allclose(normed.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(normed.std(axis=0), 1.0, atol=1e-9)


def test_norm_stats_round_trip(tmp_path, rng):
    stats = fit_norm(rng.normal(size=(5, 50, 6)))
    path = tmp_path / "norm_stats.json"
    stats.save(path)
    loaded = NormStats.load(path)
    assert np.array_equal(loaded.location, stats.location)
    assert np.array_equal(loaded.scale, stats.scale)
    assert loaded.degenerate == stats.degenerate
    assert loaded.content_hash() == stats.content_hash()


def test_norm_stats_rejects_shuffled_feature_names(tmp_path, rng):
    stats = fit_norm(rng.normal(size=(5, 50, 6)))
    data = stats.to_dict()
    data["features"][0], data["features"][1] = (data["features"][1],
                                                data["features"][0])
    with pytest.raises(ValueError):
        NormStats.from_dict(data)


def test_norm_stats_file_is_stable(tmp_path, rng):
    stats = fit_norm(rng.normal(size=(5, 50, 6)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    stats.save(a)
    stats.save(b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert [e["name"] for e in payload["features"]] == list(FEATURE_NAMES)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=60),
       st.integers(0, 5))
def test_apply_norm_is_affine(values, feature):
    data = np.zeros((len(values), 1, 6))
    data[:, 0, feature] = values
    stats = fit_norm(data)
    normed = apply_norm(stats, data)
    col = normed[:, 0, feature]
    spread = max(values) - min(values)
    if stats.degenerate[feature]:
        assert np.allclose(col, (np.array(values) - stats.location[feature])
                           / SCALE_FLOOR)
    else:
        # a positive-scale affine map never reverses order (ties may appear
        # from rounding, so monotone non-decreasing is the exact property)
        assert spread > 0
        ordered = col[np.argsort(values, kind="stable")]
        assert np.all(np.diff(ordered) >= 0)
