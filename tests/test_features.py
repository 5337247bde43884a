"""Feature derivation and normalization against hand-computed oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxae.ais import Trajectory
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

from conftest import make_message


def test_feature_order_is_fixed():
    assert FEATURE_NAMES == ("sog", "cog", "heading", "dt", "dd", "bearing")
    assert NUM_FEATURES == 6


def test_enrich_first_row_has_zero_deltas():
    traj = Trajectory(mmsi=1001, messages=(
        make_message(timestamp=100, lat=10.0, lon=20.0, sog=5.0, cog=45.0,
                     heading=44.0),
        make_message(timestamp=130, lat=10.01, lon=20.0, sog=5.5, cog=10.0,
                     heading=12.0),
    ))
    feats = enrich(traj)
    assert feats.shape == (2, 6)
    sog, cog, heading, dt, dd, brg = feats[0]
    assert (sog, cog, heading) == (5.0, 45.0, 44.0)
    assert (dt, dd, brg) == (0.0, 0.0, 0.0)


def test_enrich_deltas_match_scalar_oracles():
    traj = Trajectory(mmsi=1001, messages=(
        make_message(timestamp=1000, lat=55.0, lon=10.0, sog=3.0, cog=90.0,
                     heading=91.0),
        make_message(timestamp=1031, lat=55.002, lon=10.004, sog=3.2,
                     cog=88.0, heading=87.0),
        make_message(timestamp=1060, lat=55.004, lon=10.009, sog=3.1,
                     cog=86.0, heading=None),
    ))
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
    traj = Trajectory(mmsi=1001, messages=(
        make_message(timestamp=0, heading=None, cog=123.4),
        make_message(timestamp=30, heading=200.0, cog=10.0),
    ))
    feats = enrich(traj)
    assert feats[0][2] == pytest.approx(123.4)
    assert feats[1][2] == pytest.approx(200.0)


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
