"""Great-circle helpers checked against independent formulas.

The haversine implementation is cross-checked with the spherical law of
cosines (a different derivation of the same distance), and destination() is
checked by measuring the distance and initial bearing from the start to the
point it returns. Bearings are compared on the circle, so 359.9999 and 0.0
are a hair apart, not 360 degrees apart. The array functions are checked
against the scalar ones bit for bit, and the numpy screen against the
scalar distance within the band the port filter gives it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxae.dataset import PORT_SCREEN_BAND
from ctxae.geo import (EARTH_RADIUS_M, bearing, destination, destination_array,
                       haversine, haversine_array, haversine_screen, steps_array)

lat_st = st.floats(min_value=-85.0, max_value=85.0)
lon_st = st.floats(min_value=-179.9, max_value=180.0)


def law_of_cosines(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    cosine = (math.sin(p1) * math.sin(p2)
              + math.cos(p1) * math.cos(p2) * math.cos(dl))
    return EARTH_RADIUS_M * math.acos(min(1.0, max(-1.0, cosine)))


def test_quarter_meridian():
    # pole to equator along one meridian: pi * R / 2
    assert haversine(0.0, 0.0, 90.0, 0.0) == pytest.approx(
        math.pi * EARTH_RADIUS_M / 2.0, abs=1.0)


def test_one_degree_latitude():
    assert haversine(10.0, 5.0, 11.0, 5.0) == pytest.approx(
        math.pi * EARTH_RADIUS_M / 180.0, abs=0.5)


def test_zero_distance():
    assert haversine(12.3, -45.6, 12.3, -45.6) == 0.0


@settings(max_examples=200, deadline=None)
@given(lat1=lat_st, lon1=lon_st, lat2=lat_st, lon2=lon_st)
def test_haversine_matches_law_of_cosines(lat1, lon1, lat2, lon2):
    d1 = haversine(lat1, lon1, lat2, lon2)
    d2 = law_of_cosines(lat1, lon1, lat2, lon2)
    # law of cosines loses precision near zero, so compare with mixed tolerance
    assert d1 == pytest.approx(d2, rel=1e-6, abs=0.5)


@settings(max_examples=200, deadline=None)
@given(lat1=lat_st, lon1=lon_st, lat2=lat_st, lon2=lon_st)
def test_haversine_symmetric_and_nonnegative(lat1, lon1, lat2, lon2):
    d = haversine(lat1, lon1, lat2, lon2)
    assert d >= 0.0
    assert d == pytest.approx(haversine(lat2, lon2, lat1, lon1), abs=1e-9)


def test_bearing_cardinal_directions():
    assert bearing(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert bearing(0.0, 0.0, 0.0, 1.0) == pytest.approx(90.0, abs=1e-9)
    assert bearing(1.0, 0.0, 0.0, 0.0) == pytest.approx(180.0, abs=1e-9)
    assert bearing(0.0, 1.0, 0.0, 0.0) == pytest.approx(270.0, abs=1e-9)


def test_bearing_degenerate_pair_is_zero():
    assert bearing(10.0, 10.0, 10.0, 10.0) == 0.0
    # displacement under a meter also collapses to the 0.0 sentinel
    lat2, lon2 = destination(10.0, 10.0, 137.0, 0.5)
    assert bearing(10.0, 10.0, lat2, lon2) == 0.0


@settings(max_examples=200, deadline=None)
@given(lat1=lat_st, lon1=lon_st, lat2=lat_st, lon2=lon_st)
# atan2 gives a negative angle so small that the modulo rounds it up to 360.0
@example(lat1=0.0, lon1=1e-300, lat2=1.0, lon2=0.0)
def test_bearing_range(lat1, lon1, lat2, lon2):
    b = bearing(lat1, lon1, lat2, lon2)
    assert 0.0 <= b < 360.0


@settings(max_examples=200, deadline=None)
@given(lat=lat_st, lon=lon_st,
       brg=st.floats(min_value=0.0, max_value=359.99),
       dist=st.floats(min_value=10.0, max_value=2_000_000.0))
# due north from a near-zero longitude: atan2 gives a tiny negative angle
@example(lat=0.0, lon=1.6767586496058462e-220, brg=0.0, dist=1001.0)
# due north: the longitude fold leaves the bearing a hair below 360, which is
# 1.8e-10 degrees from brg on the circle
@example(lat=0.0, lon=1.786159638174837, brg=0.0, dist=1001.0)
def test_destination_geodesic_consistency(lat, lon, brg, dist):
    """Travelling dist along brg lands exactly dist away, on that bearing."""
    lat2, lon2 = destination(lat, lon, brg, dist)
    assert haversine(lat, lon, lat2, lon2) == pytest.approx(dist, rel=1e-9, abs=1e-6)
    if dist > 1000.0 and abs(lat) < 75.0:
        b = bearing(lat, lon, lat2, lon2)
        # signed difference on the circle, in [-180, 180)
        assert abs((b - brg + 180.0) % 360.0 - 180.0) <= 0.5


@settings(max_examples=200, deadline=None)
@given(lat=lat_st, lon=lon_st, brg=st.floats(min_value=0.0, max_value=359.99),
       dist=st.floats(min_value=0.0, max_value=2_000_000.0))
def test_destination_outputs_valid_coordinates(lat, lon, brg, dist):
    lat2, lon2 = destination(lat, lon, brg, dist)
    assert -90.0 <= lat2 <= 90.0
    assert -180.0 < lon2 <= 180.0


def test_destination_zero_distance_is_identity():
    assert destination(12.0, 34.0, 56.0, 0.0) == (12.0, 34.0)
    # the start longitude is still folded into (-180, 180]
    assert destination(0.0, -180.0, 0.0, 0.0) == (0.0, 180.0)


def test_destination_wraps_antimeridian():
    lat2, lon2 = destination(0.0, 179.9, 90.0, 50_000.0)
    assert lon2 < -179.0


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.array(want, dtype=np.float64).tobytes()


def _near(t):
    # the second point a small step from the first, as consecutive fixes are
    lat, lon, dlat, dlon = t
    lon2 = (lon + dlon + 180.0) % 360.0 - 180.0
    return lat, lon, min(max(lat + dlat, -90.0), 90.0), lon2 if lon2 > -180.0 else 180.0


step_st = st.one_of(st.just(0.0), st.floats(-1e-5, 1e-5), st.floats(-0.05, 0.05))
pair_st = st.one_of(st.tuples(lat_st, lon_st, lat_st, lon_st),
                    st.tuples(lat_st, lon_st, step_st, step_st).map(_near))


@settings(max_examples=200, deadline=None)
@given(st.lists(pair_st, min_size=1, max_size=16))
@example([(10.0, 10.0, 10.000001, 10.0)])        # displacement under 1 m
@example([(0.0, 1e-300, 1.0, 0.0)])              # atan2 rounds to 360.0, folded to 0.0
@example([(12.3, -45.6, 12.3, -45.6)])           # zero distance
@example([(0.0, 179.9999, 0.0, -179.9999),       # across the antimeridian
          (-10.0, -179.95, -10.01, 179.97)])
def test_haversine_and_bearing_arrays_equal_scalar_bits(pairs):
    lat1, lon1, lat2, lon2 = (np.array(c) for c in zip(*pairs))
    want = [haversine(*p) for p in pairs]
    assert _same_bits(haversine_array(lat1, lon1, lat2, lon2), want)
    dist, brg = steps_array(lat1, lon1, lat2, lon2)
    assert _same_bits(dist, want)
    assert _same_bits(brg, [bearing(*p) for p in pairs])


dist_st = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(0.0, 2_000_000.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(lat_st, lon_st, st.floats(0.0, 359.99), dist_st),
                min_size=1, max_size=16))
@example([(12.0, 34.0, 56.0, 0.0), (0.0, -180.0, 0.0, 0.0)])  # zero distance
@example([(10.0, 10.0, 137.0, 0.5)])             # displacement under 1 m
@example([(0.0, 179.9, 90.0, 50_000.0),          # across the antimeridian
          (0.0, -179.9, 270.0, 50_000.0)])
@example([(0.0, 1.6767586496058462e-220, 0.0, 1001.0)])
def test_destination_array_equals_scalar_bits(rows):
    lat, lon, brg, dist = (np.array(c) for c in zip(*rows))
    got_lat, got_lon = destination_array(lat, lon, brg, dist)
    want = [destination(*r) for r in rows]
    assert _same_bits(got_lat, [w[0] for w in want])
    assert _same_bits(got_lon, [w[1] for w in want])


def test_arrays_equal_scalar_bits_on_many_nearby_pairs():
    # consecutive fixes: numpy's square and arcsin change about one distance
    # in two thousand here, so a dense sample catches either
    rng = np.random.default_rng(1)
    n = 20_000
    lat1, lon1 = rng.uniform(-80.0, 80.0, n), rng.uniform(-180.0, 180.0, n)
    step = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 3e-4, n),
                    rng.uniform(0.0, 0.05, n))
    lat2, lon2 = lat1 + step * rng.normal(size=n), lon1 + step * rng.normal(size=n)
    pairs = list(zip(lat1.tolist(), lon1.tolist(), lat2.tolist(), lon2.tolist()))
    want = [haversine(*p) for p in pairs]
    assert _same_bits(haversine_array(lat1, lon1, lat2, lon2), want)
    got_dist, got_brg = steps_array(lat1, lon1, lat2, lon2)
    assert _same_bits(got_dist, want)
    assert _same_bits(got_brg, [bearing(*p) for p in pairs])
    brg, dist = rng.uniform(0.0, 360.0, n), np.abs(rng.normal(0.0, 30.0, n))
    got_lat, got_lon = destination_array(lat1, lon1, brg, dist)
    want = [destination(*r) for r in zip(lat1.tolist(), lon1.tolist(),
                                         brg.tolist(), dist.tolist())]
    assert _same_bits(got_lat, [w[0] for w in want])
    assert _same_bits(got_lon, [w[1] for w in want])


@settings(max_examples=200, deadline=None)
@given(st.lists(pair_st, min_size=1, max_size=16))
@example([(12.3, -45.6, 12.3, -45.6)])           # zero distance
@example([(0.0, 0.0, 0.0, 170.9)])               # 1,000 km short of the antipode
def test_the_screen_stays_far_inside_the_port_band(pairs):
    # the port filter trusts the screen for distances farther than
    # PORT_SCREEN_BAND x radius from the radius; short of the antipode,
    # where asin's slope is unbounded, the screen is 1e5 times closer
    lat1, lon1, lat2, lon2 = (np.array(c) for c in zip(*pairs))
    screen = haversine_screen(lat1, lon1, lat2, lon2)
    exact = haversine_array(lat1, lon1, lat2, lon2)
    away = exact < math.pi * EARTH_RADIUS_M - 1e6
    assert np.all((np.abs(screen - exact) <= 1e-5 * PORT_SCREEN_BAND * np.maximum(exact, 1.0))
                  | ~away)
