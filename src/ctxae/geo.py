"""Spherical geodesy helpers (sphere radius 6,371,000 m).

Accuracy at trajectory scale (< a few hundred km) is well within the noise
of AIS positioning, so no ellipsoidal model is used.

The scalar functions are the reference. Each ``*_array`` function computes
the same formula over whole float64 arrays and returns the scalar result
bit for bit: it keeps the scalar operation order, uses numpy only for
operations that round as ``math`` does (``sin``, ``cos``, ``sqrt``,
``radians``, ``degrees``, ``%`` and the basic arithmetic), and passes
``asin``, ``atan2`` and squaring through ``math`` with ``map`` over
``tolist()``, because numpy's ``arcsin``, ``arctan2`` and ``square`` do not
round as libm's ``asin``, ``atan2`` and ``pow`` do. ``steps_array`` returns
the distance and the bearing of each step from one pass, so the bearing's
degenerate test reads the distance it returns instead of recomputing it.

``haversine_screen`` is the one inexact function: the haversine formula in
numpy's own ufuncs, within a few ulp of ``haversine`` (about 1e-15
relative), for callers that only need to know on which side of a threshold
far from the distance a value lies.
"""

from math import asin, atan2, cos, degrees, radians, sin, sqrt

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# below this displacement the initial bearing is numerically meaningless
DEGENERATE_DISTANCE_M = 1.0


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points in meters."""
    phi1, lam1, phi2, lam2 = map(radians, (lat1, lon1, lat2, lon2))
    dphi = phi2 - phi1
    dlam = lam2 - lam1
    a = sin(dphi / 2.0) ** 2 + cos(phi1) * cos(phi2) * sin(dlam / 2.0) ** 2
    return EARTH_RADIUS_M * 2.0 * asin(min(1.0, sqrt(a)))


def bearing(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from point 1 to point 2, degrees in [0, 360).

    Returns 0.0 when the displacement is below 1 m (degenerate case). A
    negative angle within half an ulp of 360 makes the modulo round up to
    360.0; that result is returned as 0.0, the same direction on the circle.
    """
    if haversine(lat1, lon1, lat2, lon2) < DEGENERATE_DISTANCE_M:
        return 0.0
    phi1, lam1, phi2, lam2 = map(radians, (lat1, lon1, lat2, lon2))
    dlam = lam2 - lam1
    y = sin(dlam) * cos(phi2)
    x = cos(phi1) * sin(phi2) - sin(phi1) * cos(phi2) * cos(dlam)
    brg = degrees(atan2(y, x)) % 360.0
    return 0.0 if brg == 360.0 else brg


def destination(lat: float, lon: float, bearing_deg: float,
                distance_m: float) -> tuple[float, float]:
    """Point reached from (lat, lon) along an initial bearing for distance_m.

    The longitude comes back in (-180, 180]. A zero distance returns the
    start point exactly when its longitude is already in that range; the
    trigonometric round trip would otherwise move it by an ulp.
    """
    if distance_m == 0.0 and -180.0 < lon <= 180.0:
        return lat, lon
    delta = distance_m / EARTH_RADIUS_M
    theta = radians(bearing_deg)
    phi1 = radians(lat)
    lam1 = radians(lon)
    phi2 = asin(sin(phi1) * cos(delta) + cos(phi1) * sin(delta) * cos(theta))
    lam2 = lam1 + atan2(sin(theta) * sin(delta) * cos(phi1),
                        cos(delta) - sin(phi1) * sin(phi2))
    lon2 = (degrees(lam2) + 540.0) % 360.0 - 180.0
    if lon2 == -180.0:
        lon2 = 180.0
    return degrees(phi2), lon2


def _libm(fn, *arrays) -> np.ndarray:
    """fn from math applied elementwise over broadcast arrays."""
    arrays = np.broadcast_arrays(*arrays)
    return np.fromiter(map(fn, *(a.ravel().tolist() for a in arrays)), np.float64,
                       arrays[0].size).reshape(arrays[0].shape)


def _haversine(square, arcsin, lat1, lon1, lat2, lon2) -> np.ndarray:
    """haversine's formula over broadcast arrays, with the given square and arcsine."""
    phi1, lam1, phi2, lam2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = square(np.sin((phi2 - phi1) / 2.0)) \
        + np.cos(phi1) * np.cos(phi2) * square(np.sin((lam2 - lam1) / 2.0))
    return EARTH_RADIUS_M * 2.0 * arcsin(np.minimum(1.0, np.sqrt(a)))


def haversine_array(lat1, lon1, lat2, lon2) -> np.ndarray:
    """haversine over broadcast arrays, bit for bit."""
    return _haversine(lambda x: _libm(pow, x, 2.0), lambda x: _libm(asin, x),
                      lat1, lon1, lat2, lon2)


def haversine_screen(lat1, lon1, lat2, lon2) -> np.ndarray:
    """haversine over broadcast arrays in numpy ufuncs: a few ulp off, not bit for bit."""
    return _haversine(np.square, np.arcsin, lat1, lon1, lat2, lon2)


def steps_array(lat1, lon1, lat2, lon2) -> tuple[np.ndarray, np.ndarray]:
    """haversine and bearing over broadcast arrays, bit for bit."""
    dist = haversine_array(lat1, lon1, lat2, lon2)
    phi1, lam1, phi2, lam2 = map(np.radians, (lat1, lon1, lat2, lon2))
    dlam = lam2 - lam1
    y = np.sin(dlam) * np.cos(phi2)
    x = np.cos(phi1) * np.sin(phi2) - np.sin(phi1) * np.cos(phi2) * np.cos(dlam)
    brg = np.degrees(_libm(atan2, y, x)) % 360.0
    return dist, np.where((dist < DEGENERATE_DISTANCE_M) | (brg == 360.0), 0.0, brg)


def destination_array(lat, lon, bearing_deg, distance_m) -> tuple[np.ndarray, np.ndarray]:
    """destination over broadcast arrays, bit for bit."""
    lat, lon, distance_m = (np.asarray(v, dtype=np.float64) for v in (lat, lon, distance_m))
    delta = distance_m / EARTH_RADIUS_M
    theta = np.radians(bearing_deg)
    phi1 = np.radians(lat)
    lam1 = np.radians(lon)
    phi2 = _libm(asin, np.sin(phi1) * np.cos(delta)
                 + np.cos(phi1) * np.sin(delta) * np.cos(theta))
    lam2 = lam1 + _libm(atan2, np.sin(theta) * np.sin(delta) * np.cos(phi1),
                        np.cos(delta) - np.sin(phi1) * np.sin(phi2))
    lon2 = (np.degrees(lam2) + 540.0) % 360.0 - 180.0
    lon2 = np.where(lon2 == -180.0, 180.0, lon2)
    stay = (distance_m == 0.0) & (lon > -180.0) & (lon <= 180.0)
    return np.where(stay, lat, np.degrees(phi2)), np.where(stay, lon, lon2)
