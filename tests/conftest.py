import numpy as np
import pytest

from ctxae.ais import NAV_STATUSES, VESSEL_TYPES, Trajectory


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _codes(value, members, n):
    if isinstance(value, (list, tuple)):
        return np.array([members.index(v) for v in value], dtype=np.uint8)
    return np.full(n, members.index(value), dtype=np.uint8)


def make_track(ts, mmsi=1001, lat=10.0, lon=-30.0, sog=8.0, cog=45.0,
               heading=44.0, status="under_way_using_engine",
               vtype="drifting_longlines") -> Trajectory:
    """A columnar trajectory with one message per timestamp.

    Every other column is a scalar for all messages or a sequence with one
    value per message; a heading of None means unavailable, and status and
    vtype take names.
    """
    n = len(ts)

    def floats(value):
        if isinstance(value, (list, tuple)):
            value = [np.nan if v is None else v for v in value]
        elif value is None:
            value = np.nan
        return np.broadcast_to(np.asarray(value, dtype=np.float64), (n,)).copy()

    return Trajectory(mmsi=mmsi, ts=np.asarray(ts, dtype=np.int64),
                      lat=floats(lat), lon=floats(lon), sog=floats(sog),
                      cog=floats(cog), heading=floats(heading),
                      status=_codes(status, NAV_STATUSES, n),
                      vtype=_codes(vtype, VESSEL_TYPES, n))
