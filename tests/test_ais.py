"""Message validation, the context registry, and CSV round-trips."""

import io

import pytest

from ctxae.ais import (AisMessage, NavStatus, Trajectory, VesselType,
                       context_registry, group_trajectories, parse_messages,
                       serialize_messages)
from ctxae.errors import ParseError

from conftest import make_message


class TestMessageValidation:
    def test_valid_message(self):
        m = make_message()
        assert m.mmsi == 1001

    @pytest.mark.parametrize("field,value", [
        ("mmsi", 0), ("lat", 91.0), ("lat", -90.5), ("lon", -180.0),
        ("lon", 180.5), ("sog", -0.1), ("cog", 360.0), ("cog", -1.0),
        ("heading", 360.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            make_message(**kwargs)

    def test_heading_none_allowed(self):
        assert make_message(heading=None).heading is None


class TestRegistry:
    def test_twenty_six_contexts(self):
        reg = context_registry()
        assert len(reg.labels) == 26
        assert [l.id for l in reg.labels] == list(range(26))

    @pytest.mark.parametrize("vt,ns,cid", [
        (VesselType.DRIFTING_LONGLINES, NavStatus.UNDER_WAY_USING_ENGINE, 0),
        (VesselType.TRAWLERS, NavStatus.ENGAGED_IN_FISHING, 19),
        (VesselType.TUNA_PURSE_SEINES, NavStatus.MOORED, 15),
        (VesselType.SQUID_JIGGER, NavStatus.RESTRICTED_MANEUVERABILITY, 10),
        (VesselType.DRIFTING_LONGLINES, NavStatus.AT_ANCHOR, 5),
        (VesselType.DRIFTING_LONGLINES, NavStatus.MOORED, 12),
        (VesselType.DRIFTING_LONGLINES, NavStatus.UNDER_WAY_SAILING, 21),
        (VesselType.DRIFTING_LONGLINES, NavStatus.ENGAGED_IN_FISHING, 16),
    ])
    def test_known_ids(self, vt, ns, cid):
        label = context_registry().lookup(vt, ns)
        assert label is not None and label.id == cid
        assert label.name == f"c{cid}"

    def test_unregistered_pair_maps_to_none(self):
        reg = context_registry()
        assert reg.lookup(VesselType.SET_LONGLINES, NavStatus.MOORED) is None
        assert reg.lookup(VesselType.UNKNOWN,
                          NavStatus.UNDER_WAY_USING_ENGINE) is None

    def test_lookup_matches_by_id(self):
        reg = context_registry()
        for label in reg.labels:
            assert reg.by_id(label.id) is label
            assert reg.lookup(label.vessel_type, label.nav_status) is label

    def test_content_hash_stable(self):
        assert context_registry().content_hash() == context_registry().content_hash()


class TestParsing:
    def test_round_trip(self):
        msgs = [make_message(timestamp=i, heading=None if i == 1 else 44.0)
                for i in range(3)]
        buf = io.StringIO()
        serialize_messages(msgs, buf)
        buf.seek(0)
        parsed, errors = parse_messages(buf)
        assert errors == []
        assert parsed == msgs

    def test_heading_sentinel_becomes_none(self):
        header = "mmsi,timestamp,lat,lon,sog,cog,heading,nav_status,vessel_type"
        row = "7,0,1.0,2.0,3.0,4.0,511,moored,trawlers"
        parsed, errors = parse_messages(io.StringIO(f"{header}\n{row}\n"))
        assert errors == []
        assert parsed[0].heading is None

    def test_bad_rows_collected_with_line_numbers(self):
        header = "mmsi,timestamp,lat,lon,sog,cog,heading,nav_status,vessel_type"
        rows = [
            "7,0,1.0,2.0,3.0,4.0,5,moored,trawlers",        # ok
            "7,1,99.0,2.0,3.0,4.0,5,moored,trawlers",       # lat range
            "7,2,1.0,2.0,3.0,4.0,5,warping,trawlers",       # unknown status
            "7,3,1.0,2.0,,4.0,5,moored,trawlers",           # missing sog
        ]
        parsed, errors = parse_messages(io.StringIO("\n".join([header] + rows)))
        assert len(parsed) == 1
        assert [e.line_no for e in errors] == [3, 4, 5]
        assert all(isinstance(e, ParseError) for e in errors)

    def test_unknown_status_token_maps_to_other(self):
        # statuses outside the enum are a parse error, not silently dropped
        header = "mmsi,timestamp,lat,lon,sog,cog,heading,nav_status,vessel_type"
        row = "7,0,1.0,2.0,3.0,4.0,5,other,trawlers"
        parsed, errors = parse_messages(io.StringIO(f"{header}\n{row}\n"))
        assert errors == []
        assert parsed[0].nav_status is NavStatus.OTHER


class TestTrajectories:
    def test_grouping_sorts_by_vessel_then_time(self):
        msgs = [make_message(mmsi=2, timestamp=5), make_message(mmsi=1, timestamp=9),
                make_message(mmsi=1, timestamp=3), make_message(mmsi=2, timestamp=1)]
        trajs = group_trajectories(msgs)
        assert [t.mmsi for t in trajs] == [1, 2]
        assert [m.timestamp for m in trajs[0].messages] == [3, 9]
        assert [m.timestamp for m in trajs[1].messages] == [1, 5]

    def test_trajectory_rejects_decreasing_time(self):
        msgs = (make_message(timestamp=5), make_message(timestamp=4))
        with pytest.raises(ValueError):
            Trajectory(mmsi=1001, messages=msgs)

    def test_trajectory_rejects_foreign_mmsi(self):
        msgs = (make_message(mmsi=1), make_message(mmsi=2, timestamp=1))
        with pytest.raises(ValueError):
            Trajectory(mmsi=1, messages=msgs)
