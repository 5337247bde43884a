"""Message validation, the context registry, and CSV round-trips."""

import csv
import io

import numpy as np
import pytest

from ctxae import ais
from ctxae.ais import (CANONICAL_FIELDS, MESSAGE_COLUMNS, NAV_STATUSES,
                       TABLE_DTYPES, VESSEL_TYPES, MessageTable, NavStatus,
                       VesselType, context_registry, group_trajectories,
                       load_table, parse_messages, parse_record, save_table,
                       table_of)
from ctxae.errors import (MissingArtifact, MissingField, ParseError,
                          RangeError, UnknownEnumToken)
from ctxae.synth import PRESETS, ContextPlan, SynthConfig, generate, write_fleet

from conftest import make_track

HEADER = ",".join(CANONICAL_FIELDS)
VALID = {"mmsi": "1001", "timestamp": "0", "lat": "10.0", "lon": "-30.0",
         "sog": "8.0", "cog": "45.0", "heading": "44.0",
         "nav_status": "under_way_using_engine",
         "vessel_type": "drifting_longlines"}


def records(*overrides):
    """A records file with one row per dict of field overrides."""
    lines = [HEADER] + [",".join({**VALID, **o}[f] for f in CANONICAL_FIELDS)
                        for o in overrides]
    return "\n".join(lines) + "\n"


def table_rows(table):
    """The table as tuples in parse_record order."""
    return list(zip(*(getattr(table, c).tolist() for c in TABLE_DTYPES)))


class TestMessageValidation:
    def test_valid_message(self):
        table, errors = parse_messages(io.StringIO(records({})))
        assert errors == []
        assert table_rows(table) == [(1001, 0, 10.0, -30.0, 8.0, 45.0, 44.0,
                                      0, 0)]

    @pytest.mark.parametrize("field,value", [
        ("mmsi", 0), ("lat", 91.0), ("lat", -90.5), ("lon", -180.0),
        ("lon", 180.5), ("sog", -0.1), ("cog", 360.0), ("cog", -1.0),
        ("heading", 360.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        table, errors = parse_messages(io.StringIO(records({field: str(value)})))
        assert len(table) == 0
        assert [type(e) for e in errors] == [RangeError]
        assert str(errors[0]).startswith(f"line 2: {field}")

    def test_heading_none_allowed(self):
        table, errors = parse_messages(io.StringIO(records({"heading": "unavailable"})))
        assert errors == []
        assert table.heading_unavailable.tolist() == [True]
        assert make_track([0, 30], heading=[None, 44.0]).heading_unavailable.tolist() \
            == [True, False]


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

    def test_context_ids_match_lookup_on_every_code_pair(self):
        reg = context_registry()
        vtype, status = np.meshgrid(np.arange(len(VESSEL_TYPES), dtype=np.uint8),
                                    np.arange(len(NAV_STATUSES), dtype=np.uint8))
        ids = reg.context_ids(vtype.ravel(), status.ravel()).tolist()
        for v, s, cid in zip(vtype.ravel().tolist(), status.ravel().tolist(), ids):
            label = reg.lookup(VESSEL_TYPES[v], NAV_STATUSES[s])
            assert cid == (-1 if label is None else label.id)

    def test_content_hash_stable(self):
        assert context_registry().content_hash() == context_registry().content_hash()

    def test_built_in_table_is_a_bijection_of_known_pairs(self):
        labels = context_registry().labels
        pairs = [(l.vessel_type, l.nav_status) for l in labels]
        assert len(set(pairs)) == len({l.id for l in labels}) == len(labels)
        assert all(vt is not VesselType.UNKNOWN and ns is not NavStatus.OTHER
                   for vt, ns in pairs)

    def test_one_registry_is_built_at_import(self):
        assert context_registry() is context_registry()


def scalar_parse(text):
    """The reference: every non-blank row through the scalar row parser,
    numbered by the file line it starts on."""
    reader = csv.reader(io.StringIO(text))
    index = {name: i for i, name in enumerate(next(reader))}
    rows, errors = [], []
    line_no = reader.line_num + 1
    for row in reader:
        if row:
            try:
                rows.append(parse_record(row, index, line_no))
            except ParseError as exc:
                errors.append(exc)
        line_no = reader.line_num + 1
    return rows, errors


# one row per fault the parser knows, plus the tokens it must accept
PARITY_HEADER = "mmsi,timestamp,lat,lon,sog,cog,heading,nav_status,vessel_type,note"
PARITY_ROWS = [
    "7,0,1.0,2.0,3.0,4.0,5,moored,trawlers,ok",
    "7,1,1.0,2.0",                                       # short row
    "7,2,1.0,2.0,,4.0,5,moored,trawlers,x",              # empty field
    "7,3,abc,2.0,3.0,4.0,5,moored,trawlers,x",           # non-numeric
    "7,4,1e3,2.0,3.0,4.0,5,moored,trawlers,x",           # lat out of range
    "7,5,1.0,-180.0,3.0,4.0,5,moored,trawlers,x",        # lon out of range
    "7,6,1.0,2.0,-0.5,4.0,5,moored,trawlers,x",          # sog out of range
    "7,7,1.0,2.0,3.0,360.0,5,moored,trawlers,x",         # cog out of range
    "7,8,1.0,2.0,3.0,4.0,360,moored,trawlers,x",         # heading out of range
    "0,9,1.0,2.0,3.0,4.0,5,moored,trawlers,x",           # mmsi <= 0
    "-3,10,1.0,2.0,3.0,4.0,5,moored,trawlers,x",         # mmsi <= 0
    "7,11,1.0,2.0,3.0,4.0,5,warping,trawlers,x",         # bad status token
    "7,12,1.0,2.0,3.0,4.0,5,moored,submarine,x",         # bad type token
    "7,13,1.0,2.0,3.0,4.0,511,moored,trawlers,x",        # unavailable
    "7,14,1.0,2.0,3.0,4.0,511.0,moored,trawlers,x",      # unavailable
    "7,15,1.0,2.0,3.0,4.0,unavailable,moored,trawlers,x",
    "7,16,1.0,2.0,3.0,4.0, UNAVAILABLE ,moored,trawlers,x",
    "7,17,1.0,2.0,3.0,4.0,5, MOORED ,Trawlers ,x",       # padded, upper case
    "",                                                   # blank, skipped
    "7,18,1.0,2.0,3.0,4.0,nan,moored,trawlers,x",        # parsed NaN heading
    "7,19,1.0,2.0,3.0,4.0,north,moored,trawlers,x",      # bad heading token
    "7,20,nan,2.0,3.0,4.0,5,moored,trawlers,x",          # NaN lat
    "7,21,1.0,2.0,nan,4.0,5,moored,trawlers,x",          # NaN sog
    "7,21,1.0,2.0,inf,4.0,5,moored,trawlers,x",          # infinite sog
    "7,1e2,1.0,2.0,3.0,4.0,5,moored,trawlers,x",         # non-integer time
    f"{2 ** 70},22,1.0,2.0,3.0,4.0,5,moored,trawlers,x",  # mmsi beyond int64
    f"7,{-2 ** 70},1.0,2.0,3.0,4.0,5,moored,trawlers,x",  # time beyond int64
    "7,23,1.0,2.0,3.0,4.0,5,moored,trawlers,x,extra",    # long row is fine
    " 8 ,24, 1.5 ,2.0,3.0,4.0,5.5,at_anchor,trawlers,x",  # padded numbers
    "7,25,-90.0,180.0,0.0,0.0,0,moored,trawlers,x",      # range ends accepted
    '7,26,1.0,2.0,3.0,4.0,5,moored,trawlers,"a note\non two lines"',
    "7,27,1.0,2.0,3.0,400.0,5,moored,trawlers,x",        # after a two-line record
]
# (class, file line); the blank line is line 20 and the two-line record
# spans lines 32 and 33
PARITY_ERRORS = [
    (MissingField, 3), (MissingField, 4), (RangeError, 5), (RangeError, 6),
    (RangeError, 7), (RangeError, 8), (RangeError, 9), (RangeError, 10),
    (RangeError, 11), (RangeError, 12), (UnknownEnumToken, 13),
    (UnknownEnumToken, 14), (RangeError, 21), (RangeError, 22),
    (RangeError, 23), (RangeError, 24), (RangeError, 25), (RangeError, 26),
    (RangeError, 27), (RangeError, 28), (RangeError, 34),
]


class TestParsing:
    def test_round_trip(self, tmp_path):
        plans = tuple(ContextPlan(context_id=cid, behavior=PRESETS[name], vessels=2)
                      for cid, name in ((0, "transit"), (12, "moored")))
        res = generate(SynthConfig(seed=3, plans=plans, messages_per_vessel=80),
                       context_registry())
        write_fleet(tmp_path, res)
        with open(tmp_path / "records.csv", newline="") as fh:
            parsed, errors = parse_messages(fh)
        assert errors == []
        written = table_of(res.trajectories)
        assert written.heading_unavailable.any()
        for name in TABLE_DTYPES:
            assert np.array_equal(getattr(parsed, name), getattr(written, name),
                                  equal_nan=name == "heading"), name

    def test_heading_sentinel_becomes_none(self):
        text = records(*({"heading": h} for h in ("511", "511.0", "unavailable",
                                                  " UNAVAILABLE ", "44")))
        table, errors = parse_messages(io.StringIO(text))
        assert errors == []
        assert table.heading_unavailable.tolist() == [True] * 4 + [False]

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
        table, errors = parse_messages(io.StringIO(records({"nav_status": "other"})))
        assert errors == []
        assert NAV_STATUSES[table.status[0]] is NavStatus.OTHER

    # one block sends the file through the row parser, as it holds short and
    # long rows; a block of one row puts every full-width row on the column path
    @pytest.mark.parametrize("block_rows", [ais.BLOCK_ROWS, 3, 1])
    def test_columnar_parse_matches_the_row_parser(self, monkeypatch, block_rows):
        monkeypatch.setattr(ais, "BLOCK_ROWS", block_rows)
        text = "\n".join([PARITY_HEADER] + PARITY_ROWS) + "\n"
        table, errors = parse_messages(io.StringIO(text))
        ref_rows, ref_errors = scalar_parse(text)
        assert [(type(e), e.line_no) for e in errors] == PARITY_ERRORS
        assert [(type(e), e.line_no, str(e)) for e in errors] == \
            [(type(e), e.line_no, str(e)) for e in ref_errors]
        got = table_rows(table)
        assert len(got) == len(ref_rows) == 10
        assert repr(got) == repr(ref_rows)
        assert table.heading_unavailable.sum() == 4
        assert np.isfinite(table.sog).all()
        assert [str(e) for e in errors if e.line_no in (24, 25)] == [
            "line 24: sog must be finite and >= 0, got nan",
            "line 25: sog must be finite and >= 0, got inf"]

    def test_missing_column_fails_every_row(self):
        text = records({}, {}).replace("timestamp", "time")
        table, errors = parse_messages(io.StringIO(text))
        assert len(table) == 0
        assert [str(e) for e in errors] == [
            f"line {n}: missing field 'timestamp'" for n in (2, 3)]

    def test_columns_may_come_in_any_order(self):
        text = records({}, {"heading": "511"}, {"mmsi": "9"})
        swapped = "\n".join(",".join(reversed(line.split(",")))
                            for line in text.splitlines()) + "\n"
        table, errors = parse_messages(io.StringIO(swapped))
        assert errors == []
        assert repr(table_rows(table)) == repr(table_rows(parse_messages(io.StringIO(text))[0]))

    def test_empty_stream_gives_an_empty_table(self):
        for text in ("", HEADER + "\n"):
            table, errors = parse_messages(io.StringIO(text))
            assert len(table) == 0 and errors == []

    def test_table_files_round_trip(self, tmp_path):
        table, _ = parse_messages(io.StringIO(records({}, {"heading": "511"},
                                                      {"mmsi": "9"})))
        paths = save_table(tmp_path / "t", table)
        assert [p.name for p in paths] == ["header.json"] + [f"{c}.bin" for c in TABLE_DTYPES]
        loaded = load_table(tmp_path / "t")
        assert repr(table_rows(loaded)) == repr(table_rows(table))
        first = [p.read_bytes() for p in paths]
        save_table(tmp_path / "t", loaded)
        assert [p.read_bytes() for p in paths] == first
        (tmp_path / "t" / "lat.bin").write_bytes(first[3][:8])
        with pytest.raises(MissingArtifact, match=r"\['lat'\] .* do not hold 3 rows"):
            load_table(tmp_path / "t")
        with pytest.raises(MissingArtifact, match="run the ingest stage"):
            load_table(tmp_path / "none")

    @pytest.mark.parametrize("column, cut", [("lat", 1), ("status", -1), ("mmsi", 7)])
    def test_a_column_file_of_another_length_is_refused(self, tmp_path, column, cut):
        # a cut of 1 or 7 bytes leaves a partial value, which numpy cannot view
        table, _ = parse_messages(io.StringIO(records({}, {"mmsi": "9"})))
        save_table(tmp_path / "t", table)
        path = tmp_path / "t" / f"{column}.bin"
        data = path.read_bytes()
        path.write_bytes(data[:-cut] if cut > 0 else data + b"\0")
        with pytest.raises(MissingArtifact,
                           match=rf"\['{column}'\] in {tmp_path / 't'} do not hold 2 rows"):
            load_table(tmp_path / "t")


class TestTrajectories:
    def test_grouping_sorts_by_vessel_then_time(self):
        n = 5
        table = MessageTable(
            mmsi=np.array([2, 1, 1, 2, 1]), ts=np.array([5, 9, 3, 1, 3]),
            lat=np.arange(n, dtype=float), lon=np.zeros(n), sog=np.zeros(n),
            cog=np.zeros(n), heading=np.zeros(n),
            status=np.zeros(n, dtype=np.uint8), vtype=np.zeros(n, dtype=np.uint8))
        trajs = group_trajectories(table)
        assert [t.mmsi for t in trajs] == [1, 2]
        assert trajs[0].ts.tolist() == [3, 3, 9]
        # equal timestamps keep their input order
        assert trajs[0].lat.tolist() == [2.0, 4.0, 1.0]
        assert trajs[1].ts.tolist() == [1, 5]

    def test_trajectory_rejects_decreasing_time(self):
        with pytest.raises(ValueError):
            make_track([5, 4])

    def test_trajectory_rejects_ragged_columns(self):
        track = make_track([0, 30, 60])
        with pytest.raises(ValueError):
            type(track)(mmsi=1, **{c: getattr(track, c)[:2 if c == "lat" else 3]
                                   for c in MESSAGE_COLUMNS})
        with pytest.raises(ValueError):
            make_track([])

    def test_grouping_keeps_each_row_with_its_vessel(self):
        # rows of three vessels interleaved: a row's lat encodes its vessel
        mmsi = np.array([3, 1, 2] * 4)
        n = mmsi.shape[0]
        table = MessageTable(
            mmsi=mmsi, ts=np.arange(n), lat=mmsi * 10.0, lon=np.zeros(n),
            sog=np.zeros(n), cog=np.zeros(n), heading=np.zeros(n),
            status=np.zeros(n, dtype=np.uint8), vtype=np.zeros(n, dtype=np.uint8))
        for traj in group_trajectories(table):
            assert len(traj) == 4
            assert (traj.lat == traj.mmsi * 10.0).all()
