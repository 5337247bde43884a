"""Stage manifests: the check every stage makes before it reads an artifact."""

import json

import pytest

from ctxae.errors import ConfigError, MissingArtifact
from ctxae.manifest import (check_inputs, present, read_once, reading, sha256_file,
                            write_manifest)


@pytest.fixture
def produced(tmp_path):
    """A stage "make" that read source.txt and wrote made.txt, as they were then."""
    source = tmp_path / "source.txt"
    source.write_text("first\n")
    output = tmp_path / "made.txt"
    output.write_text("made\n")
    write_manifest(tmp_path, "make", "cfg", {"source": source}, {"made.txt": output},
                   {path: sha256_file(path) for path in (source, output)})
    return source


def test_matching_inputs_pass(produced):
    check_inputs(produced.parent, "make", {"source": produced}, "run make first")


def test_a_recorded_input_the_reader_does_not_name_is_refused(produced):
    with pytest.raises(ConfigError, match=r"make recorded inputs \['source'\], but this "
                                          r"check names \[\]; run make first"):
        check_inputs(produced.parent, "make", {}, "run make first")


def test_outputs_are_keyed_by_their_path_under_the_manifest_directory(tmp_path):
    nested = tmp_path / "sub" / "deep.txt"
    nested.parent.mkdir()
    nested.write_text("deep\n")
    path = write_manifest(tmp_path, "make", "cfg", {}, {"any name": nested},
                          {nested: sha256_file(nested)})
    assert json.loads(path.read_text())["outputs"] == {"sub/deep.txt": sha256_file(nested)}
    check_inputs(tmp_path, "make", {}, "run make first")


def test_a_missing_manifest_is_refused_with_the_hint(tmp_path):
    source = tmp_path / "source.txt"
    source.write_text("first\n")
    with pytest.raises(MissingArtifact, match="no make manifest at .*; run make first"):
        check_inputs(tmp_path, "make", {"source": source}, "run make first")


def test_a_changed_input_is_refused_naming_both_hashes(produced):
    recorded = sha256_file(produced)
    produced.write_text("second\n")
    current = sha256_file(produced)
    with pytest.raises(ConfigError, match="run make first") as err:
        check_inputs(produced.parent, "make", {"source": produced}, "run make first")
    assert recorded in str(err.value) and current in str(err.value)


def test_an_input_the_manifest_does_not_name_is_refused(produced):
    with pytest.raises(ConfigError, match=r"make recorded inputs \['source'\], but this "
                                          r"check names \['other'\]; run make first"):
        check_inputs(produced.parent, "make", {"other": produced}, "run make first")
    with pytest.raises(ConfigError, match=r"check names \['other', 'source'\]"):
        check_inputs(produced.parent, "make", {"source": produced, "other": produced},
                     "run make first")


def test_a_deleted_input_is_refused_as_missing(produced):
    produced.unlink()
    with pytest.raises(MissingArtifact, match="run make first"):
        check_inputs(produced.parent, "make", {"source": produced}, "run make first")


def test_a_changed_or_deleted_output_is_refused(produced):
    made = produced.parent / "made.txt"
    recorded = sha256_file(made)
    made.write_text("edited\n")
    current = sha256_file(made)
    with pytest.raises(ConfigError, match="make wrote made.txt with sha256") as err:
        check_inputs(produced.parent, "make", {"source": produced}, "run make first")
    assert recorded in str(err.value) and current in str(err.value)
    made.unlink()
    with pytest.raises(MissingArtifact, match="which is gone; run make first"):
        check_inputs(produced.parent, "make", {"source": produced}, "run make first")


def test_a_changed_output_the_reader_never_names_is_refused(produced):
    """The reader names only its input; the manifest alone says what make wrote."""
    made = produced.parent / "made.txt"
    recorded = sha256_file(made)
    made.write_bytes(b"mbde\n")
    with pytest.raises(ConfigError) as err:
        check_inputs(produced.parent, "make", {"source": produced}, "run make first")
    assert str(made) in str(err.value)
    assert recorded in str(err.value) and sha256_file(made) in str(err.value)


@pytest.mark.parametrize("damage", [
    lambda path: path.write_bytes(path.read_bytes()[:40]),
    lambda path: path.write_text('{"stage": "make"}'),
], ids=["truncated", "without-inputs"])
def test_a_damaged_manifest_is_refused_with_its_path_and_the_hint(produced, damage):
    path = produced.parent / "make.manifest.json"
    damage(path)
    with pytest.raises(MissingArtifact, match="run make first") as err:
        check_inputs(produced.parent, "make", {"source": produced}, "run make first")
    assert str(path) in str(err.value)


def test_read_once_reads_the_disk_on_every_call_outside_a_scope(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"first")
    assert read_once(path) == b"first"
    path.write_bytes(b"second")
    assert read_once(path) == b"second"


def test_a_scope_keeps_the_first_bytes_and_ends_with_its_block(tmp_path):
    """Within reading() a file is read once; the scope is gone after the
    block, also when the block raises."""
    path = tmp_path / "f.bin"
    path.write_bytes(b"first")
    with reading():
        assert read_once(path) == b"first"
        path.write_bytes(b"second")
        assert read_once(str(path)) == b"first"
    assert read_once(path) == b"second"
    with pytest.raises(RuntimeError), reading():
        read_once(path)
        raise RuntimeError
    path.write_bytes(b"third")
    assert read_once(path) == b"third"


def test_a_file_read_in_a_scope_stays_present_after_it_is_deleted(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"first")
    with reading():
        read_once(path)
        path.unlink()
        assert present(path) and read_once(path) == b"first"
        assert not present(tmp_path / "other.bin")
    assert not present(path)
