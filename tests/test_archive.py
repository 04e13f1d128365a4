import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import version_1_archive

from ragcap.archive import (ArchiveFormatError, ManifestError, ManifestRow,
                            atomic_write_bytes, load_checkpoint,
                            load_manifest, pack_archive, read_archive,
                            unpack_archive, write_archive, write_manifest)


# ---------------------------------------------------------------------------
# tensor archive round-trips
# ---------------------------------------------------------------------------

def test_empty_archive_roundtrip(tmp_path):
    path = str(tmp_path / "empty.ract")
    write_archive(path, {}, {})
    assert read_archive(path) == {}


def test_scalar_zero_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "zero.ract")
    write_archive(path, {"z": np.zeros((1, 1))}, {})
    out = read_archive(path)["z"]
    assert out.tobytes() == np.zeros((1, 1)).tobytes()


def test_multi_tensor_roundtrip(tmp_path, rng):
    tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(7,)),
               "c": rng.normal(size=(2, 2, 2))}
    path = str(tmp_path / "multi.ract")
    write_archive(path, tensors, {})
    out = read_archive(path)
    assert set(out) == set(tensors)
    for name in tensors:
        assert out[name].tobytes() == tensors[name].tobytes()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2 ** 31)),
    min_size=0, max_size=4))
def test_archive_roundtrip_property(shapes_seeds):
    tensors = {}
    for i, (ndim, seed) in enumerate(shapes_seeds):
        r = np.random.default_rng(seed)
        shape = tuple(int(r.integers(1, 5)) for _ in range(ndim))
        tensors[f"t{i}"] = r.normal(size=shape)
    out, meta = unpack_archive(pack_archive(tensors, {}))
    assert meta == {}
    assert set(out) == set(tensors)
    for name in tensors:
        assert out[name].shape == tensors[name].shape
        assert out[name].tobytes() == tensors[name].tobytes()


# ---------------------------------------------------------------------------
# malformed archives
# ---------------------------------------------------------------------------

def test_bad_magic_names_offset():
    with pytest.raises(ArchiveFormatError, match="byte 0"):
        unpack_archive(b"XXXX" + b"\x00" * 10)


def test_unknown_version():
    buf = bytearray(pack_archive({"a": np.ones(2)}, {}))
    buf[4] = 99
    with pytest.raises(ArchiveFormatError, match="version"):
        unpack_archive(bytes(buf))


def test_truncated_payload_names_offset():
    buf = pack_archive({"a": np.ones(4)}, {})
    with pytest.raises(ArchiveFormatError, match=r"byte \d+"):
        unpack_archive(buf[:-8])


def test_trailing_bytes_rejected():
    buf = pack_archive({"a": np.ones(2)}, {})
    with pytest.raises(ArchiveFormatError, match="trailing"):
        unpack_archive(buf + b"\x00")


def test_non_utf8_tensor_name_names_offset():
    buf = bytearray(pack_archive({"a": np.ones(1)}, {}))
    buf[18] = 0xFF  # the name's first byte, after 14 + 2 bytes of "{}"
    with pytest.raises(ArchiveFormatError, match="byte 18"):
        unpack_archive(bytes(buf))


def test_zero_dim_beside_huge_dims_rejected():
    # the element count is 0, so only numpy's size limit could catch it
    buf = (b"RACT" + struct.pack("<HIH", 1, 1, 1) + b"a"
           + struct.pack("<B3I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1))
    with pytest.raises(ArchiveFormatError, match="byte 14"):
        unpack_archive(buf)


def _with_meta(meta: bytes) -> bytes:
    """An empty version-2 archive whose metadata block is `meta`."""
    return b"RACT" + struct.pack("<HII", 2, 0, len(meta)) + meta


def test_version_1_archive_reads_with_empty_metadata():
    tensors = {"a": np.arange(6.0).reshape(2, 3), "s": np.zeros(())}
    got, meta = unpack_archive(version_1_archive(tensors))
    assert meta == {}
    assert {k: v.tobytes() for k, v in got.items()} == {
        k: v.tobytes() for k, v in tensors.items()}


def test_checkpoint_roundtrip_and_metadata(tmp_path, rng):
    tensors = {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=(3,))}
    meta = {"config_hash": "abc", "seed": 0, "epoch": 7, "val_loss": 0.25}
    path = str(tmp_path / "model.ckpt")
    write_archive(path, tensors, meta)
    out, got_meta = load_checkpoint(path, ("w", "b"))
    assert got_meta == meta
    for name in tensors:
        assert out[name].tobytes() == tensors[name].tobytes()
    assert read_archive(path, ("w",)).keys() == tensors.keys()


def test_checkpoint_bad_magic(tmp_path):
    """The container that preceded archive version 2 is refused too."""
    path = str(tmp_path / "old.ckpt")
    atomic_write_bytes(path, b"RCKP" + struct.pack("<I", 2) + b"{}"
                       + version_1_archive({}))
    with pytest.raises(ArchiveFormatError, match=re.escape(
            f"{path}: bad magic b'RCKP' at byte 0")):
        load_checkpoint(path, ())


def test_checkpoint_metadata_is_sorted_json(tmp_path):
    path = str(tmp_path / "model.ckpt")
    write_archive(path, {}, {"b": 1, "a": [2, "x"]})
    raw = Path(path).read_bytes()
    assert raw[4:6] == struct.pack("<H", 2)
    meta_len = int.from_bytes(raw[10:14], "little")
    assert raw[14:14 + meta_len].decode() == json.dumps(
        {"a": [2, "x"], "b": 1}, sort_keys=True)


@pytest.mark.parametrize("size", [10, 11, 12, 13])
def test_checkpoint_truncated_in_metadata_length(size):
    with pytest.raises(ArchiveFormatError, match=re.escape(
            "need 4 bytes for metadata length at byte 10, only "
            f"{size - 10} available")):
        unpack_archive(pack_archive({}, {})[:size])


def test_checkpoint_truncated_in_metadata():
    buf = pack_archive({}, {"ids": ["a"]})
    with pytest.raises(ArchiveFormatError, match=re.escape(
            f"need {len(buf) - 14} bytes for metadata at byte 14")):
        unpack_archive(buf[:-1])


@pytest.mark.parametrize("meta", [b"[1, 2]", b"\xff\xfe", b"{not json",
                                  b"7", b""])
def test_bad_checkpoint_metadata_names_offset(meta):
    with pytest.raises(ArchiveFormatError, match="metadata at byte 14"):
        unpack_archive(_with_meta(meta))


_TENSORS = {"emb": np.random.default_rng(0).normal(size=(2, 3)),
            "b": np.array([0.5, -1.0]), "s": np.zeros(())}
_META = {"captions": [["a dog barks"]], "ids": ["c00i000"],
         "threshold": 0.25}
_VALID = {"v2": pack_archive(_TENSORS, _META),
          "v1": version_1_archive(_TENSORS)}


def _records(buf: bytes) -> bytes:
    """The tensor count and records of an archive that unpacks."""
    if buf[4:6] == struct.pack("<H", 1):
        return buf[6:10] + buf[10:]
    return buf[6:10] + buf[14 + int.from_bytes(buf[10:14], "little"):]


def _roundtrips_or_raises(buf):
    """A corrupted file raises ArchiveFormatError, or what it reads as
    writes back to the same tensor records and reads the same metadata."""
    try:
        got, meta = unpack_archive(buf)
    except ArchiveFormatError:
        return
    again = pack_archive(got, meta)
    assert _records(again) == _records(buf)
    assert unpack_archive(again)[1] == meta


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_VALID)), st.data())
def test_single_byte_mutation_roundtrips_or_raises(kind, data):
    buf = bytearray(_VALID[kind])
    pos = data.draw(st.integers(0, len(buf) - 1), label="pos")
    buf[pos] = data.draw(st.integers(0, 255), label="byte")
    _roundtrips_or_raises(bytes(buf))


def test_every_single_byte_mutation_roundtrips_or_raises():
    # a few of the mutations reach numpy's dims limits
    for valid in _VALID.values():
        for pos in range(len(valid)):
            for byte in range(256):
                buf = bytearray(valid)
                buf[pos] = byte
                _roundtrips_or_raises(bytes(buf))


def test_duplicate_name_rejected():
    buf = pack_archive({"a": np.ones(1)}, {})
    # splice the single-tensor record in twice
    head, record = buf[:16], buf[16:]
    doubled = (head[:6] + (2).to_bytes(4, "little") + head[10:]
               + record + record)
    with pytest.raises(ArchiveFormatError, match="duplicate"):
        unpack_archive(doubled)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"payload")
    assert Path(path).read_bytes() == b"payload"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_overwrites_in_place(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"old")
    atomic_write_bytes(path, b"new")
    assert Path(path).read_bytes() == b"new"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _feature_file(tmp_path):
    fpath = str(tmp_path / "f.ract")
    write_archive(fpath, {"features": np.ones((2, 3))}, {})
    return fpath


def test_minimal_manifest_loads(tmp_path):
    fpath = _feature_file(tmp_path)
    mpath = str(tmp_path / "m.jsonl")
    write_manifest(mpath, [ManifestRow("x", "train", fpath, ["a cap"])])
    rows = load_manifest(mpath)
    assert len(rows) == 1 and rows[0].id == "x"


def test_duplicate_id_cites_line(tmp_path):
    fpath = _feature_file(tmp_path)
    rows = [ManifestRow(f"i{k}", "train", fpath, ["c"]) for k in range(6)]
    rows.append(ManifestRow("i3", "train", fpath, ["c"]))
    mpath = str(tmp_path / "m.jsonl")
    write_manifest(mpath, rows)
    with pytest.raises(ManifestError, match=re.escape(
            f"{mpath}:7: duplicate id 'i3' (first on line 4)")):
        load_manifest(mpath)


def test_unknown_split_and_missing_field(tmp_path):
    fpath = _feature_file(tmp_path)
    mpath = str(tmp_path / "m.jsonl")
    write_manifest(mpath, [ManifestRow("x", "dev", fpath, ["c"])])
    with pytest.raises(ManifestError, match="split"):
        load_manifest(mpath)
    atomic_write_bytes(mpath, b'{"id": "x", "split": "train"}\n')
    with pytest.raises(ManifestError, match="missing key"):
        load_manifest(mpath)


def test_invalid_json_cites_line(tmp_path):
    mpath = str(tmp_path / "m.jsonl")
    atomic_write_bytes(mpath, b"not json\n")
    with pytest.raises(ManifestError, match=re.escape(f"{mpath}:1: invalid")):
        load_manifest(mpath)


def test_unresolvable_feature_path(tmp_path):
    mpath = str(tmp_path / "m.jsonl")
    write_manifest(mpath, [ManifestRow("x", "train", "missing.ract", ["c"])])
    with pytest.raises(ManifestError, match="not resolvable"):
        load_manifest(mpath)


def test_wordless_primary_caption_cites_line(tmp_path):
    fpath = _feature_file(tmp_path)
    mpath = str(tmp_path / "m.jsonl")
    write_manifest(mpath, [ManifestRow("x", "train", fpath, ["a cap"]),
                           ManifestRow("y", "train", fpath, ["!!!", "a cap"])])
    with pytest.raises(ManifestError, match=re.escape(
            f"{mpath}:2: caption '!!!' has no words")):
        load_manifest(mpath)


def test_manifest_requires_train_rows(tmp_path):
    fpath = _feature_file(tmp_path)
    mpath = str(tmp_path / "m.jsonl")
    write_manifest(mpath, [ManifestRow("x", "test", fpath, ["c"])])
    with pytest.raises(ManifestError, match="no train"):
        load_manifest(mpath)


def test_10k_row_manifest_loads_under_a_second(tmp_path):
    import time
    fpath = _feature_file(tmp_path)
    rows = [ManifestRow(f"i{k:05d}", "train", fpath, ["a caption"])
            for k in range(10_000)]
    mpath = str(tmp_path / "big.jsonl")
    write_manifest(mpath, rows)
    start = time.monotonic()
    loaded = load_manifest(mpath)
    elapsed = time.monotonic() - start
    assert len(loaded) == 10_000
    assert elapsed < 1.0, f"manifest load took {elapsed:.2f}s"
