import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragcap.archive import (ArchiveFormatError, ManifestError, ManifestRow,
                            atomic_write_bytes, load_checkpoint,
                            load_manifest, pack_archive, pack_checkpoint,
                            read_archive, save_checkpoint,
                            unpack_archive, unpack_checkpoint, write_archive,
                            write_manifest)


# ---------------------------------------------------------------------------
# tensor archive round-trips
# ---------------------------------------------------------------------------

def test_empty_archive_roundtrip(tmp_path):
    path = str(tmp_path / "empty.ract")
    write_archive(path, {})
    assert read_archive(path) == {}


def test_scalar_zero_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "zero.ract")
    write_archive(path, {"z": np.zeros((1, 1))})
    out = read_archive(path)["z"]
    assert out.tobytes() == np.zeros((1, 1)).tobytes()


def test_multi_tensor_roundtrip(tmp_path, rng):
    tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(7,)),
               "c": rng.normal(size=(2, 2, 2))}
    path = str(tmp_path / "multi.ract")
    write_archive(path, tensors)
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
    out = unpack_archive(pack_archive(tensors))
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
    buf = bytearray(pack_archive({"a": np.ones(2)}))
    buf[4] = 99
    with pytest.raises(ArchiveFormatError, match="version"):
        unpack_archive(bytes(buf))


def test_truncated_payload_names_offset():
    buf = pack_archive({"a": np.ones(4)})
    with pytest.raises(ArchiveFormatError, match=r"byte \d+"):
        unpack_archive(buf[:-8])


def test_trailing_bytes_rejected():
    buf = pack_archive({"a": np.ones(2)})
    with pytest.raises(ArchiveFormatError, match="trailing"):
        unpack_archive(buf + b"\x00")


def test_non_utf8_tensor_name_names_offset():
    buf = bytearray(pack_archive({"a": np.ones(1)}))
    buf[12] = 0xFF  # the name's first byte
    with pytest.raises(ArchiveFormatError, match="byte 12"):
        unpack_archive(bytes(buf))


def test_zero_dim_beside_huge_dims_rejected():
    # the element count is 0, so only numpy's size limit could catch it
    buf = (b"RACT" + struct.pack("<HIH", 1, 1, 1) + b"a"
           + struct.pack("<B3I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1))
    with pytest.raises(ArchiveFormatError, match="byte 14"):
        unpack_archive(buf)


@pytest.mark.parametrize("meta", [b"[1, 2]", b"\xff\xfe", b"{not json"])
def test_bad_checkpoint_metadata_names_offset(meta):
    buf = b"RCKP" + struct.pack("<I", len(meta)) + meta + pack_archive({})
    with pytest.raises(ArchiveFormatError, match="byte 8"):
        unpack_checkpoint(buf)


_TENSORS = {"emb": np.random.default_rng(0).normal(size=(2, 3)),
            "b": np.array([0.5, -1.0]), "s": np.zeros(())}
_VALID = {"ract": pack_archive(_TENSORS),
          "ckpt": pack_checkpoint(_TENSORS, {"config_hash": "abc", "seed": 0,
                                             "val_loss": 0.25})}


def _roundtrips_or_raises(kind, buf):
    """A corrupted file raises ArchiveFormatError, or what it reads as
    writes back and reads the same."""
    try:
        if kind == "ract":
            got = unpack_archive(buf)
        else:
            got, meta = unpack_checkpoint(buf)
    except ArchiveFormatError:
        return
    if kind == "ract":
        assert pack_archive(got) == buf
    else:
        again, again_meta = unpack_checkpoint(pack_checkpoint(got, meta))
        assert again_meta == meta
        assert pack_archive(again) == pack_archive(got)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_VALID)), st.data())
def test_single_byte_mutation_roundtrips_or_raises(kind, data):
    buf = bytearray(_VALID[kind])
    pos = data.draw(st.integers(0, len(buf) - 1), label="pos")
    buf[pos] = data.draw(st.integers(0, 255), label="byte")
    _roundtrips_or_raises(kind, bytes(buf))


def test_every_single_byte_mutation_roundtrips_or_raises():
    # a few of the 69k mutations reach numpy's dims limits
    for kind, valid in _VALID.items():
        for pos in range(len(valid)):
            for byte in range(256):
                buf = bytearray(valid)
                buf[pos] = byte
                _roundtrips_or_raises(kind, bytes(buf))


def test_duplicate_name_rejected():
    buf = pack_archive({"a": np.ones(1)})
    # splice the single-tensor record in twice
    head, record = buf[:10], buf[10:]
    doubled = head[:4] + buf[4:6] + (2).to_bytes(4, "little") + record + record
    with pytest.raises(ArchiveFormatError, match="duplicate"):
        unpack_archive(doubled)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"payload")
    assert open(path, "rb").read() == b"payload"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_overwrites_in_place(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"old")
    atomic_write_bytes(path, b"new")
    assert open(path, "rb").read() == b"new"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _feature_file(tmp_path):
    fpath = str(tmp_path / "f.ract")
    write_archive(fpath, {"features": np.ones((2, 3))})
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
    with pytest.raises(ManifestError, match="missing field"):
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


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_and_metadata(tmp_path, rng):
    tensors = {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=(3,))}
    meta = {"config_hash": "abc", "seed": 0, "epoch": 7, "val_loss": 0.25}
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, tensors, meta)
    out, got_meta = load_checkpoint(path)
    assert got_meta == meta
    for name in tensors:
        assert out[name].tobytes() == tensors[name].tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    atomic_write_bytes(path, b"JUNKJUNKJUNK")
    with pytest.raises(ArchiveFormatError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("size", [4, 5, 6, 7])
def test_checkpoint_truncated_in_metadata_length(size):
    buf = pack_checkpoint({}, {})[:size]
    with pytest.raises(ArchiveFormatError, match=re.escape(
            "truncated checkpoint: need 4 bytes for the metadata length at "
            f"byte 4, only {size - 4} available")):
        unpack_checkpoint(buf)


def test_checkpoint_metadata_is_sorted_json(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, {}, {"b": 1, "a": 2})
    raw = open(path, "rb").read()
    meta_len = int.from_bytes(raw[4:8], "little")
    meta = raw[8:8 + meta_len].decode()
    assert meta == json.dumps({"a": 2, "b": 1}, sort_keys=True)
