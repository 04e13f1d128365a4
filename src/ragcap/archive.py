"""Bit-exact persistence: the named-tensor archive, dataset manifests, and
training checkpoints.

Archive layout (all little-endian):
    magic "RACT" | version u16 | tensor_count u32
    per tensor: name_len u16 | name utf-8 | ndims u8 | dims u32 each
                | payload float64 row-major
Trailing bytes after the last tensor are rejected.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .metrics import normalize_words

MAGIC = b"RACT"
VERSION = 1

CKPT_MAGIC = b"RCKP"


class ArchiveFormatError(ValueError):
    """Malformed archive, with a byte offset in the message."""


class ManifestError(ValueError):
    """Malformed JSON-lines input (a dataset manifest, candidates or
    references), with path:line in the message."""


# ---------------------------------------------------------------------------
# tensor archive
# ---------------------------------------------------------------------------

def pack_archive(tensors: dict[str, np.ndarray]) -> bytes:
    parts = [MAGIC, struct.pack("<HI", VERSION, len(tensors))]
    seen = set()
    for name, arr in tensors.items():
        if name in seen:
            raise ArchiveFormatError(f"duplicate tensor name {name!r}")
        seen.add(name)
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ArchiveFormatError(f"tensor name too long: {name!r}")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    return b"".join(parts)


def unpack_archive(buf: bytes) -> dict[str, np.ndarray]:
    def need(offset, n, what):
        if offset + n > len(buf):
            raise ArchiveFormatError(
                f"truncated archive: need {n} bytes for {what} at byte {offset}, "
                f"only {len(buf) - offset} available")

    need(0, 4, "magic")
    if buf[:4] != MAGIC:
        raise ArchiveFormatError(f"bad magic {buf[:4]!r} at byte 0")
    off = 4
    need(off, 6, "header")
    version, count = struct.unpack_from("<HI", buf, off)
    off += 6
    if version != VERSION:
        raise ArchiveFormatError(f"unknown archive version {version} at byte 4")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        need(off, 2, "name length")
        (name_len,) = struct.unpack_from("<H", buf, off)
        off += 2
        need(off, name_len, "name")
        try:
            name = buf[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise ArchiveFormatError(
                f"tensor name is not UTF-8 at byte {off}") from e
        off += name_len
        if name in out:
            raise ArchiveFormatError(f"duplicate tensor name {name!r} at byte {off}")
        need(off, 1, "ndims")
        ndims = buf[off]
        off += 1
        need(off, 4 * ndims, "dims")
        dims = struct.unpack_from(f"<{ndims}I", buf, off)
        dims_at = off
        off += 4 * ndims
        n_elems = math.prod(dims)
        need(off, 8 * n_elems, f"payload of {name!r}")
        arr = np.frombuffer(buf, dtype="<f8", count=n_elems, offset=off)
        off += 8 * n_elems
        try:  # beside a zero dim, dims numpy cannot shape pass the checks
            out[name] = arr.reshape(dims).astype(np.float64)
        except ValueError as e:
            raise ArchiveFormatError(f"unsupported dims {dims} of {name!r} "
                                     f"at byte {dims_at}") from e
    if off != len(buf):
        raise ArchiveFormatError(
            f"{len(buf) - off} trailing bytes after byte {off}")
    return out


def atomic_write_bytes(path: str, payload: bytes):
    """Write via a temp file + rename so readers never see partial data."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_archive(path: str, tensors: dict[str, np.ndarray]):
    atomic_write_bytes(path, pack_archive(tensors))


def read_archive(path: str, require=()) -> dict[str, np.ndarray]:
    """The tensors of the archive at `path`, which must hold the names in
    `require`. Format errors name the file."""
    with open(path, "rb") as f:
        buf = f.read()
    try:
        tensors = unpack_archive(buf)
    except ArchiveFormatError as e:
        raise ArchiveFormatError(f"{path}: {e}") from None
    for name in require:
        if name not in tensors:
            raise ArchiveFormatError(f"{path}: no tensor named {name!r}")
    return tensors


def require_keys(where: str, obj, keys):
    """Raise ArchiveFormatError naming `where` unless the JSON value `obj` is
    an object holding every key in `keys`."""
    if not isinstance(obj, dict):
        raise ArchiveFormatError(f"{where}: not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ArchiveFormatError(f"{where}: missing key(s) {missing}")


def write_sidecar(path: str, obj: dict):
    """Write `obj` as the JSON sidecar `path`.json of the archive at
    `path`."""
    atomic_write_bytes(path + ".json",
                       json.dumps(obj, sort_keys=True).encode("utf-8"))


def read_sidecar(path: str, keys) -> dict:
    """The JSON sidecar of the archive at `path`, which must hold `keys`."""
    side_path = path + ".json"
    with open(side_path, "r", encoding="utf-8") as f:
        try:
            side = json.load(f)
        except ValueError as e:
            raise ArchiveFormatError(f"{side_path}: not JSON ({e})") from e
    require_keys(side_path, side, keys)
    return side


# ---------------------------------------------------------------------------
# JSON-lines rows and the dataset manifest
# ---------------------------------------------------------------------------

SPLITS = ("train", "valid", "test")

# field checks for read_jsonl: (valid, what a valid value is)
STRING = (lambda v: isinstance(v, str), "a string")
TEXTS = (lambda v: (isinstance(v, list) and bool(v)
                    and all(isinstance(t, str) for t in v)),
         "a non-empty list of strings")
SPLIT = (lambda v: v in SPLITS, f"one of {', '.join(SPLITS)}")


def read_jsonl(path: str, checks: dict) -> dict:
    """id -> (line number, row) for the rows of the JSON-lines file at
    `path`, in file order. Each row must be a JSON object with a string
    `id`, unique in the file, and every field of `checks`, a map field ->
    (valid, want), with valid(value) true. Every failure is a ManifestError
    naming path:line."""
    rows = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise ManifestError(f"{where}: invalid JSON ({e})") from e
            if not isinstance(row, dict):
                raise ManifestError(f"{where}: not a JSON object")
            missing = [k for k in ("id", *checks) if k not in row]
            if missing:
                raise ManifestError(f"{where}: missing field(s) {missing}")
            rid = row["id"]
            if not isinstance(rid, str):
                raise ManifestError(f"{where}: id is not a string")
            for name, (valid, want) in checks.items():
                if not valid(row[name]):
                    raise ManifestError(f"{where}: {name} is not {want}")
            if rid in rows:
                raise ManifestError(f"{where}: duplicate id {rid!r} (first "
                                    f"on line {rows[rid][0]})")
            rows[rid] = (lineno, row)
    return rows


class ManifestRow:
    __slots__ = ("id", "split", "feature_path", "captions")

    def __init__(self, id, split, feature_path, captions):
        self.id = id
        self.split = split
        self.feature_path = feature_path
        self.captions = captions

    def to_json(self) -> str:
        return json.dumps({"id": self.id, "split": self.split,
                           "feature_path": self.feature_path,
                           "captions": self.captions}, sort_keys=True)


def write_manifest(path: str, rows: list[ManifestRow]):
    atomic_write_bytes(path, ("\n".join(r.to_json() for r in rows) + "\n")
                       .encode("utf-8"))


def load_manifest(path: str, check_features: bool = True) -> list[ManifestRow]:
    if not os.path.exists(path):
        raise ManifestError(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    rows: list[ManifestRow] = []
    for rid, (lineno, rec) in read_jsonl(path, {
            "split": SPLIT, "feature_path": STRING,
            "captions": TEXTS}).items():
        caps = rec["captions"]
        # the primary caption is scored token by token for similarity
        if not normalize_words(caps[0]):
            raise ManifestError(f"{path}:{lineno}: caption {caps[0]!r} "
                                "has no words")
        fpath = os.path.join(base, rec["feature_path"])
        if check_features and not os.path.exists(fpath):
            raise ManifestError(
                f"{path}:{lineno}: feature_path not resolvable: "
                f"{rec['feature_path']!r}")
        rows.append(ManifestRow(rid, rec["split"], fpath, caps))
    if not any(r.split == "train" for r in rows):
        raise ManifestError("manifest has no train rows")
    return rows


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def pack_checkpoint(tensors: dict[str, np.ndarray], metadata: dict) -> bytes:
    meta = json.dumps(metadata, sort_keys=True).encode("utf-8")
    body = pack_archive(tensors)
    return CKPT_MAGIC + struct.pack("<I", len(meta)) + meta + body


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], metadata: dict):
    atomic_write_bytes(path, pack_checkpoint(tensors, metadata))


def unpack_checkpoint(buf: bytes):
    """Returns (tensors, metadata) from checkpoint bytes."""
    if buf[:4] != CKPT_MAGIC:
        raise ArchiveFormatError("not a checkpoint: bad magic at byte 0")
    if len(buf) < 8:
        raise ArchiveFormatError(
            "truncated checkpoint: need 4 bytes for the metadata length at "
            f"byte 4, only {len(buf) - 4} available")
    (meta_len,) = struct.unpack_from("<I", buf, 4)
    if 8 + meta_len > len(buf):
        raise ArchiveFormatError(
            f"truncated checkpoint: metadata of {meta_len} bytes at byte 8")
    try:
        metadata = json.loads(buf[8:8 + meta_len].decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise ArchiveFormatError(
            f"checkpoint metadata at byte 8 is not UTF-8 JSON: {e}") from e
    if not isinstance(metadata, dict):
        raise ArchiveFormatError(
            "checkpoint metadata at byte 8 is not a JSON object")
    return unpack_archive(buf[8 + meta_len:]), metadata


def load_checkpoint(path: str):
    """Returns (tensors, metadata). Format errors name the file."""
    with open(path, "rb") as f:
        buf = f.read()
    try:
        tensors, metadata = unpack_checkpoint(buf)
    except ArchiveFormatError as e:
        raise ArchiveFormatError(f"{path}: {e}") from None
    return tensors, metadata

