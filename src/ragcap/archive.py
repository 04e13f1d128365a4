"""Bit-exact persistence: the named-tensor archive, which holds every
feature file, model checkpoint and index, and the dataset manifests.

Archive layout (all little-endian):
    magic "RACT" | version u16 | tensor_count u32
    | meta_len u32 | metadata, a UTF-8 JSON object        (version 2 only)
    per tensor: name_len u16 | name utf-8 | ndims u8 | dims u32 each
                | payload float64 row-major
Every archive is written as version 2; a version-1 archive reads with {}
metadata. Trailing bytes after the last tensor are rejected.
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
VERSION = 2


class ArchiveFormatError(ValueError):
    """Malformed archive, with a byte offset in the message."""


class ManifestError(ValueError):
    """Malformed JSON-lines input (a dataset manifest, candidates or
    references), with path:line in the message."""


# ---------------------------------------------------------------------------
# tensor archive
# ---------------------------------------------------------------------------

def pack_archive(tensors: dict[str, np.ndarray], meta: dict) -> bytes:
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<HII", VERSION, len(tensors),
                                len(meta_bytes)), meta_bytes]
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


def unpack_archive(buf: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """(tensors, metadata) of archive bytes."""
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
    if version not in (1, VERSION):
        raise ArchiveFormatError(f"unknown archive version {version} at byte 4")
    meta = {}
    if version == VERSION:
        need(off, 4, "metadata length")
        (meta_len,) = struct.unpack_from("<I", buf, off)
        off += 4
        need(off, meta_len, "metadata")
        try:
            meta = json.loads(buf[off:off + meta_len].decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
            raise ArchiveFormatError(
                f"metadata at byte {off} is not UTF-8 JSON: {e}") from e
        if not isinstance(meta, dict):
            raise ArchiveFormatError(
                f"metadata at byte {off} is not a JSON object")
        off += meta_len
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
    return out, meta


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


def write_archive(path: str, tensors: dict[str, np.ndarray], meta: dict):
    atomic_write_bytes(path, pack_archive(tensors, meta))


def _read(path: str, require) -> tuple[dict[str, np.ndarray], dict]:
    """(tensors, metadata) of the archive at `path`, which must hold the
    tensors named in `require`; errors name the file. read_archive and
    load_checkpoint each call it once, so bench/spans.py counts files once."""
    with open(path, "rb") as f:
        buf = f.read()
    try:
        tensors, meta = unpack_archive(buf)
    except ArchiveFormatError as e:
        raise ArchiveFormatError(f"{path}: {e}") from None
    for name in require:
        if name not in tensors:
            raise ArchiveFormatError(f"{path}: no tensor named {name!r}")
    return tensors, meta


def read_archive(path: str, require=()) -> dict[str, np.ndarray]:
    """The tensors of the archive at `path`, read as in _read."""
    return _read(path, require)[0]


def load_checkpoint(path: str, require) -> tuple[dict[str, np.ndarray], dict]:
    """(tensors, metadata) of the archive at `path`, read as in _read."""
    return _read(path, require)


def write_sidecar(path: str, obj: dict):
    """Write `obj` as the JSON sidecar `path`.json of the archive at
    `path`."""
    atomic_write_bytes(path + ".json",
                       json.dumps(obj, sort_keys=True).encode("utf-8"))


def read_sidecar(path: str, checks: dict) -> dict:
    """The JSON sidecar of the archive at `path`, checked by `checks` as in
    require_keys."""
    side_path = path + ".json"
    with open(side_path, "r", encoding="utf-8") as f:
        try:
            side = json.load(f)
        except ValueError as e:
            raise ArchiveFormatError(f"{side_path}: not JSON ({e})") from e
    require_keys(side_path, side, checks, ArchiveFormatError)
    return side


# ---------------------------------------------------------------------------
# JSON field checks, JSON-lines rows and the dataset manifest
# ---------------------------------------------------------------------------

SPLITS = ("train", "valid", "test")

# field checks for read_jsonl and require_keys: (valid, what a valid value
# is); bool is an int to Python but not a number to JSON
STRING = (lambda v: isinstance(v, str), "a string")
NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
          "a number")
IDS = (lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
       "a list of strings")
TEXTS = (lambda v: isinstance(v, list) and bool(v) and IDS[0](v),
         "a non-empty list of strings")
TEXT_LISTS = (lambda v: isinstance(v, list) and all(TEXTS[0](t) for t in v),
              "a list of non-empty lists of strings")
SPLIT = (lambda v: v in SPLITS, f"one of {', '.join(SPLITS)}")


def require_keys(where: str, obj, checks: dict, error: type):
    """Raise `error` naming `where` unless the JSON value `obj` is an object
    holding every field of `checks`, a map field -> (valid, want), with
    valid(value) true."""
    if not isinstance(obj, dict):
        raise error(f"{where}: not a JSON object")
    missing = [k for k in checks if k not in obj]
    if missing:
        raise error(f"{where}: missing key(s) {missing}")
    for name, (valid, want) in checks.items():
        if not valid(obj[name]):
            raise error(f"{where}: {name} is not {want}")


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
            require_keys(where, row, {"id": STRING, **checks},
                         ManifestError)
            rid = row["id"]
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
