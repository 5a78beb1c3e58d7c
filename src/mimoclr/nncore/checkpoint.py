"""Versioned binary checkpoint files.

Layout: 8-byte magic, u32 format version, u64 header length, UTF-8 JSON
header, then raw little-endian float32 tensor payloads in header order.
Everything numeric in the payload is stored as float32, so a save/load
round trip of float32 training state is bit-identical.
"""

import json
import os
import struct

import numpy as np

from ..errors import DataError

MAGIC = b"MCLRCKPT"
FORMAT_VERSION = 1


def atomic_write(path: str, data: bytes) -> None:
    """Replace `path` with `data` through a temp file and a rename in the
    target directory, so readers see the old file or the new one, never a
    partial write."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def write_json(path: str, obj) -> None:
    """Atomically write `obj` as indented JSON ending in a newline."""
    atomic_write(path, (json.dumps(obj, indent=1) + "\n").encode("utf-8"))


def write_jsonl(path: str, rows) -> None:
    """Atomically write `rows` as JSON lines, one object a line."""
    atomic_write(path, "".join(json.dumps(r) + "\n" for r in rows).encode("utf-8"))


def save_checkpoint(path: str, meta: dict, tensors: dict) -> None:
    """Write atomically (see atomic_write)."""
    entries = []
    blobs = []
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())  # C order regardless of input strides
    header = json.dumps({"meta": meta, "tensors": entries}).encode("utf-8")
    atomic_write(path, b"".join([MAGIC, struct.pack("<I", FORMAT_VERSION),
                                 struct.pack("<Q", len(header)), header, *blobs]))


def load_checkpoint(path: str):
    """Returns (meta, {name: float32 array}); rejects foreign or damaged files."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 12 or raw[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    off = len(MAGIC)
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if off + hlen > len(raw):
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt header ({e})") from e
    off += hlen
    tensors = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 4
        if off + nbytes > len(raw):
            raise DataError(f"{path}: truncated payload at tensor '{entry['name']}'")
        arr = np.frombuffer(raw[off:off + nbytes], dtype="<f4").reshape(shape)
        tensors[entry["name"]] = arr.astype(np.float32, copy=True)
        off += nbytes
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes after payload")
    return header["meta"], tensors
