"""Dataset persistence, splitting, and batch loading.

Record file: back-to-back variable-length binary records, little-endian.

    scenario_id   u32
    ue_position   3 x f64  (meters)
    los_label     u8
    beam_label    u16
    n_paths       u16
    paths         n_paths x { gain re f32, gain im f32, delay_tap u16,
                              aod_az f32, aod_el f32, aoa_az f32, aoa_el f32,
                              is_los u8 }
    cir           n_rx*n_tx*n_taps complex64 (interleaved re/im f32),
                  rx-major, then tx, then tap

Only the delay-domain response is stored; the frequency response is always
derived at load time with sigproc.cir_to_csi, so the two views of a sample
can never drift apart.  The manifest is a JSON sidecar carrying the
dataset's layout and scenario environments, per-record byte offsets, the
train/val split, normalization statistics, and a sha256 checksum of the
record file.  build_dataset is the one way to turn generated scenarios into
a dataset: it splits and fits the statistics in memory, then writes the
record file and last the manifest, each once, with atomic_write.  So every
manifest carries the split and the statistics; load_manifest refuses one
without them.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import struct

import numpy as np

from .chanmodel import (ArrayGeometry, ChannelSample, Layout, PathParams, occupied_taps,
                        synthesize_cir)
from .errors import ConfigError, ContractError, DataError
from .nncore.checkpoint import atomic_write
from .rngstream import stream
from .sigproc import NormStats, cir_to_csi, fit_norm_stats, normalize, shape_input

MANIFEST_VERSION = 1

_REC_HEAD = struct.Struct("<I3dBHH")
_REC_PATH = struct.Struct("<ffH4fB")


def encode_record(sample: ChannelSample, cir: np.ndarray) -> bytes:
    """Serialize one sample with its complex64 delay-domain response."""
    parts = [_REC_HEAD.pack(sample.scenario_id, *sample.ue_position,
                            sample.los_label, sample.beam_label, len(sample.paths))]
    for p in sample.paths:
        parts.append(_REC_PATH.pack(p.gain.real, p.gain.imag, p.delay_tap,
                                    p.aod_az, p.aod_el, p.aoa_az, p.aoa_el,
                                    1 if p.is_los else 0))
    parts.append(np.ascontiguousarray(cir, dtype="<c8").tobytes())
    return b"".join(parts)


def decode_record(buf, offset: int, n_rx: int, n_tx: int, n_taps: int):
    """Returns (sample, cir complex64, next offset)."""
    scenario_id, ux, uy, uz, los, beam, n_paths = _REC_HEAD.unpack_from(buf, offset)
    offset += _REC_HEAD.size
    paths = []
    for _ in range(n_paths):
        re, im, tap, aod_az, aod_el, aoa_az, aoa_el, is_los = _REC_PATH.unpack_from(buf, offset)
        offset += _REC_PATH.size
        paths.append(PathParams(gain=complex(re, im), delay_tap=tap,
                                aod_az=aod_az, aod_el=aod_el,
                                aoa_az=aoa_az, aoa_el=aoa_el,
                                is_los=bool(is_los)))
    n = n_rx * n_tx * n_taps
    cir = np.frombuffer(buf, dtype="<c8", count=n, offset=offset).reshape(n_rx, n_tx, n_taps)
    offset += 8 * n
    sample = ChannelSample(scenario_id=scenario_id, ue_position=(ux, uy, uz),
                           paths=tuple(paths), los_label=bool(los), beam_label=beam)
    return sample, cir, offset


def _stored_cir(sample: ChannelSample, layout: Layout) -> np.ndarray:
    """The complex64 CIR a record stores: the sample's tap_channels at its
    occupied taps when generation kept them, else synthesize_cir; the two
    are bit-equal."""
    if sample.tap_channels is None:
        return synthesize_cir(sample, layout.tx_geometry, layout.rx_geometry,
                              layout.n_taps).astype(np.complex64)
    cir = np.zeros((layout.rx_geometry.n_elements, layout.tx_geometry.n_elements,
                    layout.n_taps), dtype=np.complex64)
    cir[:, :, occupied_taps(sample)] = sample.tap_channels
    return cir


def write_dataset(scenarios, manifest_path: str, records_path: str, seed: int,
                  train_fraction: float, layout: Layout) -> "Dataset":
    """Encode, split (with `seed`) and fit train-split statistics in memory,
    then write the record file and last the manifest; returns the Dataset,
    which reads the encoded records in place.

    `scenarios` is a list of (ScenarioConfig, samples) pairs as produced by
    generate_scenario on `layout`, the one layout every record shares.  The
    manifest, equal to load_manifest of the written file (so passed through
    JSON), records the layout's fields at its top level and each scenario's
    environment under `scenarios`.
    """
    if not scenarios:
        raise DataError("refusing to write an empty dataset")
    samples = [s for _, group in scenarios for s in group]
    cir_bytes = 8 * layout.rx_geometry.n_elements * layout.tx_geometry.n_elements * layout.n_taps
    sizes = [_REC_HEAD.size + _REC_PATH.size * len(s.paths) + cir_bytes for s in samples]
    offsets = list(itertools.accumulate(sizes, initial=0))
    blob = bytearray(offsets.pop())   # the total: sized once, no growth copies or slack
    view = memoryview(blob)
    for s, offset, size in zip(samples, offsets, sizes):
        view[offset:offset + size] = encode_record(s, _stored_cir(s, layout))

    manifest = json.loads(json.dumps({
        "format_version": MANIFEST_VERSION,
        "seed": int(seed),
        "records_file": os.path.basename(records_path),
        "records_sha256": hashlib.sha256(blob).hexdigest(),
        "n_records": len(offsets),
        "offsets": offsets,
        "scenario_ids": [s.scenario_id for s in samples],
        **dataclasses.asdict(layout),
        "codebook": {"rows": layout.tx_geometry.rows, "cols": layout.tx_geometry.cols,
                     "n_beams": layout.tx_geometry.n_elements},
        "scenarios": [dataclasses.asdict(cfg) for cfg, _ in scenarios],
    }))
    split_dataset(manifest, train_fraction, seed)
    dataset = Dataset(manifest, view.toreadonly())
    attach_norm_stats(dataset)
    atomic_write(records_path, blob)
    save_manifest(manifest, manifest_path)
    return dataset


def save_manifest(manifest: dict, path: str) -> None:
    atomic_write(path, json.dumps(manifest, indent=1).encode("utf-8"))


def load_manifest(path: str) -> dict:
    try:
        with open(path, "rb") as f:
            manifest = json.loads(f.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read manifest {path}: {e}") from e
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise DataError(f"{path}: unsupported manifest version {manifest.get('format_version')}")
    for key in ("split", "norm_stats"):
        if manifest.get(key) is None:
            raise DataError(f"{path}: manifest has no {key}; generate the dataset again")
    return manifest


class Dataset:
    """Read-only handle over a manifest + its records (bytes, read-only view)."""

    def __init__(self, manifest: dict, records_blob):
        self.manifest = manifest
        self._buf = records_blob
        self.n_rx = ArrayGeometry(**manifest["rx_geometry"]).n_elements
        self.n_tx = ArrayGeometry(**manifest["tx_geometry"]).n_elements
        self.n_taps = int(manifest["n_taps"])
        self.n_subcarriers = int(manifest["n_subcarriers"])

    @property
    def n_records(self) -> int:
        return int(self.manifest["n_records"])

    def record(self, index: int):
        """Returns (ChannelSample, cir complex64 [n_rx, n_tx, n_taps])."""
        if not 0 <= index < self.n_records:
            raise ContractError(f"record index {index} outside [0, {self.n_records})")
        sample, cir, _ = decode_record(self._buf, self.manifest["offsets"][index],
                                       self.n_rx, self.n_tx, self.n_taps)
        return sample, cir

    def split_flags(self) -> np.ndarray:
        return np.asarray(self.manifest["split"], dtype=np.int64)

    def train_indices(self) -> np.ndarray:
        return np.nonzero(self.split_flags() == 1)[0]

    def val_indices(self) -> np.ndarray:
        return np.nonzero(self.split_flags() == 0)[0]

    def norm_stats(self, modality: str) -> NormStats:
        d = self.manifest["norm_stats"][modality]
        return NormStats(vmin=d["vmin"], vmax=d["vmax"], mean=d["mean"], std=d["std"])


def open_dataset(manifest_path: str) -> Dataset:
    """Load a dataset; the record file next to the manifest must match the
    manifest's sha256 (any corruption fails the open)."""
    manifest = load_manifest(manifest_path)
    records_path = os.path.join(os.path.dirname(manifest_path), manifest["records_file"])
    try:
        with open(records_path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DataError(f"cannot read records {records_path}: {e}") from e
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["records_sha256"]:
        raise DataError(
            f"{records_path}: checksum mismatch (manifest {manifest['records_sha256'][:12]}..., "
            f"file {digest[:12]}...)")
    return Dataset(manifest, blob)


def split_dataset(manifest: dict, fraction: float, seed: int) -> dict:
    """Assign train/val flags by seeded uniform shuffle.

    floor(N * fraction) records become training (flag 1), the rest
    validation (flag 0).  Adds `split`, `split_fraction` and `split_seed` to
    the manifest in place and returns it; write_dataset calls it before
    anything is written.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
    n = int(manifest["n_records"])
    n_train = math.floor(n * fraction)
    perm = stream(seed, "dataset-split").permutation(n)
    flags = np.zeros(n, dtype=np.int64)
    flags[perm[:n_train]] = 1
    manifest["split"] = [int(f) for f in flags]
    manifest["split_fraction"] = float(fraction)
    manifest["split_seed"] = int(seed)
    return manifest


_TASK_LABELS = ("positioning", "beam", "los")

# Records per loader block: as many as keep one block's complex128 CSI
# (16 * n_pairs * n_subcarriers bytes a record) within this many bytes,
# and at least one.  A byte budget, not a record count, so paper-geometry
# records (1 MiB of CSI each) do not build blocks dozens of MiB large.
_BLOCK_BYTES = 1 << 20


def _block_records(dataset: Dataset) -> int:
    """Records per block of the loader for this dataset's geometry."""
    per_record = 16 * dataset.n_rx * dataset.n_tx * dataset.n_subcarriers
    return max(1, _BLOCK_BYTES // per_record)


def _checked_indices(dataset: Dataset, indices) -> np.ndarray:
    """Indices as int64, refusing any outside [0, n_records) before they
    index anything (a negative index would otherwise wrap to the end)."""
    indices = np.asarray(indices, dtype=np.int64)
    bad = indices[(indices < 0) | (indices >= dataset.n_records)]
    if bad.size:
        raise ContractError(f"record index {int(bad[0])} outside [0, {dataset.n_records})")
    return indices


def _blocks(dataset: Dataset, indices: np.ndarray, modality: str):
    """Yields (heads, tensor) for consecutive blocks of `indices`: each
    record's unpacked header and the block's complex128 modality tensor
    [B, n_rx, n_tx, bins], CSI by one cir_to_csi per block.  The CIR
    buffer is reused from block to block."""
    buf = dataset._buf
    offsets = dataset.manifest["offsets"]
    shape = (dataset.n_rx, dataset.n_tx, dataset.n_taps)
    n_cir = math.prod(shape)
    step = _block_records(dataset)
    cir = np.empty((min(step, len(indices)), n_cir), dtype=np.complex128)
    for lo in range(0, len(indices), step):
        heads = []
        for row, index in enumerate(indices[lo:lo + step].tolist()):
            offset = offsets[index]
            head = _REC_HEAD.unpack_from(buf, offset)
            offset += _REC_HEAD.size + head[-1] * _REC_PATH.size
            cir[row] = np.frombuffer(buf, dtype="<c8", count=n_cir, offset=offset)
            heads.append(head)
        tensor = cir[:len(heads)].reshape(len(heads), *shape)
        if modality == "csi":
            tensor = cir_to_csi(tensor, dataset.n_subcarriers)
        yield heads, tensor


def load_batch(dataset: Dataset, indices, modality: str, task=None):
    """Load records as a normalized model-input batch.

    Returns (x, labels): x is float32 [N, 2, n_rx*n_tx, bins], with bins
    n_taps for modality 'cir' (the stored taps) and n_subcarriers for 'csi'
    (derived on the fly from the stored delay response); labels is None
    without a task, float64 positions [N, 3] for 'positioning', int64 class
    ids for 'beam' / 'los'.  Records are decoded, transformed, shaped and
    normalized in blocks of at most _BLOCK_BYTES of CSI.
    """
    if modality not in ("cir", "csi"):
        raise ContractError(f"unknown modality '{modality}'")
    if task is not None and task not in _TASK_LABELS:
        raise ContractError(f"unknown task '{task}' (expected one of {_TASK_LABELS})")
    indices = _checked_indices(dataset, indices)
    stats = dataset.norm_stats(modality)

    bins = dataset.n_taps if modality == "cir" else dataset.n_subcarriers
    x = np.empty((len(indices), 2, dataset.n_rx * dataset.n_tx, bins), dtype=np.float32)
    heads = []
    for block_heads, tensor in _blocks(dataset, indices, modality):
        lo = len(heads)
        heads.extend(block_heads)
        x[lo:len(heads)] = normalize(shape_input(tensor), stats)

    # header fields: scenario_id, ux, uy, uz, los, beam, n_paths
    if task == "positioning":
        labels = np.array([h[1:4] for h in heads], dtype=np.float64).reshape(len(heads), 3)
    elif task == "beam":
        labels = np.array([h[5] for h in heads], dtype=np.int64)
    elif task == "los":
        labels = np.array([bool(h[4]) for h in heads], dtype=np.int64)
    else:
        labels = None
    return x, labels


def fit_split_stats(dataset: Dataset, indices, modality: str) -> NormStats:
    """Fit normalization statistics over training-split records only;
    passing a validation record is a contract violation (statistics must
    never see held-out data).  The fit reads the records once, in loader
    blocks, one record at a time, so its sums run in record order.  It
    counts exactly the values load_batch feeds the encoders: N * 2 *
    n_rx*n_tx * bins, bins being n_taps for 'cir' and n_subcarriers for
    'csi'."""
    indices = _checked_indices(dataset, indices)
    flags = dataset.split_flags()
    bad = indices[flags[indices] != 1]
    if bad.size:
        raise ContractError(
            f"normalization stats must be fit on the training split; "
            f"got validation record(s) {bad[:5].tolist()}")
    return fit_norm_stats(row for _, tensor in _blocks(dataset, indices, modality)
                          for row in shape_input(tensor))


def attach_norm_stats(dataset: Dataset) -> None:
    """Fit train-split stats for both modalities into the dataset's manifest."""
    train = dataset.train_indices()
    stats = {}
    for modality in ("cir", "csi"):
        s = fit_split_stats(dataset, train, modality)
        stats[modality] = {"vmin": s.vmin, "vmax": s.vmax, "mean": s.mean, "std": s.std}
    dataset.manifest["norm_stats"] = stats


def build_dataset(scenarios, out_dir: str, seed: int, train_fraction: float,
                  layout: Layout) -> Dataset:
    """write_dataset of `scenarios`, generated on `layout`, into
    out_dir/samples.bin and out_dir/manifest.json, split with `seed`;
    returns the dataset."""
    os.makedirs(out_dir, exist_ok=True)
    return write_dataset(scenarios, os.path.join(out_dir, "manifest.json"),
                         os.path.join(out_dir, "samples.bin"), seed, train_fraction, layout)
