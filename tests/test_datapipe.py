"""Record layout, manifests, splitting, and batch loading."""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from mimoclr import chanmodel, datapipe
from mimoclr.chanmodel import (ArrayGeometry, Layout, ScenarioConfig, generate_scenario,
                               synthesize_cir)
from mimoclr.config import dataset_config, load_config
from mimoclr.errors import ConfigError, ContractError, DataError
from mimoclr.sigproc import cir_to_csi, fit_norm_stats, shape_input


DESK = Layout()


def small_config(scenario_id=0, n_ue=30, **kw):
    return ScenarioConfig(scenario_id=scenario_id, n_ue=n_ue, **kw)


def small_scenarios(n_ue=30, seed=5):
    cfgs = [small_config(0, n_ue), small_config(1, n_ue, cell_radius=100.0)]
    return [(c, generate_scenario(c, DESK, seed)) for c in cfgs]


def build_dataset(tmp_path, n_ue=30, seed=5, fraction=0.8):
    scenarios = small_scenarios(n_ue, seed)
    ds = datapipe.build_dataset(scenarios, str(tmp_path), seed, fraction, DESK)
    return ds, scenarios, str(tmp_path / "manifest.json"), str(tmp_path / "samples.bin")


def _preset_scenarios(preset, n_ue, seed=7):
    """Every scenario of a preset at n_ue UEs, and the preset's dataset config."""
    cfg = dataset_config(load_config(preset))
    cfgs = [dataclasses.replace(c, n_ue=n_ue) for c in cfg.scenarios]
    return [(c, generate_scenario(c, cfg.geometry, seed)) for c in cfgs], cfg


def test_build_dataset_writes_each_file_once(tmp_path, monkeypatch):
    scenarios, cfg = _preset_scenarios("desk", 40)
    written, opened = [], []
    original = datapipe.atomic_write

    def counting_write(path, data):
        written.append(os.path.basename(path))
        return original(path, data)

    monkeypatch.setattr(datapipe, "atomic_write", counting_write)
    monkeypatch.setattr(datapipe, "open_dataset", lambda *a: opened.append(a))
    got = datapipe.build_dataset(scenarios, str(tmp_path), 7, cfg.train_fraction, cfg.geometry)
    monkeypatch.undo()
    # the records first, the manifest last, each once; samples.bin is never read back
    assert written == ["samples.bin", "manifest.json"] and opened == []

    for name, pinned in (("samples.bin", PINNED_RECORDS_SHA256),
                         ("manifest.json", PINNED_MANIFEST_SHA256)):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == pinned["desk", 40]
    assert got.manifest == datapipe.load_manifest(str(tmp_path / "manifest.json"))
    want = datapipe.open_dataset(str(tmp_path / "manifest.json"))
    indices = np.arange(got.n_records)
    for modality in ("cir", "csi"):
        for task in (None, "positioning", "beam", "los"):
            assert_same_batch(datapipe.load_batch(got, indices, modality, task=task),
                              datapipe.load_batch(want, indices, modality, task=task))
    # the records are read in place, not copied, and stay read-only
    _, cir = got.record(0)
    assert not cir.flags.writeable


def _failing_fit(records):
    raise KeyboardInterrupt("stopped during the statistics fit")


def test_build_stopped_in_the_stat_fit_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(datapipe, "fit_norm_stats", _failing_fit)
    with pytest.raises(KeyboardInterrupt):
        build_dataset(tmp_path / "fresh")
    assert not (tmp_path / "fresh" / "manifest.json").exists()
    assert not (tmp_path / "fresh" / "samples.bin").exists()


def test_build_stopped_in_the_stat_fit_keeps_the_old_dataset(tmp_path, monkeypatch):
    old, _, mpath, _ = build_dataset(tmp_path, seed=5)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(datapipe, "fit_norm_stats", _failing_fit)
    with pytest.raises(KeyboardInterrupt):
        build_dataset(tmp_path, seed=6)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert datapipe.open_dataset(mpath).manifest == old.manifest


def test_record_round_trip_bit_exact():
    cfg = small_config()
    samples = generate_scenario(cfg, DESK, 3)
    for s in samples[:10]:
        cir = synthesize_cir(s, DESK.tx_geometry, DESK.rx_geometry, DESK.n_taps)
        blob = datapipe.encode_record(s, cir.astype(np.complex64))
        s2, cir2, off = datapipe.decode_record(blob, 0, 2, 16, DESK.n_taps)
        assert off == len(blob)
        assert s2 == s
        assert np.array_equal(cir2, cir.astype(np.complex64))
        # re-encoding reproduces the exact bytes
        assert datapipe.encode_record(s2, cir2) == blob


def record_nbytes(n_paths, n_rx, n_tx, n_taps):
    """Record layout oracle: header 33 bytes, 27 per path, 8 per complex
    CIR entry."""
    return 33 + 27 * n_paths + 8 * n_rx * n_tx * n_taps


def test_record_size_closed_form():
    cfg = small_config(n_ue=100)
    samples = generate_scenario(cfg, DESK, 1)
    sizes = [len(datapipe.encode_record(
        s, synthesize_cir(s, DESK.tx_geometry, DESK.rx_geometry, DESK.n_taps).astype(np.complex64)))
        for s in samples]
    assert sizes == [record_nbytes(len(s.paths), 2, 16, DESK.n_taps) for s in samples]
    assert len({len(s.paths) for s in samples}) > 1


def test_write_read_dataset_round_trip(tmp_path):
    ds, scenarios, mpath, rpath = build_dataset(tmp_path)
    flat = [s for _, samples in scenarios for s in samples]
    assert ds.n_records == len(flat)
    for i, s in enumerate(flat):
        got, cir = ds.record(i)
        assert got == s
        want = synthesize_cir(s, DESK.tx_geometry, DESK.rx_geometry, DESK.n_taps)
        assert np.array_equal(cir, want.astype(np.complex64))


def test_generate_and_write_synthesize_each_cir_once(tmp_path, monkeypatch):
    # occupied_cirs is the one CIR builder: generation calls it for a whole
    # scenario, synthesize_cir (the writer's) for one sample.  A sample is
    # told by its paths, whose gains are drawn at random.
    calls = []
    original = chanmodel.occupied_cirs

    def counting(samples):
        samples = list(samples)
        calls.extend(paths for paths, _, _ in samples)
        return original(samples)

    monkeypatch.setattr(chanmodel, "occupied_cirs", counting)
    scenarios = small_scenarios(n_ue=12)
    ds = datapipe.write_dataset(scenarios, str(tmp_path / "m.json"),
                                str(tmp_path / "r.bin"), 5, 0.8, DESK)
    assert len(calls) == len(set(calls)) == ds.n_records == 24
    # samples without their tap channels (decoded records) are synthesized
    # by the writer, into the same bytes
    decoded = [(cfg, [ds.record(i)[0] for i in range(12 * k, 12 * k + 12)])
               for k, (cfg, _) in enumerate(scenarios)]
    assert all(s.tap_channels is None for _, samples in decoded for s in samples)
    again = datapipe.write_dataset(decoded, str(tmp_path / "m2.json"),
                                   str(tmp_path / "r2.bin"), 5, 0.8, DESK)
    assert len(calls) == 48
    assert calls[24:] == calls[:24]
    assert again.manifest["records_sha256"] == ds.manifest["records_sha256"]


def test_a_replaced_sample_stores_the_cir_of_its_own_paths(tmp_path):
    cfg, samples = small_scenarios(n_ue=12)[0]
    cut = [dataclasses.replace(s, paths=s.paths[:-1]) if len(s.paths) > 1 else s
           for s in samples]
    assert sum(len(a.paths) != len(b.paths) for a, b in zip(cut, samples)) > 6
    assert all(c.tap_channels is None for c, s in zip(cut, samples) if c is not s)
    ds = datapipe.write_dataset([(cfg, cut)], str(tmp_path / "m.json"),
                                str(tmp_path / "r.bin"), 5, 0.8, DESK)
    for i, s in enumerate(cut):
        got, cir = ds.record(i)
        assert got == s
        want = synthesize_cir(s, DESK.tx_geometry, DESK.rx_geometry, DESK.n_taps)
        assert np.array_equal(cir, want.astype(np.complex64))


def test_write_is_byte_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, _, m1, r1 = build_dataset(tmp_path / "a")
    _, _, m2, r2 = build_dataset(tmp_path / "b")
    assert open(r1, "rb").read() == open(r2, "rb").read()
    assert json.load(open(m1))["records_sha256"] == json.load(open(m2))["records_sha256"]


# The stored bytes of a small desk and a small paper-geometry dataset, every
# preset scenario at n_ue UEs, seed 7, split with the preset's
# train_fraction.  Path parameters, labels and CIRs all land in the records;
# offsets, split and normalization statistics in the manifest.  A change
# that moves any stored byte must update these values and say why.
PINNED_RECORDS_SHA256 = {
    ("desk", 40): "0d9ad36dd472b089ed90c2ce1b885bec3aac335eea73ddf2fd7581ddfd3935b4",
    ("paper", 10): "7fe101faad81f2cfead492d50c59ece7c7799c3f8649e707c3ba8115da59e208",
}
PINNED_MANIFEST_SHA256 = {
    ("desk", 40): "b8f83fdb8c9bdbb4d5db6b85e8e9aa20e67d2e7c620cd5fc576baa238eb46f2d",
    ("paper", 10): "b949be8edddc5f2bbace6c6a89ff0cfd67779851cd75935e05d1532fab715053",
}


@pytest.mark.parametrize("preset,n_ue", sorted(PINNED_RECORDS_SHA256))
def test_generated_records_keep_their_pinned_bytes(tmp_path, preset, n_ue):
    scenarios, cfg = _preset_scenarios(preset, n_ue)
    mpath = tmp_path / "manifest.json"
    ds = datapipe.write_dataset(scenarios, str(mpath), str(tmp_path / "samples.bin"), 7,
                                cfg.train_fraction, cfg.geometry)
    assert ds.manifest["records_sha256"] == PINNED_RECORDS_SHA256[preset, n_ue]
    assert hashlib.sha256(mpath.read_bytes()).hexdigest() == PINNED_MANIFEST_SHA256[preset, n_ue]


def test_checksum_detects_corruption(tmp_path):
    ds, _, mpath, rpath = build_dataset(tmp_path)
    blob = bytearray(open(rpath, "rb").read())
    blob[len(blob) // 2] ^= 0x01  # flip one bit
    open(rpath, "wb").write(bytes(blob))
    with pytest.raises(DataError, match="checksum"):
        datapipe.open_dataset(mpath)


def test_split_sizes_and_determinism():
    manifest = {"n_records": 1000}
    datapipe.split_dataset(manifest, 0.8, 4)
    flags = np.asarray(manifest["split"])
    assert flags.sum() == 800 and len(flags) == 1000
    m2 = {"n_records": 1000}
    datapipe.split_dataset(m2, 0.8, 4)
    assert manifest["split"] == m2["split"]
    m3 = {"n_records": 5}
    datapipe.split_dataset(m3, 0.8, 0)
    assert sum(m3["split"]) == 4  # floor(5 * 0.8)
    with pytest.raises(ConfigError):
        datapipe.split_dataset({"n_records": 10}, 1.0, 0)


def test_split_partition(tmp_path):
    ds, _, _, _ = build_dataset(tmp_path)
    train, val = ds.train_indices(), ds.val_indices()
    assert len(train) == math.floor(ds.n_records * 0.8)
    assert len(set(train) & set(val)) == 0
    assert len(train) + len(val) == ds.n_records


def test_load_batch_shapes_and_determinism(tmp_path):
    ds, _, _, _ = build_dataset(tmp_path)
    idx = ds.train_indices()[:16]
    x1, labels = datapipe.load_batch(ds, idx, "csi", task="beam")
    assert x1.shape == (16, 2, 32, 64)
    assert x1.dtype == np.float32
    assert labels.shape == (16,) and labels.dtype == np.int64
    x2, _ = datapipe.load_batch(ds, idx, "csi", task="beam")
    assert np.array_equal(x1, x2)


def test_cir_view_is_the_stored_taps(mini_dataset):
    ds = mini_dataset
    idx = ds.train_indices()[:16]
    x_cir, _ = datapipe.load_batch(ds, idx, "cir")
    x_csi, _ = datapipe.load_batch(ds, idx, "csi")
    assert x_cir.shape == (16, 2, ds.n_rx * ds.n_tx, ds.n_taps) == (16, 2, 32, 32)
    assert x_csi.shape == (16, 2, 32, ds.n_subcarriers) == (16, 2, 32, 64)
    stats = ds.norm_stats("cir")
    raw = (x_cir.astype(np.float64) * stats.std + stats.mean) * (stats.vmax - stats.vmin) \
        + stats.vmin
    _, cir = ds.record(int(idx[3]))
    assert np.allclose(raw[3, 0], cir.real.reshape(32, 32), atol=1e-6)
    assert np.allclose(raw[3, 1], cir.imag.reshape(32, 32), atol=1e-6)


def test_load_batch_labels_match_records(tmp_path):
    ds, _, _, _ = build_dataset(tmp_path)
    idx = np.arange(8)
    _, beams = datapipe.load_batch(ds, idx, "cir", task="beam")
    _, los = datapipe.load_batch(ds, idx, "cir", task="los")
    _, pos = datapipe.load_batch(ds, idx, "cir", task="positioning")
    for row, i in enumerate(idx):
        s, _ = ds.record(int(i))
        assert beams[row] == s.beam_label
        assert los[row] == int(s.los_label)
        assert np.allclose(pos[row], s.ue_position)


def test_loaded_csi_is_dft_of_stored_cir(tmp_path):
    # Parseval between the two loaded modalities, checked pre-normalization
    ds, _, _, _ = build_dataset(tmp_path)
    for i in range(5):
        _, cir = ds.record(i)
        csi = cir_to_csi(cir.astype(np.complex128), ds.n_subcarriers)
        ratio = np.sum(np.abs(csi) ** 2) / np.sum(np.abs(cir) ** 2)
        # stored CIR is float32, so Parseval holds to single precision here
        assert ratio == pytest.approx(ds.n_subcarriers, rel=1e-5)
        # and the shaped/normalized batch is an affine image of that CSI
        x, _ = datapipe.load_batch(ds, [i], "csi")
        stats = ds.norm_stats("csi")
        want = (shape_input(csi) / (stats.vmax - stats.vmin)
                - stats.vmin / (stats.vmax - stats.vmin) - stats.mean) / stats.std
        assert np.allclose(x[0], want, atol=1e-6)


def test_load_batch_rejects_unknown(tmp_path):
    ds, _, _, _ = build_dataset(tmp_path)
    with pytest.raises(ContractError):
        datapipe.load_batch(ds, [0], "spectrogram")
    with pytest.raises(ContractError):
        datapipe.load_batch(ds, [0], "csi", task="regression")


def test_load_batch_rejects_out_of_range_indices(mini_dataset):
    # a negative index must not wrap around to the last record
    for modality in ("cir", "csi"):
        for bad in ([-1], [0, mini_dataset.n_records]):
            with pytest.raises(ContractError, match="outside"):
                datapipe.load_batch(mini_dataset, bad, modality)
    with pytest.raises(ContractError, match="outside"):
        datapipe.fit_split_stats(mini_dataset, [-1], "csi")


# A per-record loader, kept as the oracle for the block loader: the CSI view
# is the K-point FFT of the stored taps, the CIR view the taps themselves.
def _reference_shaped(ds, indices, modality):
    p = ds.n_rx * ds.n_tx
    k = ds.n_subcarriers if modality == "csi" else ds.n_taps
    xs = np.empty((len(indices), 2, p, k), dtype=np.float64)
    samples = []
    for row, idx in enumerate(indices):
        sample, cir = ds.record(int(idx))
        tensor = cir.astype(np.complex128)
        if modality == "csi":
            tensor = np.fft.fft(tensor, n=k, axis=-1)
        flat = tensor.reshape(p, k)
        xs[row, 0] = flat.real
        xs[row, 1] = flat.imag
        samples.append(sample)
    return xs, samples


def _reference_load_batch(ds, indices, modality, task):
    xs, samples = _reference_shaped(ds, indices, modality)
    st = ds.norm_stats(modality)
    x = (((xs - st.vmin) / (st.vmax - st.vmin) - st.mean) / st.std).astype(np.float32)
    positions = np.empty((len(samples), 3), dtype=np.float64)
    beams = np.empty(len(samples), dtype=np.int64)
    los = np.empty(len(samples), dtype=np.int64)
    for row, s in enumerate(samples):
        positions[row] = s.ue_position
        beams[row] = s.beam_label
        los[row] = s.los_label
    return x, {"positioning": positions, "beam": beams, "los": los, None: None}[task]


def assert_same_batch(got, want):
    (x, labels), (x_ref, labels_ref) = got, want
    assert x.dtype == x_ref.dtype and x.shape == x_ref.shape
    assert np.array_equal(x, x_ref)
    if labels_ref is None:
        assert labels is None
    else:
        assert labels.dtype == labels_ref.dtype and labels.shape == labels_ref.shape
        assert np.array_equal(labels, labels_ref)


LOADER_INDICES = {
    "empty": [], "one": [7], "block_minus_one": list(range(31)),
    "block": list(range(32)), "block_plus_one": list(range(33)),
    "unsorted_repeated": [int(i) for i in np.random.default_rng(3).integers(0, 120, 77)],
}


@pytest.mark.parametrize("modality", ["cir", "csi"])
@pytest.mark.parametrize("task", [None, "positioning", "beam", "los"])
@pytest.mark.parametrize("case", sorted(LOADER_INDICES))
def test_block_loader_equals_per_record_loop(mini_dataset, modality, task, case):
    indices = LOADER_INDICES[case]
    assert datapipe._block_records(mini_dataset) == 32
    assert_same_batch(datapipe.load_batch(mini_dataset, indices, modality, task=task),
                      _reference_load_batch(mini_dataset, indices, modality, task))


@pytest.fixture(scope="module")
def paper_geometry_dataset(tmp_path_factory):
    """Five records at the paper preset's geometry (P = 256, K = 256)."""
    cfg = small_config(0, 5)
    layout = Layout(tx_geometry=ArrayGeometry(8, 8), rx_geometry=ArrayGeometry(2, 2),
                    n_taps=64, n_subcarriers=256, bandwidth_hz=2e7)
    root = tmp_path_factory.mktemp("paper_geometry")
    return datapipe.build_dataset([(cfg, generate_scenario(cfg, layout, 2))], str(root), 2, 0.8,
                                  layout)


@pytest.mark.parametrize("modality", ["cir", "csi"])
def test_block_loader_equals_loop_at_paper_geometry(paper_geometry_dataset, modality):
    ds = paper_geometry_dataset
    assert datapipe._block_records(ds) == 1
    for task in (None, "positioning", "beam", "los"):
        indices = [4, 0, 2, 2]
        assert_same_batch(datapipe.load_batch(ds, indices, modality, task=task),
                          _reference_load_batch(ds, indices, modality, task))
    train = ds.train_indices()
    assert datapipe.fit_split_stats(ds, train, modality) == fit_norm_stats(
        _reference_shaped(ds, train, modality)[0])


@pytest.mark.parametrize("modality", ["cir", "csi"])
def test_streamed_stat_fit_equals_full_array_fit(mini_dataset, modality):
    train = mini_dataset.train_indices()
    assert len(train) > 2 * datapipe._block_records(mini_dataset)
    want = fit_norm_stats(_reference_shaped(mini_dataset, train, modality)[0])
    assert datapipe.fit_split_stats(mini_dataset, train, modality) == want


def _unpadded_split(ds, modality):
    """The training split's encoder inputs, built directly with numpy."""
    cirs = np.stack([ds.record(int(i))[1] for i in ds.train_indices()]).astype(np.complex128)
    if modality == "csi":
        cirs = np.fft.fft(cirs, n=ds.n_subcarriers, axis=-1)
    return np.stack([cirs.real, cirs.imag], axis=1).reshape(
        len(cirs), 2, ds.n_rx * ds.n_tx, cirs.shape[-1])


@pytest.mark.parametrize("geometry", ["mini", "paper"])
@pytest.mark.parametrize("modality", ["cir", "csi"])
def test_stat_fit_counts_the_unpadded_values(geometry, modality, request, monkeypatch):
    ds = request.getfixturevalue({"mini": "mini_dataset",
                                  "paper": "paper_geometry_dataset"}[geometry])
    counted = []
    original = datapipe.fit_norm_stats

    def counting(records):
        return original(counted.append(r.size) or r for r in records)

    monkeypatch.setattr(datapipe, "fit_norm_stats", counting)
    got = datapipe.fit_split_stats(ds, ds.train_indices(), modality)
    bins = ds.n_taps if modality == "cir" else ds.n_subcarriers
    n = len(ds.train_indices())
    assert sum(counted) == n * 2 * ds.n_rx * ds.n_tx * bins
    x = _unpadded_split(ds, modality)
    assert x.size == sum(counted)
    span = x.max() - x.min()
    assert (got.vmin, got.vmax) == (x.min(), x.max())
    assert got.mean == pytest.approx((np.mean(x) - x.min()) / span, rel=1e-12)
    assert got.std == pytest.approx(np.std(x) / span, rel=1e-12)
    assert ds.norm_stats(modality) == got


def test_attach_norm_stats_ffts_each_training_block_once(mini_dataset, monkeypatch):
    calls = []
    original = datapipe.cir_to_csi

    def counting(cir, n_subcarriers):
        calls.append(cir.shape[0])
        return original(cir, n_subcarriers)

    before = dict(mini_dataset.manifest["norm_stats"])
    monkeypatch.setattr(datapipe, "cir_to_csi", counting)
    datapipe.attach_norm_stats(mini_dataset)
    n_train, step = len(mini_dataset.train_indices()), datapipe._block_records(mini_dataset)
    assert len(calls) == -(-n_train // step) and sum(calls) == n_train
    assert mini_dataset.manifest["norm_stats"] == before


def test_stat_fitting_rejects_validation_records(tmp_path):
    ds, _, _, _ = build_dataset(tmp_path)
    val = ds.val_indices()
    with pytest.raises(ContractError, match="training split"):
        datapipe.fit_split_stats(ds, [int(val[0])], "csi")
    stats = datapipe.fit_split_stats(ds, ds.train_indices(), "csi")
    assert stats.std > 0


@pytest.mark.parametrize("key", ["split", "norm_stats"])
def test_manifest_without_split_or_stats_is_refused(tmp_path, key):
    _, _, mpath, _ = build_dataset(tmp_path)
    m = json.load(open(mpath))
    m[key] = None
    json.dump(m, open(mpath, "w"))
    with pytest.raises(DataError, match=f"no {key}; generate the dataset again"):
        datapipe.open_dataset(mpath)


def test_manifest_version_checked(tmp_path):
    _, _, mpath, _ = build_dataset(tmp_path)
    m = json.load(open(mpath))
    m["format_version"] = 999
    json.dump(m, open(mpath, "w"))
    with pytest.raises(DataError, match="version"):
        datapipe.open_dataset(mpath)
