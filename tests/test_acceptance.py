"""End-to-end acceptance suite.

Each test prints one PASS line with its measured values; the heavyweight
desk-scale fixtures (dataset, pretraining run) live in conftest.py and are
shared across tests.  Tests that build desk-scale data are marked `slow`;
`pytest -m "not slow"` leaves them out.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
import yaml

from mimoclr import datapipe, finetune as ft, pretrain as pt
from mimoclr.chanmodel import (build_codebook, generate_scenario, optimal_beam,
                               synthesize_cir, synthesize_csi)
from mimoclr.cli import main
from mimoclr.config import dataset_config, finetune_config, load_config, pretrain_config
from mimoclr.nncore import tensor as T
from mimoclr.nncore.layers import Encoder, EncoderConfig, Head, HeadConfig, prefixed
from mimoclr.nncore.losses import contrastive_loss, cross_entropy_loss, mse_loss
from mimoclr.nncore.tensor import Tensor
from mimoclr.sigproc import cir_to_csi

from gradcheck import gradient_check


def desk_samples(n, seed=0):
    """The desk layout and the first n samples drawn round-robin from the
    desk scenarios."""
    ds = dataset_config(load_config("desk"))
    cfgs = ds.scenarios
    out = []
    per = n // len(cfgs) + 1
    for c in cfgs:
        small = dataclasses.replace(c, n_ue=per)
        out.extend(generate_scenario(small, ds.geometry, seed))
    return ds.geometry, out[:n]


# --- 1. Fourier duality ----------------------------------------------------

@pytest.mark.slow
def test_fourier_duality_suite():
    t0 = time.monotonic()
    worst_err = 0.0
    worst_parseval = 0.0
    layout, samples = desk_samples(1000)
    for s in samples:
        cir = synthesize_cir(s, layout.tx_geometry, layout.rx_geometry, layout.n_taps)
        csi = synthesize_csi(s, layout.tx_geometry, layout.rx_geometry, layout.n_subcarriers)
        err = np.max(np.abs(csi - cir_to_csi(cir, layout.n_subcarriers)))
        ratio = np.sum(np.abs(csi) ** 2) / np.sum(np.abs(cir) ** 2)
        worst_err = max(worst_err, err)
        worst_parseval = max(worst_parseval,
                             abs(ratio - layout.n_subcarriers) / layout.n_subcarriers)
    wall = time.monotonic() - t0
    assert worst_err < 1e-9
    assert worst_parseval < 1e-9
    assert wall < 30.0
    print(f"\nPASS duality: 1000 samples, max |CSI - DFT(CIR)| {worst_err:.3e}, "
          f"Parseval rel dev {worst_parseval:.3e}, {wall:.1f}s")


# --- 2. Gradient suite -----------------------------------------------------

def min_kink_distance(enc, head, x):
    """Smallest |pre-activation| feeding any relu in the encoder + head stack.

    Central differences are only trustworthy when no relu input sits within
    ~step of zero, otherwise the probe straddles the kink and measures a
    one-sided slope.
    """
    h = Tensor(x)
    m = np.inf
    for i in range(len(enc.config.widths)):
        h = T.conv2d(h, enc.params[f"conv{i}.w"], enc.params[f"conv{i}.b"])
        m = min(m, float(np.min(np.abs(h.data))))
        h = T.relu(h)
        h = T.avg_pool2d(h)
    emb = enc.forward(Tensor(x)).data
    pre = emb @ head.params["fc1.w"].data + head.params["fc1.b"].data
    return min(m, float(np.min(np.abs(pre))))


def test_gradient_suite():
    t0 = time.monotonic()
    worst = 0.0

    for seed in range(5):
        rng = np.random.default_rng(seed)

        z = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        r = gradient_check(lambda: contrastive_loss(z, w, 0.3), {"z": z, "w": w})
        worst = max(worst, r.max_rel_err)

        logits = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=7)
        r = gradient_check(lambda: cross_entropy_loss(logits, labels), {"l": logits})
        worst = max(worst, r.max_rel_err)

        pred = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        tgt = Tensor(rng.normal(size=(6, 3)))
        r = gradient_check(lambda: mse_loss(pred, tgt), {"p": pred})
        worst = max(worst, r.max_rel_err)

        enc_cfg = EncoderConfig(in_height=8, in_width=8, widths=(3, 5),
                                kernel_size=3, embed_dim=6)
        enc = Encoder.init(enc_cfg, rng, dtype=np.float64)
        head = Head.init(HeadConfig(in_dim=6, hidden_dim=4, out_dim=2), rng,
                         dtype=np.float64)
        y = Tensor(rng.normal(size=(3, 2)))
        x = rng.normal(size=(3, 2, 8, 8))
        while min_kink_distance(enc, head, x) < 1e-3:
            x = rng.normal(size=(3, 2, 8, 8))
        params = prefixed(enc.params, "enc.")
        params.update(prefixed(head.params, "head."))
        r = gradient_check(lambda: mse_loss(head.forward(enc.forward(Tensor(x))), y),
                           params)
        worst = max(worst, r.max_rel_err)

    wall = time.monotonic() - t0
    assert worst < 1e-4
    assert wall < 120.0
    print(f"\nPASS gradients: 5 seeds x 4 losses, max rel err {worst:.3e}, {wall:.1f}s")


# --- 3. Beam-label oracle --------------------------------------------------

def oracle_steering(geom, azimuth, elevation):
    n = geom.rows * geom.cols
    v = np.empty(n, dtype=np.complex128)
    for r in range(geom.rows):
        for c in range(geom.cols):
            phase = 2.0 * np.pi * geom.spacing * (
                r * np.sin(elevation) + c * np.cos(elevation) * np.sin(azimuth))
            v[r * geom.cols + c] = np.exp(1j * phase)
    return v / np.sqrt(n)


def oracle_best_beam(h, codebook_matrix):
    powers = np.empty(codebook_matrix.shape[1])
    for b in range(codebook_matrix.shape[1]):
        s = codebook_matrix[:, b]
        total = 0.0
        for k in range(h.shape[2]):
            y = h[:, :, k] @ s
            total += float(np.sum(np.abs(y) ** 2))
        powers[b] = total
    return int(np.argmax(powers))


def oracle_dft_codebook(geom):
    def dft(n):
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)
    return np.kron(dft(geom.rows), dft(geom.cols))


@pytest.mark.slow
def test_beam_label_oracle():
    layout, samples = desk_samples(1000, seed=17)
    n_checked = 0
    for s in samples:
        H = synthesize_csi(s, layout.tx_geometry, layout.rx_geometry, layout.n_subcarriers)
        wide = oracle_dft_codebook(layout.tx_geometry)
        assert s.beam_label == oracle_best_beam(H, wide)
        n_checked += 1
    assert n_checked == 1000

    # single-path channel aligned with beam b must select b, for every beam
    cb = build_codebook(layout.tx_geometry)
    a_rx = oracle_steering(layout.rx_geometry, 0.4, -0.1)
    for b in range(cb.n_beams):
        h = np.zeros((layout.rx_geometry.n_elements, layout.tx_geometry.n_elements, 4),
                     dtype=np.complex128)
        h[:, :, 2] = np.outer(a_rx, np.conj(cb.vectors[:, b]))
        assert optimal_beam(h, cb) == b
    print(f"\nPASS beam oracle: 1000/1000 stored labels match the exhaustive "
          f"sweep; aligned construction recovers all {cb.n_beams} beams")


# --- 4. Contrastive sanity -------------------------------------------------

@pytest.mark.slow
def test_contrastive_sanity(desk_dataset):
    cfg = pretrain_config(load_config("desk"))
    state = pt.init_pretrain_state(dataclasses.replace(cfg, tau_init=1.0),
                                   desk_dataset.n_rx * desk_dataset.n_tx,
                                   desk_dataset.n_subcarriers)
    pool = pt.load_pairs(desk_dataset, desk_dataset.train_indices())

    loss64, _ = pt.evaluate_pairs(state, pt.load_pairs(desk_dataset,
                                                       desk_dataset.train_indices()[:64]), 64)
    assert abs(loss64 - math.log(64)) < 0.2

    z_all = pt.encode_batch(state.csi_encoder, pool.x_csi)
    w_all = pt.encode_batch(state.cir_encoder, pool.x_cir)
    rng = np.random.default_rng(7)
    accs = []
    for _ in range(50):
        idx = rng.choice(pool.n, size=32, replace=False)
        a = z_all[idx] / np.linalg.norm(z_all[idx], axis=1, keepdims=True)
        b = w_all[idx] / np.linalg.norm(w_all[idx], axis=1, keepdims=True)
        accs.append(np.mean(np.argmax(a @ b.T, axis=1) == np.arange(32)))
    mean_acc = float(np.mean(accs))
    assert abs(mean_acc - 1.0 / 32) < 0.03

    single = contrastive_loss(Tensor(z_all[:1]), Tensor(w_all[:1]), 1.0)
    assert float(single.data) == 0.0

    print(f"\nPASS contrastive sanity: untrained loss {loss64:.3f} "
          f"(log 64 = {math.log(64):.3f}), retrieval {mean_acc:.4f} "
          f"(chance {1/32:.4f}), single-pair loss exactly 0")


# --- 5. Pretraining learnability -------------------------------------------

@pytest.mark.slow
def test_pretraining_learnability(desk_dataset, desk_pretrained):
    state, wall, _ = desk_pretrained
    assert pt_pairs_count(desk_dataset) >= 2000
    assert state.epoch <= 50
    assert wall < 15 * 60

    val_pairs = pt.load_pairs(desk_dataset, desk_dataset.val_indices())
    _, retrieval = pt.evaluate_pairs(state, val_pairs, batch_size=32)
    z_val = pt.encode_batch(state.csi_encoder, val_pairs.x_csi)
    spread = pt.embedding_spread(z_val)
    assert retrieval >= 0.90
    assert spread >= 0.01
    print(f"\nPASS learnability: epoch {state.epoch}, {wall:.0f}s, "
          f"val retrieval@32 {retrieval:.4f}, spread {spread:.4f}")


def pt_pairs_count(dataset):
    return len(dataset.train_indices())


# --- 6. Low-label trend ----------------------------------------------------

@pytest.mark.slow
def test_low_label_trend(desk_root, desk_dataset, desk_pretrained):
    _, _, ckpt_path = desk_pretrained
    t0 = time.monotonic()
    cfg = load_config("desk")
    fcfg = finetune_config(cfg, label_budget=200, epochs=25)
    results = {}
    for task in ("positioning", "beam", "los"):
        runs = ft.run_sweep(str(desk_root / "manifest.json"), task, ("pretrained", "scratch"),
                            range(5), fcfg, pretrain_config(cfg), ckpt_path, jobs=2)
        results[task] = {init: float(np.median([r["val_metric"] for r in runs
                                                if r["init"] == init]))
                         for init in ("pretrained", "scratch")}
    wall = time.monotonic() - t0

    assert results["positioning"]["pretrained"] <= results["positioning"]["scratch"]
    assert results["beam"]["pretrained"] >= results["beam"]["scratch"]
    assert results["los"]["pretrained"] >= results["los"]["scratch"]
    assert wall < 30 * 60
    print(f"\nPASS trend (budget 200, 5 seeds, medians): "
          f"positioning {results['positioning']['pretrained']:.2f} vs "
          f"{results['positioning']['scratch']:.2f} m, "
          f"beam {results['beam']['pretrained']:.4f} vs {results['beam']['scratch']:.4f}, "
          f"los {results['los']['pretrained']:.4f} vs {results['los']['scratch']:.4f}, "
          f"{wall:.0f}s")
    print(f"trend medians: {results!r}")


# --- 7. Pipeline determinism -----------------------------------------------

MINI_CFG = {
    "dataset": {
        "seed": 3, "train_fraction": 0.8,
        "geometry": {"tx_geometry": {"rows": 4, "cols": 4},
                     "rx_geometry": {"rows": 2, "cols": 1},
                     "n_taps": 32, "n_subcarriers": 64, "bandwidth_hz": 10.0e6},
        "scenarios": [{"scenario_id": 0, "n_ue": 40},
                      {"scenario_id": 1, "n_ue": 40, "cell_radius": 100.0}],
    },
    "pretrain": {"seed": 0, "batch_size": 16, "lr": 2e-3, "max_epochs": 2,
                 "patience": 30, "holdout_fraction": 0.15,
                 "widths": [4, 8, 16], "embed_dim": 32},
    "finetune": {"batch_size": 16, "lr": 2e-3, "epochs": 2, "head_hidden": 16},
}


def run_pipeline(root, cfg_path, capsys):
    data, pre, ftd = str(root / "data"), str(root / "pre"), str(root / "ft")
    assert main(["generate", "--config", cfg_path, "--out", data]) == 0
    assert main(["pretrain", data, "--config", cfg_path, "--out", pre]) == 0
    for init in ("scratch", "pretrained"):
        argv = ["finetune", data, "--config", cfg_path, "--task", "beam",
                "--init", init, "--out", ftd]
        if init == "pretrained":
            argv += ["--checkpoint", pre + "/pretrain.ckpt"]
        assert main(argv) == 0
    capsys.readouterr()
    arts = sorted(str(p) for p in (root / "ft").glob("*.json"))
    assert main(["report", *arts, "--json", str(root / "report.json")]) == 0
    # the path echo necessarily differs between run roots; the table must not
    table = capsys.readouterr().out.replace(str(root), "<run>")
    return {
        "manifest_sha": json.load(open(root / "data" / "manifest.json"))["records_sha256"],
        "records": open(root / "data" / "samples.bin", "rb").read(),
        "metrics": open(root / "pre" / "pretrain_metrics.jsonl").read(),
        "ckpt": open(root / "pre" / "pretrain.ckpt", "rb").read(),
        "artifacts": [open(a).read() for a in arts],
        "report": open(root / "report.json").read(),
        "table": table,
    }


def test_pipeline_determinism(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.yaml")
    with open(cfg_path, "w") as f:
        yaml.safe_dump(MINI_CFG, f)
    a = run_pipeline((tmp_path / "a"), cfg_path, capsys)
    (tmp_path / "b").mkdir()
    b = run_pipeline((tmp_path / "b"), cfg_path, capsys)
    for key in a:
        assert a[key] == b[key], f"pipeline output '{key}' differs between runs"
    print("\nPASS determinism: two full pipeline runs are bit-identical "
          "(dataset, metrics, checkpoints, artifacts, report)")


# --- 8. Table machinery ----------------------------------------------------

def test_improvement_arithmetic():
    r = ft.improvement_report(34.18, 49.03, "positioning")
    assert r["relative_pct"] == pytest.approx(30.29, abs=0.01)
    print(f"\nPASS table arithmetic: 49.03 -> 34.18 gives "
          f"{r['relative_pct']:.2f}% (expected 30.29 +/- 0.01)")
