"""Contrastive pretraining: sanity values, learning, determinism, resume."""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from mimoclr import finetune as F, pretrain as P
from mimoclr.config import config_from_dict, load_config, pretrain_config
from mimoclr.errors import ConfigError, ContractError
from mimoclr.nncore import checkpoint as ckpt
from mimoclr.nncore.layers import prefixed
from mimoclr.nncore.tensor import Tensor
from mimoclr.rngstream import stream

SMALL = P.PretrainConfig(seed=0, batch_size=32, lr=2e-3, max_epochs=6,
                         patience=30, holdout_fraction=0.15,
                         widths=(4, 8, 16), embed_dim=32)


def make_state(config=SMALL, h=32, w=64):
    return P.init_pretrain_state(config, h, w)


def train_pairs(dataset, n=None):
    idx = dataset.train_indices()
    if n is not None:
        idx = idx[:n]
    return P.load_pairs(dataset, idx)


def test_pair_arrays_align_records_not_widths(mini_dataset):
    pairs = train_pairs(mini_dataset, 8)
    assert pairs.x_csi.shape == (8, 2, 32, mini_dataset.n_subcarriers)
    assert pairs.x_cir.shape == (8, 2, 32, mini_dataset.n_taps)
    assert pairs.n == 8
    with pytest.raises(ContractError, match="8 CSI records vs 7 CIR records"):
        P.PairArrays(x_csi=pairs.x_csi, x_cir=pairs.x_cir[:7])


def test_cir_encoder_shares_the_csi_encoder_config(mini_dataset):
    state = make_state()
    assert state.cir_encoder.config == state.csi_encoder.config
    assert state.csi_encoder.config.in_width == mini_dataset.n_subcarriers
    x = train_pairs(mini_dataset, 4).x_cir
    assert P.encode_batch(state.cir_encoder, x).shape == (4, SMALL.embed_dim)


def test_checkpoint_with_older_meta_keys_loads(tmp_path):
    """Version-2 checkpoints saved while the state still kept best_val_loss,
    val_history and rng in meta load, those keys ignored."""
    state = make_state()
    path = str(tmp_path / "pre.ckpt")
    P.save_pretrain_checkpoint(state, path)
    meta, tensors = ckpt.load_checkpoint(path)
    meta.update(best_val_loss=None, val_history=[],
                rng={"scheme": "counter-based", "seed": 0})
    ckpt.save_checkpoint(path, meta, tensors)
    loaded, _ = P.load_pretrain_state(path)
    assert loaded.config == state.config and loaded.schedule.best is None


def test_checkpoint_without_version_is_refused(mini_dataset, tmp_path):
    path = str(tmp_path / "pre.ckpt")
    P.save_pretrain_checkpoint(make_state(), path)
    meta, tensors = ckpt.load_checkpoint(path)
    assert meta["version"] == P.CHECKPOINT_VERSION == 2
    del meta["version"]    # as saved when the CIR encoder saw the padded view
    ckpt.save_checkpoint(path, meta, tensors)
    with pytest.raises(ConfigError, match="version None"):
        P.load_pretrain_state(path)
    for init in ("pretrained", "probe"):
        with pytest.raises(ConfigError, match="version None"):
            F.init_finetune_run(mini_dataset, "los", init, 0, F.FinetuneConfig(), SMALL,
                                checkpoint_path=path)


def test_config_validation():
    with pytest.raises(ConfigError):
        P.PretrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        P.PretrainConfig(tau_init=0.005, tau_min=0.01)
    with pytest.raises(ConfigError):
        P.PretrainConfig(holdout_fraction=0.0)
    with pytest.raises(ConfigError):
        config_from_dict(P.PretrainConfig, {"learning_rate": 1e-3}, "pretrain")


def test_loss_at_random_init_is_near_log_batch(mini_dataset):
    # untrained encoders score each pairing about equally, so the loss over
    # a batch of N pairs should sit near log(N)
    cfg = dataclasses.replace(SMALL, tau_init=1.0)
    state = make_state(cfg)
    pairs = train_pairs(mini_dataset, 64)
    loss, _ = P.evaluate_pairs(state, pairs, batch_size=64)
    assert abs(loss - math.log(64)) < 0.2


def test_retrieval_at_random_init_is_chance(mini_dataset):
    state = make_state()
    pool = train_pairs(mini_dataset)
    z_csi = P.encode_batch(state.csi_encoder, pool.x_csi)
    z_cir = P.encode_batch(state.cir_encoder, pool.x_cir)
    rng = np.random.default_rng(123)
    accs = []
    for _ in range(50):
        idx = rng.choice(pool.n, size=32, replace=False)
        a = z_csi[idx] / np.linalg.norm(z_csi[idx], axis=1, keepdims=True)
        b = z_cir[idx] / np.linalg.norm(z_cir[idx], axis=1, keepdims=True)
        hits = np.argmax(a @ b.T, axis=1) == np.arange(32)
        accs.append(hits.mean())
    assert abs(np.mean(accs) - 1.0 / 32) < 0.03


def test_retrieval_api_matches_direct_computation(mini_dataset):
    state = make_state()
    pairs = train_pairs(mini_dataset, 16)
    _, got = P.evaluate_pairs(state, pairs, 16)  # a single 16-pair batch
    z = P.encode_batch(state.csi_encoder, pairs.x_csi)
    w = P.encode_batch(state.cir_encoder, pairs.x_cir)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    wn = w / np.linalg.norm(w, axis=1, keepdims=True)
    want = float(np.mean(np.argmax(zn @ wn.T, axis=1) == np.arange(16)))
    assert got == want


def test_single_pair_epoch_rejected(mini_dataset):
    state = make_state()
    pairs = train_pairs(mini_dataset, 1)
    with pytest.raises(ContractError):
        P.pretrain_epoch(state, pairs)
    with pytest.raises(ContractError):
        P.evaluate_pairs(state, pairs, 16)


def test_embedding_spread():
    z = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    assert P.embedding_spread(z) == 0.0  # collapsed: every cosine is 1
    rng = np.random.default_rng(0)
    assert P.embedding_spread(rng.normal(size=(20, 8))) > 0.1
    with pytest.raises(ContractError):
        P.embedding_spread(z[:2])
    z[0] = 0.0
    with pytest.raises(ContractError):
        P.embedding_spread(z)


def test_epoch_metrics_and_tail_handling(mini_dataset):
    state = make_state()
    pairs = train_pairs(mini_dataset, 65)  # 32 + 32 + 1 at batch 32
    m = P.pretrain_epoch(state, pairs)
    assert m["epoch"] == 1 and state.epoch == 1
    assert m["n_used"] == 64 and m["n_dropped"] == 1
    assert math.isfinite(m["train_loss"]) and 0.0 <= m["train_retrieval"] <= 1.0


def test_epoch_holds_one_step_at_a_time(mini_dataset, traced_peak):
    # a later step's forward must not start while an earlier step's graph
    # is alive, so three steps peak no higher than one
    cfg = dataclasses.replace(pretrain_config(load_config("desk")), batch_size=16)
    peaks = []
    for steps in (1, 3):
        state = make_state(cfg)
        pairs = train_pairs(mini_dataset, 16 * steps)
        peaks.append(traced_peak(lambda: P.pretrain_epoch(state, pairs)))
    assert peaks[1] <= 1.05 * peaks[0], peaks


def stage_activation_bytes(widths, shape):
    """Bytes a recorded encoder forward of a float32 input of `shape`
    [N, C, H, W] keeps per stage: the relu mask (bool) and, but for the last
    stage, the pool output, which the next conv keeps as its input.  No conv
    or relu output is kept, and the first conv's input is the caller's."""
    n, _, h, w = shape
    total = 0
    for i, f in enumerate(widths):
        cells = n * f * h * w
        total += cells + (4 * (cells // 4) if i < len(widths) - 1 else 0)
        h, w = h // 2, w // 2
    return total


def test_recorded_forward_keeps_only_stage_activations():
    # desk architecture, both towers, batch 64, no backward yet: 5.7 MiB
    # live.  Keeping every conv and relu output, as a graph of output
    # tensors did, held 33.9 MiB; im2col columns kept for backward would add
    # 9.4, 9.4 and 4.7 MB on the CSI tower and half that on the CIR tower
    cfg = pretrain_config(load_config("desk"))
    state = make_state(cfg)
    rng = np.random.default_rng(0)
    x_csi = rng.standard_normal((64, 2, 32, 64)).astype(np.float32)
    x_cir = rng.standard_normal((64, 2, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        z = [state.csi_encoder.forward(Tensor(x_csi)), state.cir_encoder.forward(Tensor(x_cir))]
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(t.requires_grad for t in z)
    kept = (stage_activation_bytes(cfg.widths, x_csi.shape)
            + stage_activation_bytes(cfg.widths, x_cir.shape))
    slack = 2**19   # embeddings, tensor objects, nodes and closures
    assert live <= kept + slack, (live, kept)


def test_desk_step_peak(traced_peak):
    # desk preset, one step at batch 64: the graph keeps relu masks and conv
    # inputs, and conv2d builds im2col columns one block of samples (at most
    # 1 MiB) at a time.  The step peaks at 15.4 MiB.  Keeping every conv and
    # relu output made it 43.6 MiB; whole-batch columns on top of that (9.4 MB
    # at stage 1, built in forward, rebuilt in backward and again as col2im's
    # dcols) 48.6 MiB
    cfg = dataclasses.replace(pretrain_config(load_config("desk")), batch_size=64)
    state = make_state(cfg)
    rng = np.random.default_rng(0)
    pairs = P.PairArrays(rng.standard_normal((64, 2, 32, 64)).astype(np.float32),
                         rng.standard_normal((64, 2, 32, 32)).astype(np.float32))
    peak = traced_peak(lambda: P.pretrain_epoch(state, pairs))
    assert peak <= 18 * 2**20, peak / 2**20


def test_paper_step_peak(traced_peak):
    # paper geometry (256 antenna pairs, 256 subcarriers, 64 taps), one step
    # at batch 8: the graph keeps relu masks and conv inputs, and conv2d
    # builds im2col columns one block of samples at a time (one sample's,
    # 9 MiB at most).  The step peaks at 104 MiB.  Keeping every conv and
    # relu output (200 MiB of stage activations) made it 269 MiB,
    # whole-batch columns on top (72 MiB at stage 2) 301 MiB, and keeping
    # every stage's columns until backward 481 MiB
    cfg = dataclasses.replace(pretrain_config(load_config("paper")), batch_size=8)
    state = make_state(cfg, 256, 256)
    rng = np.random.default_rng(0)
    pairs = P.PairArrays(rng.standard_normal((8, 2, 256, 256)).astype(np.float32),
                         rng.standard_normal((8, 2, 256, 64)).astype(np.float32))
    peak = traced_peak(lambda: P.pretrain_epoch(state, pairs))
    assert peak <= 115 * 2**20, peak / 2**20


def test_training_reduces_loss(mini_dataset):
    state = make_state()
    pairs = train_pairs(mini_dataset)
    loss0, _ = P.evaluate_pairs(state, pairs, state.config.batch_size)
    for _ in range(30):
        P.pretrain_epoch(state, pairs)
    loss1, ret1 = P.evaluate_pairs(state, pairs, state.config.batch_size)
    assert loss1 < 0.5 * loss0
    assert ret1 > 0.2  # far above the 1/32 chance level


def test_tau_stays_above_floor(mini_dataset):
    cfg = dataclasses.replace(SMALL, tau_init=0.011, tau_min=0.01, lr=0.05)
    state = make_state(cfg)
    pairs = train_pairs(mini_dataset, 32)
    for _ in range(5):
        P.pretrain_epoch(state, pairs)
    assert state.tau() >= cfg.tau_min - 1e-7


def test_same_seed_same_trace(mini_dataset):
    pairs = train_pairs(mini_dataset, 64)
    traces = []
    finals = []
    for _ in range(2):
        state = make_state()
        tr = [P.pretrain_epoch(state, pairs)["train_loss"] for _ in range(3)]
        traces.append(tr)
        finals.append({k: p.data.copy() for k, p in state.parameters().items()})
    assert traces[0] == traces[1]
    for k in finals[0]:
        assert np.array_equal(finals[0][k], finals[1][k]), k


def test_different_seed_different_trace(mini_dataset):
    pairs = train_pairs(mini_dataset, 64)
    a = P.pretrain_epoch(make_state(), pairs)["train_loss"]
    b = P.pretrain_epoch(make_state(dataclasses.replace(SMALL, seed=1)), pairs)["train_loss"]
    assert a != b


def test_checkpoint_round_trip(mini_dataset, tmp_path):
    state = make_state()
    pairs = train_pairs(mini_dataset, 64)
    for _ in range(2):
        P.pretrain_epoch(state, pairs)
    for val_loss in (2.0, 1.5):
        state.schedule.observe(val_loss, state.optimizer.lr)
    state.history = [{"epoch": e, "val_loss": v, "lr": 2e-3 / 3} for e, v in ((1, 2.0), (2, 1.5))]
    path = str(tmp_path / "pre.ckpt")
    P.save_pretrain_checkpoint(state, path)
    loaded, meta = P.load_pretrain_state(path)
    assert loaded.epoch == 2
    assert loaded.history == state.history
    assert loaded.config == state.config
    assert loaded.schedule.best == 1.5
    assert meta["encoder_config"]["in_width"] == state.csi_encoder.config.in_width == 64
    assert not {"best_val_loss", "val_history", "rng"} & set(meta)
    for k, p in state.parameters().items():
        assert np.array_equal(loaded.parameters()[k].data, p.data), k
    want_m = state.optimizer.state_arrays()
    got_m = loaded.optimizer.state_arrays()
    for k in want_m:
        assert np.array_equal(got_m[k], want_m[k]), k
    # training continues identically from the restored state
    m1 = P.pretrain_epoch(state, pairs)
    m2 = P.pretrain_epoch(loaded, pairs)
    assert m1 == m2


def test_run_writes_metrics_and_checkpoint(mini_dataset, tmp_path):
    cfg = dataclasses.replace(SMALL, max_epochs=3)
    state = P.run_pretraining(mini_dataset, cfg, str(tmp_path))
    rows = state.history
    assert state.epoch == 3 and len(rows) == 3
    lines = open(tmp_path / "pretrain_metrics.jsonl").read().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        row = json.loads(line)
        assert row == rows[i]
        assert set(row) == {"epoch", "train_loss", "val_loss", "retrieval",
                            "train_retrieval", "lr", "tau"}
        assert row["epoch"] == i + 1
    assert (tmp_path / "pretrain.ckpt").exists()


def test_resume_reproduces_uninterrupted_run(mini_dataset, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    state_a = P.run_pretraining(mini_dataset, SMALL, str(a_dir))

    P.run_pretraining(mini_dataset, SMALL, str(b_dir), max_epochs=3)
    state_b = P.run_pretraining(mini_dataset, SMALL, str(b_dir), resume=True)

    assert state_b.epoch == state_a.epoch == 6
    for k, p in state_a.parameters().items():
        assert np.array_equal(state_b.parameters()[k].data, p.data), k
    assert open(a_dir / "pretrain_metrics.jsonl").read() == \
        open(b_dir / "pretrain_metrics.jsonl").read()
    assert open(a_dir / "pretrain.ckpt", "rb").read() == \
        open(b_dir / "pretrain.ckpt", "rb").read()


def test_run_hands_on_the_lowest_holdout_loss_epoch(mini_dataset, tmp_path):
    # a high rate and small batches make the holdout loss swing, so the
    # last epoch is not the best one
    cfg = dataclasses.replace(SMALL, lr=1e-2, batch_size=8, max_epochs=10)
    state = P.run_pretraining(mini_dataset, cfg, str(tmp_path / "full"))
    rows = state.history
    best = min(rows, key=lambda r: r["val_loss"])["epoch"]
    assert best < len(rows) == state.epoch
    at_best = P.run_pretraining(mini_dataset, cfg, str(tmp_path / "cut"), max_epochs=best)
    want = {k: p.data for k, p in at_best.parameters().items()}

    def assert_best(params):
        for k, p in params.items():
            assert np.array_equal(p.data, want[k]), k

    assert_best(state.parameters())
    # the checkpoint resumes from the last epoch and fine-tunes from the best
    ckpt_path = str(tmp_path / "full" / "pretrain.ckpt")
    loaded, _ = P.load_pretrain_state(ckpt_path)
    assert loaded.epoch == len(rows)
    assert_best(loaded.restore_best().parameters())
    run = F.init_finetune_run(mini_dataset, "los", "pretrained", 0, F.FinetuneConfig(), cfg,
                              checkpoint_path=ckpt_path)
    assert_best(prefixed(run.encoder.params, "csi."))


def test_failed_resume_write_keeps_metrics_history(mini_dataset, tmp_path, monkeypatch):
    P.run_pretraining(mini_dataset, SMALL, str(tmp_path), max_epochs=2)
    metrics = tmp_path / "pretrain_metrics.jsonl"
    before = metrics.read_bytes()
    assert len(before.splitlines()) == 2

    def refuse(*args):
        raise OSError("no space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        if os.fspath(path) == str(metrics) + ".tmp":
            f.write = refuse
        return f

    # every atomic write of the metrics file fails before its rename
    monkeypatch.setattr(ckpt, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        P.run_pretraining(mini_dataset, SMALL, str(tmp_path), resume=True, max_epochs=3)
    assert metrics.read_bytes() == before


def test_holdout_never_uses_validation_split(mini_dataset):
    fit, hold = P._inner_split(mini_dataset, SMALL)
    train = set(mini_dataset.train_indices().tolist())
    assert set(fit.tolist()) | set(hold.tolist()) == train
    assert set(fit.tolist()) & set(hold.tolist()) == set()
    assert len(hold) == math.floor(len(train) * SMALL.holdout_fraction)


def test_shuffle_stream_is_epoch_keyed():
    a = stream(0, "pretrain-shuffle", 3).permutation(10)
    b = stream(0, "pretrain-shuffle", 3).permutation(10)
    c = stream(0, "pretrain-shuffle", 4).permutation(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_encode_batch_matches_taped_forward_and_leaves_grads(mini_dataset):
    state = make_state()
    x = train_pairs(mini_dataset, 40).x_csi
    enc = state.csi_encoder
    marker = {k: np.full_like(p.data, 7.0) for k, p in enc.params.items()}
    for k, p in enc.params.items():
        p.grad = marker[k]
    taped = enc.forward(Tensor(x)).data
    assert np.array_equal(P.encode_batch(enc, x), taped)
    for k, p in enc.params.items():
        assert p.grad is marker[k] and np.all(p.grad == 7.0), k


def test_encode_batch_is_chunk_invariant(mini_dataset):
    # desk-preset architecture; 260 records cross every chunk boundary
    cfg = pretrain_config(load_config("desk"))
    enc = make_state(cfg).csi_encoder
    x = P.load_pairs(mini_dataset, np.arange(260) % mini_dataset.n_records).x_csi
    want = P.encode_batch(enc, x, chunk=256)
    assert P.FORWARD_CHUNK == 64
    for chunk in (1, 63, 64):
        assert np.array_equal(P.encode_batch(enc, x, chunk=chunk), want), chunk
    assert np.array_equal(P.encode_batch(enc, x), want)
