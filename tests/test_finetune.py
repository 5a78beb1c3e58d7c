"""Downstream adaptation: controlled comparisons, metrics, improvement math."""

import dataclasses

import numpy as np
import pytest

from mimoclr import finetune as F
from mimoclr import pretrain as P
from mimoclr.config import load_config, pretrain_config
from mimoclr.errors import ConfigError, ContractError, DataError
from mimoclr.nncore.layers import Encoder, EncoderConfig, prefixed

FT = F.FinetuneConfig(batch_size=16, lr=2e-3, epochs=4, head_hidden=16)

PRE = P.PretrainConfig(seed=0, batch_size=32, lr=2e-3, max_epochs=2,
                       patience=30, holdout_fraction=0.15,
                       widths=(4, 8, 16), embed_dim=32)
DESK = pretrain_config(load_config("desk"))


@pytest.fixture(scope="module")
def mini_checkpoint(mini_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_pre")
    P.run_pretraining(mini_dataset, PRE, str(out))
    return str(out / "pretrain.ckpt")


def snapshot(params):
    return {k: p.data.copy() for k, p in params.items()}


def test_task_specs(mini_dataset):
    beam = F.make_task_spec("beam", mini_dataset)
    assert beam.kind == "beam_management" and beam.out_dim == 16
    assert beam.is_classification and beam.metric_name == "accuracy"
    assert F.make_task_spec("bm", mini_dataset) == beam
    ci = F.make_task_spec("ci", mini_dataset)
    assert ci.kind == "channel_identification" and ci.out_dim == 2
    assert F.make_task_spec("los", mini_dataset) == ci
    pos = F.make_task_spec("pos", mini_dataset)
    assert pos.kind == "positioning" and pos.out_dim == 2
    assert not pos.is_classification and pos.metric_name == "mean_error_m"
    assert F.make_task_spec("positioning", mini_dataset, coordinate_dim=3).out_dim == 3
    with pytest.raises(ConfigError):
        F.make_task_spec("detection", mini_dataset)
    with pytest.raises(ConfigError):
        F.make_task_spec("pos", mini_dataset, coordinate_dim=4)


def test_head_init_identical_across_init_modes(mini_dataset, mini_checkpoint):
    runs = [
        F.init_finetune_run(mini_dataset, "beam", "scratch", 7, FT, PRE),
        F.init_finetune_run(mini_dataset, "beam", "pretrained", 7, FT, PRE,
                            checkpoint_path=mini_checkpoint),
    ]
    for k, p in runs[0].head.params.items():
        assert np.array_equal(p.data, runs[1].head.params[k].data), k
    # ... while the encoders genuinely differ
    assert any(not np.array_equal(runs[0].encoder.params[k].data,
                                  runs[1].encoder.params[k].data)
               for k in runs[0].encoder.params)


def test_pretrained_init_matches_checkpoint(mini_dataset, mini_checkpoint):
    run = F.init_finetune_run(mini_dataset, "los", "pretrained", 3, FT, PRE,
                              checkpoint_path=mini_checkpoint)
    pre_state, _ = P.load_pretrain_state(mini_checkpoint)
    for k, p in pre_state.csi_encoder.params.items():
        assert np.array_equal(run.encoder.params[k].data, p.data), k


def test_architecture_mismatch_rejected(mini_dataset, mini_checkpoint):
    wrong = dataclasses.replace(PRE, embed_dim=64)
    with pytest.raises(ConfigError, match="match"):
        F.init_finetune_run(mini_dataset, "beam", "pretrained", 0, FT, wrong,
                            checkpoint_path=mini_checkpoint)
    with pytest.raises(ConfigError):
        F.init_finetune_run(mini_dataset, "beam", "pretrained", 0, FT, PRE)  # no ckpt
    with pytest.raises(ConfigError, match="probe init needs a checkpoint"):
        F.init_finetune_run(mini_dataset, "beam", "probe", 0, FT, PRE)
    with pytest.raises(ConfigError):
        F.init_finetune_run(mini_dataset, "beam", "warmstart", 0, FT, PRE)


def test_labeled_subset_budget(mini_dataset):
    train = mini_dataset.train_indices()
    assert np.array_equal(F.labeled_subset(mini_dataset, 0, 0), train)
    sub = F.labeled_subset(mini_dataset, 4, 10)
    assert len(sub) == 10 and len(set(sub.tolist())) == 10
    assert set(sub.tolist()) <= set(train.tolist())
    assert np.array_equal(sub, F.labeled_subset(mini_dataset, 4, 10))
    assert not np.array_equal(sub, F.labeled_subset(mini_dataset, 5, 10))
    with pytest.raises(DataError, match="budget"):
        F.labeled_subset(mini_dataset, 0, len(train) + 1)


def test_lr_zero_is_a_no_op(mini_dataset):
    cfg = dataclasses.replace(FT, lr=0.0, epochs=3)
    run = F.init_finetune_run(mini_dataset, "pos", "scratch", 2, cfg, PRE)
    before = snapshot(run.parameters())
    metric_before = None
    F.finetune(run, mini_dataset)
    for k, p in run.parameters().items():
        assert np.array_equal(p.data, before[k]), k
    # and the evaluated metric is exactly the at-init metric
    metric_after = F.evaluate(run, mini_dataset, mini_dataset.val_indices())
    run2 = F.init_finetune_run(mini_dataset, "pos", "scratch", 2, cfg, PRE)
    run2.target_mean, run2.target_std = run.target_mean, run.target_std
    metric_before = F.evaluate(run2, mini_dataset, mini_dataset.val_indices())
    assert metric_after == metric_before


def test_probe_freezes_encoder(mini_dataset, mini_checkpoint):
    run = F.init_finetune_run(mini_dataset, "los", "probe", 1,
                              dataclasses.replace(FT, epochs=2), PRE,
                              checkpoint_path=mini_checkpoint)
    F.finetune(run, mini_dataset)
    pre_state, _ = P.load_pretrain_state(mini_checkpoint)
    for k, p in pre_state.csi_encoder.params.items():
        assert np.array_equal(run.encoder.params[k].data, p.data), k
    assert run.freeze_encoder
    assert "encoder.conv0.w" not in run.parameters()
    # the head did move
    fresh = F.init_finetune_run(mini_dataset, "los", "pretrained", 1, FT, PRE,
                                checkpoint_path=mini_checkpoint)
    assert any(not np.array_equal(run.head.params[k].data, fresh.head.params[k].data)
               for k in run.head.params)


def test_improvement_report_values():
    r = F.improvement_report(34.18, 49.03, "positioning")
    assert r["relative_pct"] == pytest.approx(30.29, abs=0.01)
    assert r["absolute_delta"] == pytest.approx(14.85)
    assert F.improvement_report(5.0, 5.0, "pos")["relative_pct"] == 0.0
    r = F.improvement_report(0.7838, 0.7568, "ci")
    assert r["relative_pct"] == pytest.approx(3.57, abs=0.01)
    assert r["absolute_delta"] == pytest.approx(0.027)
    # worse-than-baseline comes out negative
    assert F.improvement_report(40.0, 30.0, "pos")["relative_pct"] < 0
    assert F.improvement_report(0.2, 0.4, "beam")["relative_pct"] == -50.0
    assert F.improvement_report(0.1, 0.0, "beam")["relative_pct"] is None
    with pytest.raises(ConfigError):
        F.improvement_report(1.0, 2.0, "latency")


def zeroed_head(run):
    run.head.params["fc2.w"].data[:] = 0.0
    run.head.params["fc2.b"].data[:] = 0.0
    return run


def test_positioning_metric_against_loop(mini_dataset):
    run = F.init_finetune_run(mini_dataset, "pos", "scratch", 0, FT, PRE)
    idx = mini_dataset.val_indices()
    _, y = F._task_arrays(mini_dataset, idx, run.task)
    run.target_mean = y.mean(axis=0)
    run.target_std = np.ones(2)
    zeroed_head(run)  # forces every prediction to the centroid
    got = F.evaluate(run, mini_dataset, idx)
    want = np.mean([np.sqrt(((y[i] - y.mean(axis=0)) ** 2).sum()) for i in range(len(y))])
    assert got == pytest.approx(want, rel=1e-6)


def test_positioning_metric_requires_training(mini_dataset):
    run = F.init_finetune_run(mini_dataset, "pos", "scratch", 0, FT, PRE)
    with pytest.raises(ContractError, match="statistics"):
        F.evaluate(run, mini_dataset, [0, 1])


def test_classification_metric_hand_count(mini_dataset):
    run = zeroed_head(F.init_finetune_run(mini_dataset, "beam", "scratch", 0, FT, PRE))
    idx = mini_dataset.val_indices()
    _, y = F._task_arrays(mini_dataset, idx, run.task)
    # all-equal logits argmax to class 0 (lowest index wins ties)
    assert F.evaluate(run, mini_dataset, idx) == np.mean(y == 0)


def test_finetune_learns_beam_task(mini_dataset):
    cfg = dataclasses.replace(FT, epochs=12)
    run = F.finetune(F.init_finetune_run(mini_dataset, "beam", "scratch", 0, cfg, PRE),
                     mini_dataset)
    acc = F.evaluate(run, mini_dataset, mini_dataset.val_indices())
    assert acc > 1.0 / 16  # clears the random-guess floor
    assert run.best_epoch >= 1
    assert run.best_val_loss == min(h["val_loss"] for h in run.history)


def test_epoch_holds_one_batch_at_a_time(mini_dataset, traced_peak):
    # desk architecture, one epoch: three batches peak no higher than one
    # (the labeled inputs themselves grow by 0.5 MiB, about 3%)
    peaks = []
    for budget in (16, 48):
        cfg = dataclasses.replace(FT, epochs=1, label_budget=budget)
        run = F.init_finetune_run(mini_dataset, "beam", "scratch", 0, cfg, DESK)
        peaks.append(traced_peak(lambda: F.finetune(run, mini_dataset)))
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_best_epoch_restoration(mini_dataset):
    cfg = dataclasses.replace(FT, epochs=5)
    run = F.finetune(F.init_finetune_run(mini_dataset, "ci", "scratch", 0, cfg, PRE),
                     mini_dataset)
    losses = [h["val_loss"] for h in run.history]
    assert run.best_epoch == int(np.argmin(losses)) + 1
    # held parameters reproduce the best validation loss, not the last one
    x, y = F._task_arrays(mini_dataset, mini_dataset.val_indices(), run.task)
    assert F._val_loss(run, x, y)[0] == pytest.approx(min(losses), rel=1e-6)


def test_same_seed_same_run(mini_dataset):
    cfg = dataclasses.replace(FT, epochs=2)
    outs = []
    for _ in range(2):
        run = F.finetune(F.init_finetune_run(mini_dataset, "los", "scratch", 9, cfg, PRE),
                         mini_dataset)
        outs.append((tuple(h["val_loss"] for h in run.history),
                     snapshot(run.parameters())))
    assert outs[0][0] == outs[1][0]
    for k in outs[0][1]:
        assert np.array_equal(outs[0][1][k], outs[1][1][k]), k


def test_summary_structure(mini_dataset):
    cfg = dataclasses.replace(FT, epochs=1, label_budget=40)
    run = F.finetune(F.init_finetune_run(mini_dataset, "beam", "scratch", 3, cfg, PRE),
                     mini_dataset)
    s = F.finetune_summary(run)
    assert s["kind"] == "finetune" and s["task"] == "beam_management"
    assert s["metric_name"] == "accuracy" and s["init"] == "scratch"
    assert s["seed"] == 3 and s["label_budget"] == 40
    assert s["epochs_run"] == 1 and 0.0 <= s["val_metric"] <= 1.0
    p, k = mini_dataset.n_rx * mini_dataset.n_tx, mini_dataset.n_subcarriers
    assert s["encoder"] == dataclasses.asdict(PRE.encoder_config(p, k))


@pytest.mark.parametrize("frozen", [False, True])
def test_predict_matches_taped_forward_and_leaves_grads(mini_dataset, mini_checkpoint, frozen):
    run = F.init_finetune_run(mini_dataset, "beam", "probe" if frozen else "pretrained", 5,
                              FT, PRE, checkpoint_path=mini_checkpoint)
    x, _ = F._task_arrays(mini_dataset, mini_dataset.val_indices()[:40], run.task)
    every = {**prefixed(run.encoder.params, "encoder."), **prefixed(run.head.params, "head.")}
    marker = {k: np.full_like(p.data, 7.0) for k, p in every.items()}
    for k, p in every.items():
        p.grad = marker[k]
    taped = F._forward(run, x).data
    assert np.array_equal(F._predict(run, x), taped)
    for k, p in every.items():
        assert p.grad is marker[k] and np.all(p.grad == 7.0), k


@pytest.mark.parametrize("frozen", [False, True])
def test_predict_is_chunk_invariant(mini_dataset, mini_checkpoint, frozen):
    run = F.init_finetune_run(mini_dataset, "pos", "probe" if frozen else "pretrained", 5,
                              FT, PRE, checkpoint_path=mini_checkpoint)
    x, _ = F._task_arrays(mini_dataset, np.arange(260) % mini_dataset.n_records, run.task)
    want = F._predict(run, x, chunk=256)
    for chunk in (1, 63, 64):
        assert np.array_equal(F._predict(run, x, chunk=chunk), want), chunk
    assert np.array_equal(F._predict(run, x), want)


@pytest.mark.parametrize("task", ["pos", "beam", "los"])
@pytest.mark.parametrize("init", ["scratch", "pretrained", "probe"])
def test_summary_metric_equals_fresh_evaluate(mini_dataset, mini_checkpoint, task, init):
    cfg = dataclasses.replace(FT, epochs=3)
    run = F.init_finetune_run(mini_dataset, task, init, 4, cfg, PRE,
                              checkpoint_path=mini_checkpoint)
    F.finetune(run, mini_dataset)
    want = F.evaluate(run, mini_dataset, mini_dataset.val_indices())
    assert F.finetune_summary(run)["val_metric"] == want


def test_summary_metric_is_the_selected_epochs(mini_dataset):
    cfg = dataclasses.replace(FT, epochs=6, lr=1e-2)
    run = F.finetune(F.init_finetune_run(mini_dataset, "pos", "scratch", 2, cfg, PRE),
                     mini_dataset)
    assert run.best_epoch < len(run.history)  # selection kept an earlier epoch
    want = F.evaluate(run, mini_dataset, mini_dataset.val_indices())
    assert F.finetune_summary(run)["val_metric"] == want


def test_summary_needs_a_selected_epoch(mini_dataset):
    run = F.init_finetune_run(mini_dataset, "beam", "scratch", 0, FT, PRE)
    with pytest.raises(ContractError, match="epoch"):
        F.finetune_summary(run)


def loop_oracle(dataset, task, inits, seeds, config, checkpoint_path):
    """The per-run loop `run_sweep` replaces, scored by a fresh `evaluate`."""
    out = []
    for seed in seeds:
        for init in inits:
            run = F.init_finetune_run(dataset, task, init, seed, config, PRE,
                                      checkpoint_path=checkpoint_path)
            F.finetune(run, dataset)
            out.append({"init": run.init_mode, "seed": seed, "best_epoch": run.best_epoch,
                        "best_val_loss": run.best_val_loss,
                        "val_metric": F.evaluate(run, dataset, dataset.val_indices())})
    return out


@pytest.mark.parametrize("task", ["pos", "beam", "los"])
def test_run_sweep_matches_per_run_loop(mini_dataset, mini_checkpoint, task):
    cfg = dataclasses.replace(FT, epochs=2, label_budget=40)
    inits = ("pretrained", "scratch", "probe")
    got = F.run_sweep(mini_dataset, task, inits, range(2), cfg, PRE, mini_checkpoint)
    want = loop_oracle(mini_dataset, task, inits, range(2), cfg, mini_checkpoint)
    assert [{k: s[k] for k in want[0]} for s in got] == want
    assert [s["frozen_encoder"] for s in got] == [i == "probe" for i in inits] * 2
    assert all("artifact" not in s for s in got)
