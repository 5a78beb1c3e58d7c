"""End-to-end command flows: generate -> pretrain -> finetune -> report."""

import json

import pytest
import yaml

from mimoclr import finetune as ft, pretrain as pt
from mimoclr.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, main

CONFIG = {
    "dataset": {
        "seed": 3,
        "train_fraction": 0.8,
        "geometry": {
            "tx_geometry": {"rows": 4, "cols": 4},
            "rx_geometry": {"rows": 2, "cols": 1},
            "n_taps": 32, "n_subcarriers": 64,
            "codebook_size": 16, "bandwidth_hz": 10.0e6,
        },
        "scenarios": [
            {"scenario_id": 0, "n_ue": 40},
            {"scenario_id": 1, "n_ue": 40, "cell_radius": 100.0},
        ],
    },
    "pretrain": {"seed": 0, "batch_size": 16, "lr": 2e-3, "max_epochs": 3,
                 "patience": 30, "holdout_fraction": 0.15,
                 "widths": [4, 8, 16], "embed_dim": 32},
    "finetune": {"batch_size": 16, "lr": 2e-3, "epochs": 2, "head_hidden": 16,
                 "widths": [4, 8, 16], "embed_dim": 32},
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared config file, generated dataset, and pretraining run."""
    root = tmp_path_factory.mktemp("cliwork")
    cfg_path = root / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(CONFIG))
    data = root / "data"
    rc = main(["generate", "--config", str(cfg_path), "--out", str(data)])
    assert rc == 0
    pre = root / "pre"
    rc = main(["pretrain", str(data), "--config", str(cfg_path), "--out", str(pre)])
    assert rc == 0
    return {"root": root, "config": str(cfg_path), "data": str(data),
            "ckpt": str(pre / "pretrain.ckpt"), "pre": str(pre)}


def test_generate_outputs(work, capsys):
    rc = main(["generate", "--config", work["config"],
               "--out", str(work["root"] / "data2")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# command: generate")
    assert "wrote 80 records" in out
    assert "scenario 0: 40 samples" in out
    assert "split: 64 train / 16 val" in out
    assert "records sha256:" in out
    # same config, same seed: byte-identical dataset
    a = open(work["root"] / "data" / "samples.bin", "rb").read()
    b = open(work["root"] / "data2" / "samples.bin", "rb").read()
    assert a == b


def test_generate_seed_override_changes_data(work, capsys):
    rc = main(["generate", "--config", work["config"], "--seed", "99",
               "--out", str(work["root"] / "data99")])
    assert rc == 0
    capsys.readouterr()
    a = open(work["root"] / "data" / "samples.bin", "rb").read()
    b = open(work["root"] / "data99" / "samples.bin", "rb").read()
    assert a != b


def test_generate_invalid_config_exit_code(work, tmp_path, capsys):
    bad = dict(CONFIG, dataset=dict(CONFIG["dataset"]))
    bad["dataset"]["scenarios"] = [{"scenario_id": 0, "n_ue": 10, "blockage_prob": 1.5}]
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(bad))
    rc = main(["generate", "--config", str(p), "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "blockage_prob" in err


def test_unknown_config_name_lists_presets(tmp_path, capsys):
    rc = main(["generate", "--config", "nosuchpreset", "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "desk" in err and "paper" in err


def test_pretrain_outputs(work, capsys):
    out = capsys.readouterr()  # drop fixture noise
    rc = main(["pretrain", work["data"], "--config", work["config"],
               "--out", str(work["root"] / "pre_again"), "--epochs", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pretraining finished at epoch 1" in out
    assert "retrieval" in out
    lines = open(work["root"] / "pre_again" / "pretrain_metrics.jsonl").read().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["epoch"] == 1 and "val_loss" in row and "tau" in row


def test_pretrain_resume_matches_straight_run(work, capsys):
    out_dir = work["root"] / "pre_resumed"
    assert main(["pretrain", work["data"], "--config", work["config"],
                 "--out", str(out_dir), "--epochs", "2"]) == 0
    assert main(["pretrain", work["data"], "--config", work["config"],
                 "--out", str(out_dir), "--resume"]) == 0
    capsys.readouterr()
    straight = open(work["pre"] + "/pretrain_metrics.jsonl").read()
    resumed = open(out_dir / "pretrain_metrics.jsonl").read()
    assert resumed == straight
    assert open(work["pre"] + "/pretrain.ckpt", "rb").read() == \
        open(out_dir / "pretrain.ckpt", "rb").read()


def test_finetune_writes_paired_artifacts(work, capsys):
    out = work["root"] / "ft_ci"
    for init in ("scratch", "pretrained"):
        argv = ["finetune", work["data"], "--config", work["config"],
                "--task", "los", "--init", init, "--seeds", "2",
                "--out", str(out)]
        if init == "pretrained":
            argv += ["--checkpoint", work["ckpt"]]
        assert main(argv) == 0
    text = capsys.readouterr().out
    assert "channel_identification scratch seed 0: accuracy" in text
    for init in ("scratch", "pretrained"):
        for seed in (0, 1):
            path = out / f"channel_identification_{init}_seed{seed}.json"
            art = json.load(open(path))
            assert art["task"] == "channel_identification"
            assert art["init"] == init and art["seed"] == seed
            assert art["epochs_run"] == 2
            assert (out / f"channel_identification_{init}_seed{seed}.ckpt").exists()


def test_finetune_probe_artifact(work, capsys):
    out = work["root"] / "ft_probe"
    rc = main(["finetune", work["data"], "--config", work["config"],
               "--task", "los", "--init", "probe", "--checkpoint", work["ckpt"],
               "--out", str(out), "--epochs", "1"])
    capsys.readouterr()
    assert rc == 0
    art = json.load(open(out / "channel_identification_probe_seed0.json"))
    assert art["init"] == "probe" and art["frozen_encoder"] is True


def test_finetune_label_budget_flag(work, capsys):
    out = work["root"] / "ft_budget"
    rc = main(["finetune", work["data"], "--config", work["config"],
               "--task", "beam", "--init", "scratch", "--labels", "20",
               "--out", str(out), "--epochs", "1"])
    capsys.readouterr()
    assert rc == 0
    art = json.load(open(out / "beam_management_scratch_seed0.json"))
    assert art["label_budget"] == 20


def test_finetune_excess_budget_exit_code(work, capsys):
    rc = main(["finetune", work["data"], "--config", work["config"],
               "--task", "beam", "--init", "scratch", "--labels", "100000",
               "--out", str(work["root"] / "ft_x"), "--epochs", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "budget" in err


def test_finetune_pretrained_needs_checkpoint(work, capsys):
    rc = main(["finetune", work["data"], "--config", work["config"],
               "--task", "los", "--init", "pretrained",
               "--out", str(work["root"] / "ft_y")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG and "checkpoint" in err


def test_report_table_and_json(work, capsys):
    out = work["root"] / "ft_ci"
    arts = sorted(str(p) for p in out.glob("*.json"))
    json_path = work["root"] / "report.json"
    rc = main(["report", *arts, "--json", str(json_path)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "== channel_identification (accuracy; higher is better) ==" in text
    assert "median" in text and "%" in text
    rep = json.load(open(json_path))
    task = rep["tasks"]["channel_identification"]
    assert len(task["rows"]) == 2
    for row in task["rows"]:
        assert row["scratch"] is not None and row["pretrained"] is not None
        assert row["relative_pct"] is not None
    assert task["median"]["scratch"] is not None


def test_report_missing_pair_marked_absent(work, capsys):
    art = str(work["root"] / "ft_ci" / "channel_identification_pretrained_seed0.json")
    rc = main(["report", art])
    text = capsys.readouterr().out
    assert rc == 0
    # no scratch partner: scratch and improvement columns show "-"
    row = [l for l in text.splitlines() if l.strip().startswith("0 ")][0]
    cols = row.split()
    assert cols[0] == "0" and cols[1] == "-" and cols[-1] == "-"


def test_report_unreadable_artifact_exit_code(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA and "artifact" in err


def test_pretrain_nan_validation_loss_exits_diverged(work, monkeypatch, capsys):
    monkeypatch.setattr(pt, "evaluate_pairs", lambda *a, **k: (float("nan"), 0.5))
    rc = main(["pretrain", work["data"], "--config", work["config"],
               "--out", str(work["root"] / "pre_nan")])
    err = capsys.readouterr().err
    assert rc == EXIT_DIVERGED and "validation loss" in err


def test_finetune_nan_validation_loss_exits_diverged(work, monkeypatch, capsys):
    monkeypatch.setattr(ft, "_val_loss", lambda *a, **k: float("nan"))
    rc = main(["finetune", work["data"], "--config", work["config"],
               "--out", str(work["root"] / "ft_nan"), "--task", "los",
               "--init", "scratch"])
    err = capsys.readouterr().err
    assert rc == EXIT_DIVERGED and "validation loss" in err
