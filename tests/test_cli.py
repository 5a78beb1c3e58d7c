"""End-to-end command flows: generate -> pretrain -> finetune -> report."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest
import yaml

import mimoclr
from mimoclr import datapipe, finetune as ft, pretrain as pt
from mimoclr.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, main
from mimoclr.config import pretrain_config
from mimoclr.nncore import checkpoint

CONFIG = {
    "dataset": {
        "seed": 3,
        "train_fraction": 0.8,
        "geometry": {
            "tx_geometry": {"rows": 4, "cols": 4},
            "rx_geometry": {"rows": 2, "cols": 1},
            "n_taps": 32, "n_subcarriers": 64, "bandwidth_hz": 10.0e6,
        },
        "scenarios": [
            {"scenario_id": 0, "n_ue": 40},
            {"scenario_id": 1, "n_ue": 40, "cell_radius": 100.0},
        ],
    },
    "pretrain": {"seed": 0, "batch_size": 16, "lr": 2e-3, "max_epochs": 3,
                 "patience": 30, "holdout_fraction": 0.15,
                 "widths": [4, 8, 16], "embed_dim": 32},
    "finetune": {"batch_size": 16, "lr": 2e-3, "epochs": 2, "head_hidden": 16},
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
    lines = out.splitlines()
    sha_at = next(i for i, line in enumerate(lines) if line.startswith("records sha256: "))
    assert re.fullmatch(r"wall time: scenarios \d+\.\d\d s, build_dataset \d+\.\d\d s",
                        lines[sha_at + 1])
    # same config, same seed: byte-identical dataset
    a = open(work["root"] / "data" / "samples.bin", "rb").read()
    b = open(work["root"] / "data2" / "samples.bin", "rb").read()
    assert a == b


def test_verbose_generate_logs_each_scenario_as_it_finishes(work, tmp_path, capsys):
    runs = {}
    for flags in ([], ["-v"]):
        out = tmp_path / ("v" if flags else "quiet")
        assert main([*flags, "generate", "--config", work["config"], "--out", str(out)]) == 0
        runs[bool(flags)] = (capsys.readouterr().err, (out / "samples.bin").read_bytes())
    assert runs[False][0] == ""
    logged = re.findall(r"^INFO mimoclr\.chanmodel: scenario (\d+): (\d+) samples in \d+\.\d\d s$",
                        runs[True][0], re.MULTILINE)
    assert logged == [("0", "40"), ("1", "40")]
    assert runs[True][1] == runs[False][1]


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


def _one_scenario(tmp_path, n_ue):
    cfg = dict(CONFIG, dataset=dict(CONFIG["dataset"],
                                    scenarios=[{"scenario_id": 0, "n_ue": n_ue}]))
    path = tmp_path / f"ue{n_ue}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_generate_with_no_training_record_exits_config_before_work(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["generate", "--config", _one_scenario(tmp_path, 1), "--out", str(out)])
    assert rc == EXIT_CONFIG and "dataset.train_fraction" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_on_a_split_too_small_to_hold_out_exits_data(tmp_path, capsys):
    cfg_path, data, out = _one_scenario(tmp_path, 12), tmp_path / "data", tmp_path / "pre"
    assert main(["generate", "--config", cfg_path, "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["pretrain", str(data), "--config", cfg_path, "--out", str(out)])
    assert rc == EXIT_DATA and "training split of 9 records too small" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["split", "norm_stats"])
def test_pretrain_on_a_manifest_without_split_or_stats_exits_data(work, tmp_path, capsys, key):
    data, out = tmp_path / "data", tmp_path / "pre"
    shutil.copytree(work["data"], data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest[key] = None
    (data / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["pretrain", str(data), "--config", work["config"], "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA and f"no {key}; generate the dataset again" in err
    assert not out.exists()


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


def _tear_last_row(metrics, work, tmp_path):
    with open(metrics, "a") as f:
        f.write('{"epoch": 3, "train_lo')


def _corrupt_first_row(metrics, work, tmp_path):
    lines = metrics.read_text().splitlines(keepends=True)
    lines[0] = '{"epoch": 1, "train_lo\n'
    metrics.write_text("".join(lines))


def _delete(metrics, work, tmp_path):
    metrics.unlink()


def _other_seeds_file(metrics, work, tmp_path):
    other = tmp_path / "pre_seed5"
    assert main(["pretrain", work["data"], "--config", work["config"],
                 "--out", str(other), "--epochs", "2", "--seed", "5"]) == 0
    assert (other / "pretrain_metrics.jsonl").read_bytes() != metrics.read_bytes()
    shutil.copy(other / "pretrain_metrics.jsonl", metrics)


@pytest.mark.parametrize("damage", [_tear_last_row, _corrupt_first_row, _delete,
                                    _other_seeds_file],
                         ids=["torn_last_row", "corrupt_row", "deleted", "other_seed"])
def test_pretrain_resume_rewrites_the_metrics_file_from_the_checkpoint(work, tmp_path, capsys,
                                                                       damage):
    out_dir = tmp_path / "pre_damaged"
    assert main(["pretrain", work["data"], "--config", work["config"],
                 "--out", str(out_dir), "--epochs", "2"]) == 0
    damage(out_dir / "pretrain_metrics.jsonl", work, tmp_path)
    assert main(["pretrain", work["data"], "--config", work["config"],
                 "--out", str(out_dir), "--resume"]) == 0
    capsys.readouterr()
    assert (out_dir / "pretrain_metrics.jsonl").read_bytes() == \
        open(work["pre"] + "/pretrain_metrics.jsonl", "rb").read()
    assert (out_dir / "pretrain.ckpt").read_bytes() == open(work["ckpt"], "rb").read()


def test_pretrain_resume_with_no_epoch_left_restores_the_metrics_file(work, tmp_path, capsys):
    out_dir = tmp_path / "pre_done"
    shutil.copytree(work["pre"], out_dir)
    (out_dir / "pretrain_metrics.jsonl").unlink()
    capsys.readouterr()
    rc = main(["pretrain", work["data"], "--config", work["config"],
               "--out", str(out_dir), "--resume"])
    out = capsys.readouterr().out
    straight = open(work["pre"] + "/pretrain_metrics.jsonl").read()
    last = json.loads(straight.splitlines()[-1])
    assert rc == 0 and "pretraining finished at epoch 3" in out
    assert f"last epoch: train {last['train_loss']:.4f}, val {last['val_loss']:.4f}" in out
    assert (out_dir / "pretrain_metrics.jsonl").read_text() == straight
    assert (out_dir / "pretrain.ckpt").read_bytes() == open(work["ckpt"], "rb").read()


def test_pretrain_resume_from_a_checkpoint_without_history_exits_config(work, tmp_path, capsys):
    out_dir = tmp_path / "pre_nohist"
    shutil.copytree(work["pre"], out_dir)
    meta, tensors = checkpoint.load_checkpoint(work["ckpt"])
    del meta["history"]
    checkpoint.save_checkpoint(str(out_dir / "pretrain.ckpt"), meta, tensors)
    before = {name: (out_dir / name).read_bytes()
              for name in ("pretrain.ckpt", "pretrain_metrics.jsonl")}
    capsys.readouterr()
    rc = main(["pretrain", work["data"], "--config", work["config"],
               "--out", str(out_dir), "--resume", "--epochs", "4"])
    assert rc == EXIT_CONFIG and "no metrics history" in capsys.readouterr().err
    assert {name: (out_dir / name).read_bytes() for name in before} == before


def test_pretrain_resume_with_changed_seed_exits_config(work, tmp_path, capsys):
    out_dir = tmp_path / "pre_copy"
    shutil.copytree(work["pre"], out_dir)
    before = open(out_dir / "pretrain_metrics.jsonl").read()
    rc = main(["pretrain", work["data"], "--config", work["config"],
               "--out", str(out_dir), "--resume", "--seed", "5"])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG and "seed" in err
    assert open(out_dir / "pretrain_metrics.jsonl").read() == before


@pytest.mark.parametrize("key,value", [
    ("seed", 4),
    ("geometry", dict(CONFIG["dataset"]["geometry"], rx_geometry={"rows": 2, "cols": 2})),
], ids=["other_seed", "other_rx_array"])
def test_pretrain_resume_on_another_dataset_exits_config(work, tmp_path, capsys, key, value):
    other = dict(CONFIG, dataset=dict(CONFIG["dataset"], **{key: value}))
    cfg_path = tmp_path / "other.yaml"
    cfg_path.write_text(yaml.safe_dump(other))
    data = str(tmp_path / "other_data")
    assert main(["generate", "--config", str(cfg_path), "--out", data]) == 0
    out_dir = tmp_path / "pre_copy"
    shutil.copytree(work["pre"], out_dir)
    before = open(out_dir / "pretrain_metrics.jsonl").read()
    capsys.readouterr()
    rc = main(["pretrain", data, "--config", work["config"],
               "--out", str(out_dir), "--resume", "--epochs", "4"])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG and "records_sha256" in err
    assert open(out_dir / "pretrain_metrics.jsonl").read() == before


def _without_version(src, dst):
    """A copy of a pretraining checkpoint as saved before the CIR view was
    the stored taps: the same file without the meta "version" key."""
    meta, tensors = checkpoint.load_checkpoint(src)
    del meta["version"]
    checkpoint.save_checkpoint(dst, meta, tensors)


def test_checkpoint_from_the_padded_cir_view_exits_config(work, tmp_path, capsys):
    out_dir = tmp_path / "pre_old"
    shutil.copytree(work["pre"], out_dir)
    old = str(out_dir / "pretrain.ckpt")
    _without_version(work["ckpt"], old)
    rc = main(["pretrain", work["data"], "--config", work["config"],
               "--out", str(out_dir), "--resume", "--epochs", "4"])
    assert rc == EXIT_CONFIG and "version None, not 2" in capsys.readouterr().err
    for init in ("pretrained", "probe"):
        out = tmp_path / f"ft_{init}"
        rc = main(["finetune", work["data"], "--config", work["config"], "--task", "los",
                   "--init", init, "--checkpoint", old, "--out", str(out)])
        assert rc == EXIT_CONFIG and "version None" in capsys.readouterr().err, init


def test_pretrain_with_unpoolable_taps_exits_config_before_work(tmp_path, capsys):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["dataset"]["geometry"]["n_taps"] = 20      # 20 taps do not pool three times
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    data, out = tmp_path / "data", tmp_path / "pre"
    assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["pretrain", str(data), "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG and "20-tap CIR view" in err
    assert not out.exists()


def _zero_count_exit(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert f"{flag}: must be at least 1, got 0" in capsys.readouterr().err


def test_pretrain_zero_epochs_exits_config_before_work(work, tmp_path, capsys):
    out = tmp_path / "pre0"
    _zero_count_exit(["pretrain", work["data"], "--config", work["config"],
                      "--out", str(out), "--epochs", "0"], "--epochs", capsys)
    assert not out.exists()


def test_finetune_zero_seeds_exits_config_before_work(work, tmp_path, capsys):
    out = tmp_path / "ft0"
    _zero_count_exit(["finetune", work["data"], "--config", work["config"], "--task", "los",
                      "--init", "scratch", "--seeds", "0", "--out", str(out)],
                     "--seeds", capsys)
    assert not out.exists()


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


def test_finetune_scratch_and_pretrained_build_the_declared_encoder(work, capsys):
    out = work["root"] / "ft_arch"
    echoes = {}
    for init in ("scratch", "pretrained"):
        argv = ["finetune", work["data"], "--config", work["config"], "--task", "beam",
                "--init", init, "--epochs", "1", "--out", str(out)]
        if init == "pretrained":
            argv += ["--checkpoint", work["ckpt"]]
        assert main(argv) == 0
        echo = "\n".join(line[2:] for line in capsys.readouterr().out.splitlines()
                         if line.startswith("# "))
        echoes[init] = yaml.safe_load(echo)["pretrain"]
    encoders = [json.load(open(out / f"beam_management_{init}_seed0.json"))["encoder"]
                for init in ("scratch", "pretrained")]
    assert encoders[0] == encoders[1]
    assert encoders[0] == pt.load_pretrain_state(work["ckpt"])[1]["encoder_config"]
    assert echoes["scratch"] == echoes["pretrained"] == {
        "widths": [4, 8, 16], "kernel_size": 3, "embed_dim": 32}


def test_finetune_rejects_architecture_keys_under_finetune(work, tmp_path, capsys):
    cfg = {**CONFIG, "finetune": {**CONFIG["finetune"], "widths": [4, 8, 16],
                                  "embed_dim": 32}}
    cfg_path = tmp_path / "old.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "ft"
    rc = main(["finetune", work["data"], "--config", str(cfg_path), "--task", "los",
               "--init", "scratch", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "['embed_dim', 'widths']" in err and "pretrain" in err
    assert not out.exists()


def test_finetune_opens_the_dataset_once(work, monkeypatch, capsys):
    opened = []
    original = datapipe.open_dataset

    def counting(path):
        opened.append(path)
        return original(path)

    monkeypatch.setattr(datapipe, "open_dataset", counting)
    rc = main(["finetune", work["data"], "--config", work["config"], "--task", "los",
               "--init", "scratch", "--seeds", "3", "--jobs", "1", "--epochs", "1",
               "--out", str(work["root"] / "ft_once")])
    capsys.readouterr()
    assert rc == 0 and len(opened) == 1


def test_finetune_jobs_write_the_same_bytes(work, capsys):
    outs = {}
    for jobs in ("1", "2"):
        out = work["root"] / f"ft_jobs{jobs}"
        assert main(["finetune", work["data"], "--config", work["config"], "--task", "pos",
                     "--init", "pretrained", "--checkpoint", work["ckpt"], "--seeds", "2",
                     "--jobs", jobs, "--out", str(out)]) == 0
        outs[jobs] = ({p.name: p.read_bytes() for p in out.iterdir()},
                      capsys.readouterr().out.replace(str(out), "<out>"))
    assert sorted(outs["1"][0]) == ["positioning_pretrained_seed0.ckpt",
                                    "positioning_pretrained_seed0.json",
                                    "positioning_pretrained_seed1.ckpt",
                                    "positioning_pretrained_seed1.json"]
    assert outs["2"] == outs["1"]


def test_verbose_finetune_workers_log_their_epochs(work, tmp_path, capfd):
    # spawned workers write to fd 2 themselves, so capfd, not capsys
    rc = main(["-v", "finetune", work["data"], "--config", work["config"], "--task", "los",
               "--init", "scratch", "--seeds", "2", "--jobs", "2", "--epochs", "1",
               "--out", str(tmp_path / "ft")])
    err = capfd.readouterr().err
    assert rc == 0
    for seed in (0, 1):
        line = f"INFO mimoclr.finetune: finetune channel_identification scratch seed {seed} epoch 1:"
        assert line in err, err


def test_finetune_workers_default_to_one_blas_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    with ft._worker_pool(2) as pool:
        seen = [pool.submit(os.getenv, var).result(timeout=60) for var in ft.BLAS_THREAD_VARS]
    assert ft.BLAS_THREAD_VARS == ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")
    assert seen == ["1", "1", "3"]
    # the parent's environment is restored
    assert "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ
    assert os.environ["MKL_NUM_THREADS"] == "3"


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
    assert ("== channel_identification (accuracy; higher is better; "
            "labels: full training split) ==") in text
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


def _artifact_copy(work, tmp_path, name, **changes):
    art = json.load(open(work["root"] / "ft_ci" / name))
    path = tmp_path / f"copy_{name}"
    path.write_text(json.dumps({**art, **changes}))
    return str(path)


def test_report_refuses_two_runs_of_one_init_and_seed(work, tmp_path, capsys):
    name = "channel_identification_pretrained_seed0.json"
    original = str(work["root"] / "ft_ci" / name)
    rerun = _artifact_copy(work, tmp_path, name, val_metric=0.25)
    rc = main(["report", original, rerun])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "pretrained run of seed 0" in err and rerun in err


def test_report_refuses_mixed_label_budgets(work, tmp_path, capsys):
    pre = str(work["root"] / "ft_ci" / "channel_identification_pretrained_seed0.json")
    scr = _artifact_copy(work, tmp_path, "channel_identification_scratch_seed0.json",
                         label_budget=20)
    rc = main(["report", pre, scr])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "label budgets 0 and 20" in err and scr in err


# A well-formed artifact as `report` reads it.
RUN = {"kind": "finetune", "task": "beam_management", "init": "scratch", "seed": 0,
       "label_budget": 200, "metric_name": "accuracy", "val_metric": 0.5}


@pytest.mark.parametrize("content,named", [
    ([], "not a mapping"),
    ({"kind": "finetune", "task": "beam"}, "has no 'init'"),
    ({**RUN, "val_metric": "x"}, "'val_metric'"),
    ({**RUN, "val_metric": None}, "'val_metric'"),
    ({**RUN, "val_metric": True}, "'val_metric'"),
    ({**RUN, "seed": 1.5}, "'seed'"),
    ({**RUN, "label_budget": "200"}, "'label_budget'"),
    ({**RUN, "init": "pretrianed"}, "'init'"),
    ({**RUN, "task": "detection"}, "'task'"),
    ({**RUN, "val_metric": float("nan")}, "'val_metric'"),
])
def test_report_refuses_a_malformed_artifact(tmp_path, capsys, content, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    rc = main(["report", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA and str(path) in err and named in err
    assert "Traceback" not in err


def test_report_unreadable_artifact_exit_code(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA and "artifact" in err


@pytest.mark.parametrize("command,code", [("report", EXIT_DATA), ("generate", EXIT_CONFIG)])
def test_a_file_that_is_not_utf8_exits_naming_it(tmp_path, capsys, command, code):
    path = tmp_path / "binary"
    path.write_bytes(bytes(range(256)))
    argv = {"report": ["report", str(path)],
            "generate": ["generate", "--config", str(path), "--out", str(tmp_path / "data")]}
    rc = main(argv[command])
    err = capsys.readouterr().err
    assert rc == code and str(path) in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def _resume_without_checkpoint(work, tmp_path):
    out = tmp_path / "pre"
    return (["pretrain", work["data"], "--config", work["config"], "--out", str(out),
             "--resume"], out / "pretrain.ckpt")


def _finetune_from_missing_checkpoint(work, tmp_path):
    missing = tmp_path / "nowhere.ckpt"
    return (["finetune", work["data"], "--config", work["config"], "--task", "los",
             "--init", "pretrained", "--checkpoint", str(missing),
             "--out", str(tmp_path / "ft")], missing)


def _report_into_missing_dir(work, tmp_path):
    art = tmp_path / "run.json"
    art.write_text(json.dumps(RUN))
    missing = tmp_path / "no_dir"
    return ["report", str(art), "--json", str(missing / "r.json")], missing


def _generate_over_a_file(work, tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    return ["generate", "--config", work["config"], "--out", str(target)], target


@pytest.mark.parametrize("case", [_resume_without_checkpoint, _finetune_from_missing_checkpoint,
                                  _report_into_missing_dir, _generate_over_a_file])
def test_a_file_that_cannot_be_read_or_written_exits_data(work, tmp_path, capsys, case):
    argv, path = case(work, tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_DATA and str(path) in err


def test_finetune_from_a_finetune_checkpoint_exits_data(work, tmp_path, capsys):
    base = ["finetune", work["data"], "--config", work["config"], "--task", "los"]
    assert main([*base, "--init", "scratch", "--epochs", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    other = tmp_path / "channel_identification_scratch_seed0.ckpt"
    rc = main([*base, "--init", "pretrained", "--checkpoint", str(other),
               "--out", str(tmp_path / "ft")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA and str(other) in err and "'finetune'" in err


def test_pretrain_nan_validation_loss_exits_diverged(work, monkeypatch, capsys):
    monkeypatch.setattr(pt, "evaluate_pairs", lambda *a, **k: (float("nan"), 0.5))
    rc = main(["pretrain", work["data"], "--config", work["config"],
               "--out", str(work["root"] / "pre_nan")])
    err = capsys.readouterr().err
    assert rc == EXIT_DIVERGED and "validation loss" in err


def test_finetune_nan_validation_loss_exits_diverged(work, monkeypatch, capsys):
    monkeypatch.setattr(ft, "_val_loss", lambda *a, **k: (float("nan"), None))
    rc = main(["finetune", work["data"], "--config", work["config"],
               "--out", str(work["root"] / "ft_nan"), "--task", "los",
               "--init", "scratch"])
    err = capsys.readouterr().err
    assert rc == EXIT_DIVERGED and "validation loss" in err


@pytest.mark.parametrize("module", ["mimoclr", "mimoclr.cli"])
def test_python_dash_m_runs_the_cli_once(module):
    src = os.path.dirname(os.path.dirname(mimoclr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout.startswith("usage: mimoclr")


_REALLOC_ROUNDS = """
import resource, sys
import numpy as np
from mimoclr.cli import pin_malloc_thresholds
if sys.argv[1] == "pinned":
    pin_malloc_thresholds()
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    bufs = [np.ones(1 << 18) for _ in range(40)]     # 40 x 2 MiB, touched
    del bufs
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[-1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
def test_pinned_malloc_thresholds_reuse_freed_buffers():
    # 80 MiB allocated and freed each round: above glibc's largest dynamic
    # trim threshold, so unpinned every round faults all of it in again
    src = os.path.dirname(os.path.dirname(mimoclr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    last = {}
    for mode in ("default", "pinned"):
        proc = subprocess.run([sys.executable, "-c", _REALLOC_ROUNDS, mode], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        last[mode] = int(proc.stdout)
    assert last["default"] > 5_000           # 80 MiB is 20,480 pages
    assert last["pinned"] < 500


def test_verbose_flag_logs_the_dropped_tail_batch(mini_root, mini_dataset, tmp_path, capsys):
    pcfg = {"seed": 0, "lr": 2e-3, "max_epochs": 1, "widths": [4, 8, 16], "embed_dim": 8}
    n_fit = pt._inner_split(mini_dataset, pretrain_config({"pretrain": pcfg}))[0].size
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump({"pretrain": {**pcfg, "batch_size": n_fit - 1}}))
    runs = {}
    for flags in ([], ["-v"]):
        out = tmp_path / ("v" if flags else "quiet")
        rc = main([*flags, "pretrain", str(mini_root), "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        runs[bool(flags)] = (captured.out.replace(str(out), "<out>"), captured.err,
                             (out / "pretrain_metrics.jsonl").read_bytes(),
                             (out / "pretrain.ckpt").read_bytes())
    assert runs[False][1] == ""
    assert "INFO mimoclr.pretrain: dropping size-1 tail batch at epoch 0" in runs[True][1]
    assert runs[True][0] == runs[False][0]
    assert runs[True][2:] == runs[False][2:]
