"""Preset loading and config expansion."""

import copy
import dataclasses
import re

import pytest
import yaml

from mimoclr import config as C
from mimoclr.chanmodel import Layout, ScenarioConfig
from mimoclr.cli import EXIT_CONFIG, main
from mimoclr.errors import ConfigError
from mimoclr.nncore.layers import EncoderConfig, HeadConfig


def test_builtin_presets_present():
    names = C.builtin_presets()
    assert "desk" in names and "paper" in names


@pytest.mark.parametrize("name", ["desk", "paper"])
def test_presets_expand(name):
    cfg = C.load_config(name)
    ds = C.dataset_config(cfg)
    assert len(ds.scenarios) >= 2
    assert isinstance(ds.geometry.bandwidth_hz, float) and ds.geometry.bandwidth_hz > 0
    assert 0 < ds.train_fraction < 1
    pcfg = C.pretrain_config(cfg)
    assert isinstance(pcfg.lr, float) and pcfg.lr > 0
    fcfg = C.finetune_config(cfg)
    assert fcfg.epochs >= 1


@pytest.mark.parametrize("name", ["desk", "paper"])
def test_preset_architecture_fits_its_geometry(name):
    """The one architecture declaration, under pretrain, pools cleanly at the
    preset's own input of P = rx x tx antenna pairs by K subcarriers."""
    cfg = C.load_config(name)
    pcfg = C.pretrain_config(cfg)
    geo = C.dataset_config(cfg).geometry
    p = geo.rx_geometry.n_elements * geo.tx_geometry.n_elements
    enc = pcfg.encoder_config(p, geo.n_subcarriers)
    assert (enc.in_height, enc.in_width) == (p, geo.n_subcarriers)
    assert (enc.widths, enc.kernel_size, enc.embed_dim) == \
        (pcfg.widths, pcfg.kernel_size, pcfg.embed_dim)
    assert not set(cfg["finetune"]) & set(C.ARCHITECTURE_FIELDS)


def test_desk_preset_values():
    ds = C.dataset_config(C.load_config("desk"))
    scens = ds.scenarios
    assert len(scens) == 4
    assert sum(c.n_ue for c in scens) == 2560
    assert (ds.geometry.n_subcarriers, ds.geometry.n_taps) == (64, 32)
    assert ds.geometry.tx_geometry.n_elements == 16


ONE_SCENARIO = ScenarioConfig(scenario_id=0, n_ue=4)
# (a valid config, a field change that makes it invalid): one per config type
BAD_REPLACEMENTS = [
    (Layout(), {"n_taps": 0}),
    (ONE_SCENARIO, {"blockage_prob": 1.5}),
    (EncoderConfig(in_height=8, in_width=8), {"widths": (8, -4)}),
    (HeadConfig(in_dim=4, hidden_dim=4, out_dim=2), {"out_dim": 0}),
    (C.DatasetConfig(scenarios=(ONE_SCENARIO,)), {"scenarios": (ONE_SCENARIO, ONE_SCENARIO)}),
    (C.PretrainConfig(), {"lr_factor": 1.0}),
    (C.FinetuneConfig(), {"weight_decay": -5.0}),
]


@pytest.mark.parametrize("valid,change", BAD_REPLACEMENTS,
                         ids=[type(valid).__name__ for valid, _ in BAD_REPLACEMENTS])
def test_replace_cannot_build_an_invalid_config(valid, change):
    with pytest.raises(ConfigError):
        dataclasses.replace(valid, **change)


def test_unknown_config_rejected():
    with pytest.raises(ConfigError, match="preset"):
        C.load_config("warehouse")


def test_yaml_unsigned_exponent_becomes_float(tmp_path):
    # YAML 1.1 parses "2.0e7" (no exponent sign) as a string; the loader
    # should still treat it as a number
    text = """
dataset:
  geometry: {tx_geometry: {rows: 2, cols: 2}, rx_geometry: {rows: 2, cols: 1},
             n_taps: 32, n_subcarriers: 64, bandwidth_hz: 2.0e7}
  scenarios: [{scenario_id: 0, n_ue: 4}]
pretrain: {lr: 5.0e4}
"""
    p = tmp_path / "c.yaml"
    p.write_text(text)
    cfg = C.load_config(str(p))
    assert isinstance(yaml.safe_load(text)["pretrain"]["lr"], str)  # the trap is real
    assert C.dataset_config(cfg).geometry.bandwidth_hz == 2.0e7
    assert C.pretrain_config(cfg).lr == 5.0e4


def test_duplicate_scenario_ids_rejected(tmp_path):
    text = """
dataset:
  geometry: {tx_geometry: {rows: 2, cols: 2}, rx_geometry: {rows: 2, cols: 1},
             n_taps: 32, n_subcarriers: 64, bandwidth_hz: 1.0e+7}
  scenarios: [{scenario_id: 0, n_ue: 4}, {scenario_id: 0, n_ue: 8}]
"""
    p = tmp_path / "c.yaml"
    p.write_text(text)
    with pytest.raises(ConfigError, match="duplicate"):
        C.dataset_config(C.load_config(str(p)))


def test_unknown_scenario_key_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("dataset:\n  scenarios: [{scenario_id: 0, n_ue: 4, carrier: 3.5}]\n")
    with pytest.raises(ConfigError, match="carrier"):
        C.dataset_config(C.load_config(str(p)))


def test_override_merge():
    cfg = C.load_config("desk")
    pcfg = C.pretrain_config(cfg, seed=42, max_epochs=7)
    assert pcfg.seed == 42 and pcfg.max_epochs == 7
    fcfg = C.finetune_config(cfg, label_budget=200)
    assert fcfg.label_budget == 200
    # None overrides fall through to the file values
    assert C.pretrain_config(cfg, seed=None).seed == 0


def test_malformed_yaml_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("dataset: [unbalanced\n")
    with pytest.raises(ConfigError):
        C.load_config(str(p))
    p.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="mapping"):
        C.load_config(str(p))


BASE = {
    "dataset": {"seed": 3, "train_fraction": 0.8,
                "geometry": {"tx_geometry": {"rows": 2, "cols": 2, "spacing": 0.5},
                             "rx_geometry": {"rows": 2, "cols": 1},
                             "n_taps": 32, "n_subcarriers": 64, "bandwidth_hz": 1.0e7},
                "scenarios": [{"scenario_id": 0, "n_ue": 4}]},
    "pretrain": {"batch_size": 16, "lr": 1.0e-3, "widths": [4, 8, 16], "embed_dim": 8},
    "finetune": {"batch_size": 8, "epochs": 2},
}

# (where the malformed value goes, the value, text the error must name)
MALFORMED = [
    (("pretrian",), {"lr": 1.0e-3}, "pretrian"),
    (("dataset", "train_frac"), 0.7, "dataset.train_frac"),
    (("dataset", "geometry", "n_tap"), 16, "n_tap"),
    (("dataset", "geometry", "tx_geometry", "spcing"), 0.4, "tx_geometry.spcing"),
    (("pretrain", "lr"), "abc", "pretrain.lr"),
    (("pretrain", "batch_size"), 64.5, "pretrain.batch_size"),
    (("pretrain", "batch_size"), True, "pretrain.batch_size"),
    (("pretrain",), None, "pretrain"),
    (("pretrain",), [1, 2], "pretrain"),
    (("dataset",), 5, "dataset"),
    (("dataset", "scenarios", 0), [1, 2], "dataset.scenarios[0]"),
    (("dataset", "seed"), "abc", "dataset.seed"),
    (("dataset", "train_fraction"), "x", "dataset.train_fraction"),
    (("dataset", "cap"), "x", "dataset.cap"),
    (("pretrain", "widths"), 8, "pretrain.widths"),
    (("finetune", "epochs"), "ten", "finetune.epochs"),
    (("dataset", "geometry", "tx_geometry"), 4, "tx_geometry"),
    (("dataset", "scenarios", 0, "scatterer_count"), [24, "x"],
     "dataset.scenarios[0].scatterer_count[1]"),
    (("dataset", "scenarios", 0, "bs_position"), [0.0, 0.0], "dataset.scenarios[0].bs_position"),
    (("pretrain", "widths"), [4, 8.5, 16], "pretrain.widths[1]"),
    (("dataset", "scenarios", 0, "path_count"), [3], "dataset.scenarios[0].path_count"),
    (("pretrain", "lr"), "nan", "pretrain.lr"),
    (("dataset", "geometry", "bandwidth_hz"), float("inf"), "dataset.geometry.bandwidth_hz"),
    (("dataset", "geometry", "bandwidth_hz"), 0.0, "dataset.geometry.bandwidth_hz"),
    (("dataset", "geometry", "bandwidth_hz"), -1.0e7, "dataset.geometry.bandwidth_hz"),
    (("dataset", "geometry", "n_taps"), 0, "dataset.geometry.n_taps"),
    (("dataset", "scenarios", 0, "n_taps"), 16, "dataset.scenarios[0].n_taps"),
    (("dataset", "scenarios", 0, "bandwidth_hz"), 2.0e7, "dataset.scenarios[0].bandwidth_hz"),
    (("dataset", "geometry", "codebook_size"), 16, "dataset.geometry.codebook_size"),
    (("pretrain", "lr"), -0.001, "pretrain.lr"),
    (("pretrain", "lr_factor"), 1.0, "pretrain.lr_factor"),
    (("pretrain", "lr_factor"), 0.0, "pretrain.lr_factor"),
    (("pretrain", "lr_interval"), 0, "pretrain.lr_interval"),
    (("pretrain", "widths"), [4, -4, 16], "pretrain.widths"),
    (("pretrain", "widths"), [], "pretrain.widths"),
    (("pretrain", "kernel_size"), 4, "pretrain.kernel_size"),
    (("pretrain", "embed_dim"), 0, "pretrain.embed_dim"),
    (("pretrain", "weight_decay"), -5, "pretrain.weight_decay"),
    (("finetune", "weight_decay"), -5, "finetune.weight_decay"),
    (("finetune", "lr"), -0.001, "finetune.lr"),
    (("finetune", "epochs"), 0, "finetune.epochs"),
    (("finetune", "batch_size"), 0, "finetune.batch_size"),
    (("finetune", "head_hidden"), 0, "finetune.head_hidden"),
    (("pretrain", "max_epochs"), 0, "pretrain.max_epochs"),
    (("pretrain", "patience"), 0, "pretrain.patience"),
    (("dataset", "scenarios", 0, "n_ue"), 0, "dataset.scenarios[0]: n_ue"),
    (("dataset", "geometry", "rx_geometry", "rows"), 0,
     "dataset.geometry.rx_geometry: array needs rows"),
    (("pretrain", "holdout_fraction"), 1.5, "pretrain: holdout_fraction"),
    (("pretrain", "tau_min"), 0, "pretrain: need tau_init >= tau_min"),
    # a UE on the edge of a 960 m cell is 960.3 m from the BS: delay tap 32
    (("dataset", "scenarios", 0, "cell_radius"), 960.0, "dataset.scenarios[0].cell_radius"),
]
MALFORMED_IDS = [".".join(map(str, where)) + f"={value!r}" for where, value, _ in MALFORMED]


def malformed_config(tmp_path, where, value) -> str:
    cfg = copy.deepcopy(BASE)
    *parents, last = where
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_base_config_reads(tmp_path):
    cfg = C.load_config(malformed_config(tmp_path, ("dataset", "seed"), 3))
    ds = C.dataset_config(cfg)
    assert (ds.seed, ds.train_fraction) == (3, 0.8)
    assert ds.geometry.tx_geometry.n_elements == 4
    assert C.pretrain_config(cfg).widths == (4, 8, 16)
    assert C.finetune_config(cfg).epochs == 2


@pytest.mark.parametrize("where,value,named", MALFORMED,
                         ids=MALFORMED_IDS)
def test_reader_refuses_malformed_values(tmp_path, where, value, named):
    path = malformed_config(tmp_path, where, value)
    with pytest.raises(ConfigError, match=re.escape(named)):
        cfg = C.load_config(path)
        C.dataset_config(cfg)
        C.pretrain_config(cfg)
        C.finetune_config(cfg)


@pytest.mark.parametrize("where,value,named", MALFORMED,
                         ids=MALFORMED_IDS)
def test_cli_exits_config_on_malformed_values(tmp_path, capsys, where, value, named):
    path = malformed_config(tmp_path, where, value)
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    argv = {"pretrain": ["pretrain", data, "--config", path, "--out", out],
            "finetune": ["finetune", data, "--config", path, "--out", out,
                         "--task", "los", "--init", "scratch"]}.get(
        where[0], ["generate", "--config", path, "--out", data])
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_generate_echo_reads_back(tmp_path, capsys):
    """The dataset block `generate` echoes, nested geometry and tuples
    included, reads back as a dataset section into the same seed, split
    fraction, layout and scenarios."""
    path = malformed_config(tmp_path, ("dataset", "scenarios", 0, "scatterer_count"), [4, 8])
    assert main(["generate", "--config", path, "--out", str(tmp_path / "data")]) == 0
    echo = "\n".join(line[2:] for line in capsys.readouterr().out.splitlines()
                     if line.startswith("# "))
    echoed = tmp_path / "echoed.yaml"
    echoed.write_text(yaml.safe_dump({"dataset": yaml.safe_load(echo)["dataset"]}))
    ds, again = C.dataset_config(C.load_config(path)), C.dataset_config(C.load_config(str(echoed)))
    assert (again.seed, again.train_fraction) == (ds.seed, ds.train_fraction)
    assert again.geometry == ds.geometry
    assert again.scenarios == ds.scenarios


def test_scenarios_share_values_through_merge_keys(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("""
dataset:
  scenarios:
    - &env {scenario_id: 0, n_ue: 4, cell_radius: 100, scatterer_count: [4, 8]}
    - {<<: *env, scenario_id: 1, cell_radius: 90.0}
""")
    a, b = C.dataset_config(C.load_config(str(p))).scenarios
    assert a.cell_radius == 100.0 and isinstance(a.cell_radius, float)
    assert (b.scenario_id, b.n_ue, b.cell_radius) == (1, 4, 90.0)
    assert a.scatterer_count == b.scatterer_count == (4, 8)
