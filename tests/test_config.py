"""Preset loading and config expansion."""

import pytest
import yaml

from mimoclr import config as C
from mimoclr.errors import ConfigError
from mimoclr.pretrain import ARCHITECTURE_FIELDS


def test_builtin_presets_present():
    names = C.builtin_presets()
    assert "desk" in names and "paper" in names


@pytest.mark.parametrize("name", ["desk", "paper"])
def test_presets_expand(name):
    cfg = C.load_config(name)
    scens = C.scenario_configs(cfg)
    assert len(scens) >= 2
    for s in scens:
        assert isinstance(s.bandwidth_hz, float) and s.bandwidth_hz > 0
    params = C.dataset_params(cfg)
    assert 0 < params["train_fraction"] < 1
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
    for s in C.scenario_configs(cfg):
        p = s.rx_geometry.n_elements * s.tx_geometry.n_elements
        enc = pcfg.encoder_config(p, s.n_subcarriers)
        assert (enc.in_height, enc.in_width) == (p, s.n_subcarriers)
        assert (enc.widths, enc.kernel_size, enc.embed_dim) == \
            (pcfg.widths, pcfg.kernel_size, pcfg.embed_dim)
    assert not set(cfg["finetune"]) & set(ARCHITECTURE_FIELDS)


def test_desk_preset_values():
    cfg = C.load_config("desk")
    scens = C.scenario_configs(cfg)
    assert len(scens) == 4
    assert sum(c.n_ue for c in scens) == 2560
    assert all(c.n_subcarriers == 64 and c.n_taps == 32 for c in scens)
    assert all(c.tx_geometry.n_elements == 16 for c in scens)


def test_unknown_config_rejected():
    with pytest.raises(ConfigError, match="preset"):
        C.load_config("warehouse")


def test_yaml_unsigned_exponent_becomes_float(tmp_path):
    # YAML 1.1 parses "2.0e7" (no exponent sign) as a string; the loader
    # should still treat it as a number
    text = """
dataset:
  geometry: {tx_geometry: {rows: 2, cols: 2}, rx_geometry: {rows: 2, cols: 1},
             n_taps: 32, n_subcarriers: 64, codebook_size: 4, bandwidth_hz: 2.0e7}
  scenarios: [{scenario_id: 0, n_ue: 4}]
pretrain: {lr: 5.0e4}
"""
    p = tmp_path / "c.yaml"
    p.write_text(text)
    cfg = C.load_config(str(p))
    assert isinstance(yaml.safe_load(text)["pretrain"]["lr"], str)  # the trap is real
    assert C.scenario_configs(cfg)[0].bandwidth_hz == 2.0e7
    assert C.pretrain_config(cfg).lr == 5.0e4


def test_scenario_overrides_shared_geometry(tmp_path):
    text = """
dataset:
  geometry: {tx_geometry: {rows: 2, cols: 2}, rx_geometry: {rows: 2, cols: 1},
             n_taps: 32, n_subcarriers: 64, codebook_size: 4, bandwidth_hz: 1.0e+7}
  scenarios:
    - {scenario_id: 0, n_ue: 4}
    - {scenario_id: 1, n_ue: 4, codebook_size: 16, tx_geometry: {rows: 4, cols: 4}}
"""
    p = tmp_path / "c.yaml"
    p.write_text(text)
    scens = C.scenario_configs(C.load_config(str(p)))
    assert scens[0].codebook_size == 4 and scens[1].codebook_size == 16
    assert scens[1].tx_geometry.rows == 4


def test_duplicate_scenario_ids_rejected(tmp_path):
    text = """
dataset:
  geometry: {tx_geometry: {rows: 2, cols: 2}, rx_geometry: {rows: 2, cols: 1},
             n_taps: 32, n_subcarriers: 64, codebook_size: 4, bandwidth_hz: 1.0e+7}
  scenarios: [{scenario_id: 0, n_ue: 4}, {scenario_id: 0, n_ue: 8}]
"""
    p = tmp_path / "c.yaml"
    p.write_text(text)
    with pytest.raises(ConfigError, match="duplicate"):
        C.scenario_configs(C.load_config(str(p)))


def test_unknown_scenario_key_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("dataset:\n  scenarios: [{scenario_id: 0, n_ue: 4, carrier: 3.5}]\n")
    with pytest.raises(ConfigError, match="carrier"):
        C.scenario_configs(C.load_config(str(p)))


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
