"""YAML experiment configs and built-in presets.

A config file is a mapping of at most three sections, each a mapping:
`dataset` (seed, split fraction, cap, and the scenario list; its shared
`geometry` block gives defaults for any scenario field), `pretrain`, and
`finetune`.  The encoder architecture (`widths`, `kernel_size`,
`embed_dim`) is declared once, in `pretrain`: fine-tuning, pretrained and
scratch alike, uses that same declaration.  Presets ship inside the package
(`desk` for minutes-scale runs on a laptop CPU, `paper` for the
reference-scale parameters) and any section value can be overridden by a
user file or CLI flag.

Each section, scenario entry and array geometry is read by one reader,
`pretrain.config_from_dict`, from the field types its dataclass declares:
a list is read as a tuple, an int or a numeric string as a float (YAML 1.1
reads `1.0e7` as a string).  Any other type mismatch, a bool for an int
included, and any unknown key or section is a ConfigError naming it.
"""

import dataclasses
import importlib.resources

import yaml

from .chanmodel import ScenarioConfig
from .errors import ConfigError
from .finetune import FinetuneConfig
from .pretrain import ARCHITECTURE_FIELDS, PretrainConfig, config_from_dict

SECTIONS = ("dataset", "pretrain", "finetune")


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    seed: int = 0
    train_fraction: float = 0.8
    cap: int = 0                    # records kept over all scenarios; 0 keeps all
    geometry: dict = dataclasses.field(default_factory=dict)   # scenario field defaults
    scenarios: list = dataclasses.field(default_factory=list)  # ScenarioConfig mappings

    def validated(self) -> "DatasetConfig":
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"dataset.train_fraction must be in (0,1), got {self.train_fraction}")
        return self


def builtin_presets() -> list:
    root = importlib.resources.files("mimoclr") / "configs"
    return sorted(p.name[:-len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_config(name_or_path: str) -> dict:
    """Load a config by file path, or by built-in preset name, as the raw
    mapping of its sections."""
    source = name_or_path
    try:
        with open(name_or_path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError:
        preset = importlib.resources.files("mimoclr") / "configs" / f"{name_or_path}.yaml"
        if not preset.is_file():
            raise ConfigError(
                f"config '{name_or_path}' is neither a readable file nor a built-in "
                f"preset (available: {', '.join(builtin_presets())})")
        text = preset.read_text(encoding="utf-8")
        source = f"preset '{name_or_path}'"
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse {source}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    for name, section in cfg.items():
        if name not in SECTIONS:
            raise ConfigError(f"{source}: unknown section {name!r} (sections: {', '.join(SECTIONS)})")
        if not isinstance(section, dict):
            raise ConfigError(f"{source}: section {name} must be a mapping, got {section!r}")
    return cfg


def _dataset_config(cfg: dict) -> DatasetConfig:
    return config_from_dict(DatasetConfig, cfg.get("dataset", {}), "dataset")


def scenario_configs(cfg: dict) -> list:
    """The dataset section's scenarios as validated ScenarioConfigs, each
    entry read over the shared `geometry` defaults."""
    ds = _dataset_config(cfg)
    if not ds.scenarios:
        raise ConfigError("config needs a dataset section with a nonempty scenario list")
    out = [config_from_dict(ScenarioConfig, {**ds.geometry, **e} if isinstance(e, dict) else e,
                            f"dataset.scenarios[{i}]") for i, e in enumerate(ds.scenarios)]
    ids = [c.scenario_id for c in out]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate scenario_id in {ids}")
    return out


def dataset_params(cfg: dict) -> dict:
    ds = _dataset_config(cfg)
    return {"seed": ds.seed, "train_fraction": ds.train_fraction, "cap": ds.cap or None}


def pretrain_config(cfg: dict, **overrides) -> PretrainConfig:
    given = {k: v for k, v in overrides.items() if v is not None}
    return PretrainConfig.from_dict({**cfg.get("pretrain", {}), **given})


def finetune_config(cfg: dict, **overrides) -> FinetuneConfig:
    section = cfg.get("finetune", {})
    moved = sorted(set(section) & set(ARCHITECTURE_FIELDS))
    if moved:
        raise ConfigError(f"finetune keys {moved} are not allowed: the encoder "
                          f"architecture is declared once, under pretrain")
    given = {k: v for k, v in overrides.items() if v is not None}
    return FinetuneConfig.from_dict({**section, **given})
