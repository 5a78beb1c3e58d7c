"""YAML experiment configs and built-in presets.

A config file has three sections: `dataset` (seed, split fraction, cap, and
the scenario list with a shared `geometry` block), `pretrain`, and
`finetune`.  The encoder architecture (`widths`, `kernel_size`,
`embed_dim`) is declared once, in `pretrain`: fine-tuning, pretrained and
scratch alike, uses that same declaration.  Presets ship inside the package
(`desk` for minutes-scale runs on a laptop CPU, `paper` for the
reference-scale parameters) and any section value can be overridden by a
user file or CLI flag.
"""

import importlib.resources

import yaml

from .chanmodel import ArrayGeometry, ScenarioConfig
from .errors import ConfigError
from .finetune import FinetuneConfig
from .pretrain import ARCHITECTURE_FIELDS, PretrainConfig

_GEOMETRY_KEYS = ("tx_geometry", "rx_geometry", "n_taps", "n_subcarriers",
                  "codebook_size", "bandwidth_hz")


def _denumerify(value):
    # YAML 1.1 reads exponent floats without a sign ("1.0e7") as strings;
    # accept them as numbers anyway
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def builtin_presets() -> list:
    root = importlib.resources.files("mimoclr") / "configs"
    return sorted(p.name[:-len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_config(name_or_path: str) -> dict:
    """Load a config by file path, or by built-in preset name."""
    candidates = [name_or_path]
    text = None
    source = name_or_path
    try:
        with open(name_or_path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError:
        preset = importlib.resources.files("mimoclr") / "configs" / f"{name_or_path}.yaml"
        if preset.is_file():
            text = preset.read_text(encoding="utf-8")
            source = f"preset '{name_or_path}'"
        else:
            raise ConfigError(
                f"config '{name_or_path}' is neither a readable file nor a built-in "
                f"preset (available: {', '.join(builtin_presets())})")
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse {source}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    return cfg


def _geometry(d, field_name) -> ArrayGeometry:
    if not isinstance(d, dict) or "rows" not in d or "cols" not in d:
        raise ConfigError(f"{field_name} needs 'rows' and 'cols', got {d!r}")
    return ArrayGeometry(rows=int(d["rows"]), cols=int(d["cols"]),
                         spacing=float(d.get("spacing", 0.5)))


def scenario_configs(cfg: dict) -> list:
    """Expand the dataset section into validated ScenarioConfigs; the shared
    `geometry` block fills any scenario-level gaps."""
    ds = cfg.get("dataset")
    if not isinstance(ds, dict) or not ds.get("scenarios"):
        raise ConfigError("config needs a dataset section with a nonempty scenario list")
    shared = dict(ds.get("geometry", {}))
    out = []
    for i, entry in enumerate(ds["scenarios"]):
        merged = dict(entry)
        for key in _GEOMETRY_KEYS:
            if key not in merged and key in shared:
                merged[key] = shared[key]
        merged = {k: _denumerify(v) for k, v in merged.items()}
        known = {f.name for f in ScenarioConfig.__dataclass_fields__.values()}
        unknown = set(merged) - known
        if unknown:
            raise ConfigError(f"scenario {i}: unknown keys {sorted(unknown)}")
        for key in ("tx_geometry", "rx_geometry"):
            if key in merged and isinstance(merged[key], dict):
                merged[key] = _geometry(merged[key], key)
        for key in ("scatterer_count", "scatterer_height", "path_count", "bs_position"):
            if key in merged:
                merged[key] = tuple(merged[key])
        try:
            out.append(ScenarioConfig(**merged).validated())
        except TypeError as e:
            raise ConfigError(f"scenario {i}: {e}") from e
    ids = [c.scenario_id for c in out]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate scenario_id in {ids}")
    return out


def dataset_params(cfg: dict) -> dict:
    ds = cfg.get("dataset", {})
    seed = int(ds.get("seed", 0))
    fraction = float(ds.get("train_fraction", 0.8))
    cap = ds.get("cap")
    cap = None if cap in (None, 0) else int(cap)
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"dataset.train_fraction must be in (0,1), got {fraction}")
    return {"seed": seed, "train_fraction": fraction, "cap": cap}


def pretrain_config(cfg: dict, **overrides) -> PretrainConfig:
    section = {k: _denumerify(v) for k, v in dict(cfg.get("pretrain", {})).items()}
    section.update({k: v for k, v in overrides.items() if v is not None})
    return PretrainConfig.from_dict(section)


def finetune_config(cfg: dict, **overrides) -> FinetuneConfig:
    section = {k: _denumerify(v) for k, v in dict(cfg.get("finetune", {})).items()}
    moved = sorted(set(section) & set(ARCHITECTURE_FIELDS))
    if moved:
        raise ConfigError(f"finetune keys {moved} are not allowed: the encoder "
                          f"architecture is declared once, under pretrain")
    section.update({k: v for k, v in overrides.items() if v is not None})
    return FinetuneConfig.from_dict(section)
