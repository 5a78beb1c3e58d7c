"""YAML experiment configs, the dataclasses they are read into, and the one
reader.

A config file is a mapping of at most three sections, each a mapping:
`dataset` (seed, split fraction, `geometry`: the dataset's chanmodel.Layout,
and the scenario list, each entry one environment; YAML merge keys, `<<:
*env`, share values between entries), `pretrain`, and `finetune`.  The
encoder architecture (`widths`, `kernel_size`, `embed_dim`) is declared
once, in `pretrain`: fine-tuning, pretrained and scratch alike, uses that
same declaration.  Presets ship inside the package
(`desk` for minutes-scale runs on a laptop CPU, `paper` for the
reference-scale parameters) and any section value can be overridden by a
user file or CLI flag.

Each section, scenario entry and array geometry is read by one reader,
`config_from_dict(cls, d, section)`, from the field types its dataclass
declares.  A mapping is read as a nested dataclass.  A list is read as a
tuple of the declared length and element types (`tuple[int, ...]` takes
any length), each element by the same rules.  An int or a numeric string
is read as a float (YAML 1.1 reads `1.0e7` as a string), and a float must
be finite.  Any other type mismatch, a bool for an int included, a wrong
tuple length, a NaN or infinity, and any unknown or missing key or section
is a ConfigError naming it, down to the element (`pretrain.widths[1]`).
Every config dataclass checks its values in `__post_init__`, so a value
out of range is a ConfigError when the config is built, by this reader,
directly or by `dataclasses.replace`.
"""

import dataclasses
import importlib.resources
import math
import typing

import yaml

from .chanmodel import Layout, ScenarioConfig
from .errors import ConfigError
from .nncore.layers import EncoderConfig, check_architecture

SECTIONS = ("dataset", "pretrain", "finetune")

# The PretrainConfig fields that declare the encoder architecture.  The
# supervised baseline and every fine-tune run use this same declaration.
ARCHITECTURE_FIELDS = ("widths", "kernel_size", "embed_dim")


def config_from_dict(cls, d, section: str):
    """Read the mapping `d` into the dataclass `cls` by its fields' declared
    types; errors name keys under `section`.  Building `cls` checks values;
    a range error that does not already name `section` gets it in front."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a mapping, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(f"{section}.{k}" for k in set(d) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    missing = [f"{section}.{n}" for n, f in fields.items() if n not in d
               and f.default is dataclasses.MISSING is f.default_factory]
    if missing:
        raise ConfigError(f"missing config keys {missing}")
    values = {k: _read_field(fields[k].type, v, f"{section}.{k}") for k, v in d.items()}
    try:
        return cls(**values)
    except ConfigError as e:
        if str(e).startswith(section):
            raise
        raise ConfigError(f"{section}: {e}") from None


def _read_field(kind, value, name: str):
    if dataclasses.is_dataclass(kind) and isinstance(value, dict):
        return config_from_dict(kind, value, name)
    if typing.get_origin(kind) is tuple and type(value) in (list, tuple):
        kinds = typing.get_args(kind)
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        if len(value) != len(kinds):
            raise ConfigError(f"{name} must have {len(kinds)} elements, got {value!r}")
        return tuple(_read_field(k, v, f"{name}[{i}]")
                     for i, (k, v) in enumerate(zip(kinds, value)))
    if kind is float and type(value) in (float, int, str):
        try:
            number = float(value)
        except ValueError:
            pass
        else:
            if not math.isfinite(number):
                raise ConfigError(f"{name} must be a finite float, got {value!r}")
            return number
    if type(value) is not kind:
        raise ConfigError(f"{name} must be {getattr(kind, '__name__', kind)}, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    seed: int = 0
    train_fraction: float = 0.8
    geometry: Layout = dataclasses.field(default_factory=Layout)
    scenarios: tuple[ScenarioConfig, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"dataset.train_fraction must be in (0,1), got {self.train_fraction}")
        if not self.scenarios:
            raise ConfigError("config needs a dataset section with a nonempty scenario list")
        ids = [c.scenario_id for c in self.scenarios]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate scenario_id in {ids}")
        for i, c in enumerate(self.scenarios):
            # the farthest UE sits on the cell edge opposite the BS
            far = math.hypot(c.cell_radius + math.hypot(*c.bs_position[:2]),
                             c.bs_position[2] - c.ue_height)
            if round(far / self.geometry.tap_length_m) >= self.geometry.n_taps:
                raise ConfigError(
                    f"dataset.scenarios[{i}].cell_radius {c.cell_radius}: a UE on the cell "
                    f"edge is {far:.1f} m from the BS, beyond the {self.geometry.n_taps}-tap "
                    f"grid of {self.geometry.tap_length_m:.2f} m taps")
        n_records = sum(c.n_ue for c in self.scenarios)   # one record per UE
        if math.floor(n_records * self.train_fraction) == 0:
            raise ConfigError(f"dataset.train_fraction {self.train_fraction} of "
                              f"{n_records} records leaves no training record")


@dataclasses.dataclass(frozen=True)
class PretrainConfig:
    seed: int = 0
    batch_size: int = 128
    lr: float = 8e-4
    weight_decay: float = 0.01
    max_epochs: int = 300
    patience: int = 30
    lr_factor: float = 0.8
    lr_interval: int = 10
    tau_init: float = 0.07
    tau_min: float = 0.01
    symmetric: bool = False
    holdout_fraction: float = 0.1
    widths: tuple[int, ...] = (16, 32, 64)
    kernel_size: int = 3
    embed_dim: int = 128

    def __post_init__(self):
        _at_least(self, "pretrain", 2, "batch_size")
        _at_least(self, "pretrain", 1, "max_epochs", "patience", "lr_interval")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ConfigError(f"holdout_fraction must be in (0,1), got {self.holdout_fraction}")
        if self.tau_init < self.tau_min or self.tau_min <= 0:
            raise ConfigError(f"need tau_init >= tau_min > 0, got {self.tau_init}, {self.tau_min}")
        _at_least(self, "pretrain", 0, "lr", "weight_decay")
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigError(f"pretrain.lr_factor must be in (0,1), got {self.lr_factor}")
        check_architecture(self.widths, self.kernel_size, self.embed_dim, "pretrain.")

    def encoder_config(self, in_height: int, in_width: int) -> EncoderConfig:
        """The declared encoder architecture at an input of in_height x
        in_width bins: the one place an EncoderConfig is built from config
        values."""
        return EncoderConfig(in_height=in_height, in_width=in_width, widths=self.widths,
                             kernel_size=self.kernel_size, embed_dim=self.embed_dim)


@dataclasses.dataclass(frozen=True)
class FinetuneConfig:
    batch_size: int = 32
    lr: float = 8e-4
    weight_decay: float = 0.01
    epochs: int = 40
    label_budget: int = 0          # 0 = use the full training split
    head_hidden: int = 64

    def __post_init__(self):
        _at_least(self, "finetune", 1, "batch_size", "epochs", "head_hidden")
        _at_least(self, "finetune", 0, "lr", "weight_decay", "label_budget")


def _at_least(config, section: str, minimum, *keys) -> None:
    """Refuse a value of `keys` below `minimum`, naming it under `section`."""
    for key in keys:
        if getattr(config, key) < minimum:
            raise ConfigError(f"{section}.{key} must be >= {minimum}, got {getattr(config, key)}")


def builtin_presets() -> list:
    root = importlib.resources.files("mimoclr") / "configs"
    return sorted(p.name[:-len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_config(name_or_path: str) -> dict:
    """Load a config by file path, or by built-in preset name, as the raw
    mapping of its sections; a file that is not UTF-8 text does not parse."""
    source = name_or_path
    try:
        with open(name_or_path, "rb") as f:
            raw = f.read()
    except OSError:
        preset = importlib.resources.files("mimoclr") / "configs" / f"{name_or_path}.yaml"
        if not preset.is_file():
            raise ConfigError(
                f"config '{name_or_path}' is neither a readable file nor a built-in "
                f"preset (available: {', '.join(builtin_presets())})")
        raw = preset.read_bytes()
        source = f"preset '{name_or_path}'"
    try:
        cfg = yaml.safe_load(raw)
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


def dataset_config(cfg: dict) -> DatasetConfig:
    return config_from_dict(DatasetConfig, cfg.get("dataset", {}), "dataset")


def pretrain_config(cfg: dict, **overrides) -> PretrainConfig:
    given = {k: v for k, v in overrides.items() if v is not None}
    return config_from_dict(PretrainConfig, {**cfg.get("pretrain", {}), **given}, "pretrain")


def finetune_config(cfg: dict, **overrides) -> FinetuneConfig:
    section = cfg.get("finetune", {})
    moved = sorted(set(section) & set(ARCHITECTURE_FIELDS))
    if moved:
        raise ConfigError(f"finetune keys {moved} are not allowed: the encoder "
                          f"architecture is declared once, under pretrain")
    given = {k: v for k, v in overrides.items() if v is not None}
    return config_from_dict(FinetuneConfig, {**section, **given}, "finetune")
