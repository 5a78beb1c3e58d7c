"""Downstream adaptation of the frequency-view encoder.

A two-layer head goes on top of the encoder and the whole stack trains on
labeled samples (the supervised baseline trains the identical architecture
from a fresh init).  The controlled-comparison contract: for a given
(seed, task, dataset), head initialization, labeled-subset selection, and
data order are all derived independently of the init mode, so a pretrained
and a scratch run differ in encoder initialization and nothing else.

Tasks:
    positioning              -> coordinate regression, squared-error loss,
                                reported as mean error distance in meters
    beam_management          -> B-way classification, cross-entropy
    channel_identification   -> LoS/NLoS binary classification, cross-entropy
"""

import dataclasses
import math

import numpy as np

from .datapipe import Dataset, load_batch
from .errors import (ConfigError, ContractError, DataError, DegenerateDataError,
                     TrainingDivergenceError)
from .nncore.layers import Encoder, EncoderConfig, Head, HeadConfig, prefixed
from .nncore.losses import cross_entropy_loss, mse_loss
from .nncore.optim import AdamW
from .nncore.tensor import Tensor, no_grad
from .pretrain import encode_batch, load_pretrain_state
from .rngstream import stream

KIND_ALIASES = {
    "positioning": "positioning", "pos": "positioning",
    "beam": "beam_management", "bm": "beam_management",
    "beam_management": "beam_management",
    "los": "channel_identification", "ci": "channel_identification",
    "channel_identification": "channel_identification",
}

_LABEL_KEY = {"positioning": "positioning", "beam_management": "beam",
              "channel_identification": "los"}


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    kind: str
    out_dim: int

    @property
    def is_classification(self) -> bool:
        return self.kind != "positioning"

    @property
    def metric_name(self) -> str:
        return "mean_error_m" if self.kind == "positioning" else "accuracy"


def make_task_spec(kind: str, dataset: Dataset, coordinate_dim: int = 2) -> TaskSpec:
    canonical = KIND_ALIASES.get(kind)
    if canonical is None:
        raise ConfigError(f"unknown task '{kind}' (expected one of {sorted(set(KIND_ALIASES))})")
    if canonical == "positioning":
        if coordinate_dim not in (2, 3):
            raise ConfigError(f"coordinate_dim must be 2 or 3, got {coordinate_dim}")
        return TaskSpec(canonical, coordinate_dim)
    if canonical == "beam_management":
        return TaskSpec(canonical, int(dataset.manifest["codebook"]["n_beams"]))
    return TaskSpec(canonical, 2)


@dataclasses.dataclass(frozen=True)
class FinetuneConfig:
    batch_size: int = 32
    lr: float = 8e-4
    weight_decay: float = 0.01
    epochs: int = 40
    label_budget: int = 0          # 0 = use the full training split
    head_hidden: int = 64
    coordinate_dim: int = 2
    widths: tuple = (16, 32, 64)
    kernel_size: int = 3
    embed_dim: int = 128

    def validated(self) -> "FinetuneConfig":
        if self.batch_size < 1 or self.epochs < 1 or self.head_hidden < 1:
            raise ConfigError(f"bad finetune config: {self}")
        if self.label_budget < 0:
            raise ConfigError(f"label_budget must be >= 0, got {self.label_budget}")
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "FinetuneConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown finetune config keys: {sorted(unknown)}")
        d = dict(d)
        if "widths" in d:
            d["widths"] = tuple(d["widths"])
        return cls(**d).validated()


@dataclasses.dataclass
class FinetuneRun:
    task: TaskSpec
    init_mode: str                 # "pretrained" | "scratch"
    seed: int
    config: FinetuneConfig
    encoder: Encoder
    head: Head
    freeze_encoder: bool = False
    target_mean: np.ndarray = None  # positioning label standardization
    target_std: np.ndarray = None
    best_epoch: int = -1
    best_val_loss: float = math.inf
    history: list = dataclasses.field(default_factory=list)

    def parameters(self) -> dict:
        p = {} if self.freeze_encoder else prefixed(self.encoder.params, "encoder.")
        p.update(prefixed(self.head.params, "head."))
        return p


def init_finetune_run(dataset: Dataset, task_kind: str, init_mode: str, seed: int,
                      config: FinetuneConfig, checkpoint_path=None,
                      freeze_encoder: bool = False) -> FinetuneRun:
    """Build a run; `pretrained` loads the frequency-view encoder from a
    checkpoint (architecture must match the config), `scratch` draws a
    fresh seed-determined init of the identical architecture."""
    config = config.validated()
    task = make_task_spec(task_kind, dataset, config.coordinate_dim)
    p = dataset.n_rx * dataset.n_tx
    enc_cfg = EncoderConfig(in_height=p, in_width=dataset.n_subcarriers,
                            widths=config.widths, kernel_size=config.kernel_size,
                            embed_dim=config.embed_dim).validated()
    if init_mode == "pretrained":
        if checkpoint_path is None:
            raise ConfigError("pretrained init needs a checkpoint path")
        pre_state, _ = load_pretrain_state(checkpoint_path)
        if pre_state.encoder_config != enc_cfg:
            raise ConfigError(
                f"checkpoint encoder {pre_state.encoder_config} does not match "
                f"configured architecture {enc_cfg}")
        encoder = pre_state.csi_encoder
    elif init_mode == "scratch":
        encoder = Encoder.init(enc_cfg, stream(seed, "finetune-encoder-init"))
    else:
        raise ConfigError(f"init_mode must be 'pretrained' or 'scratch', got '{init_mode}'")
    if freeze_encoder:
        for t in encoder.params.values():
            t.requires_grad = False
    head_cfg = HeadConfig(in_dim=config.embed_dim, hidden_dim=config.head_hidden,
                          out_dim=task.out_dim)
    head = Head.init(head_cfg, stream(seed, "finetune-head-init"))
    return FinetuneRun(task=task, init_mode=init_mode, seed=seed, config=config,
                       encoder=encoder, head=head, freeze_encoder=freeze_encoder)


def labeled_subset(dataset: Dataset, seed: int, budget: int) -> np.ndarray:
    """Training-split indices for supervised fine-tuning; a positive budget
    draws that many uniformly without replacement.  Independent of init
    mode by construction (depends only on seed and the dataset split)."""
    train = dataset.train_indices()
    if budget == 0:
        return train
    if budget > len(train):
        raise DataError(
            f"label budget {budget} exceeds the {len(train)} available training labels")
    sel = stream(seed, "label-budget").choice(len(train), size=budget, replace=False)
    return np.sort(train[sel])


def _task_arrays(dataset: Dataset, indices, task: TaskSpec):
    x, labels = load_batch(dataset, indices, "csi", task=_LABEL_KEY[task.kind])
    if task.kind == "positioning":
        labels = labels[:, :task.out_dim]
    return x, labels


def _standardize_targets(run: FinetuneRun, labels: np.ndarray) -> np.ndarray:
    return (labels - run.target_mean) / run.target_std


def _forward(run: FinetuneRun, x: np.ndarray) -> Tensor:
    return run.head.forward(run.encoder.forward(Tensor(x)))


def _loss(run: FinetuneRun, out: Tensor, labels):
    if run.task.is_classification:
        return cross_entropy_loss(out, labels)
    return mse_loss(out, Tensor(np.asarray(labels, dtype=out.dtype)))


def _predict(run: FinetuneRun, x: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Forward-only head outputs; records no tape."""
    with no_grad():
        if run.freeze_encoder:
            z = encode_batch(run.encoder, x, chunk)
            return run.head.forward(Tensor(z)).data
        outs = []
        for lo in range(0, x.shape[0], chunk):
            outs.append(_forward(run, x[lo:lo + chunk]).data)
        return np.concatenate(outs, axis=0)


def _val_loss(run: FinetuneRun, x_val, y_val) -> float:
    pred = _predict(run, x_val)
    if run.task.is_classification:
        return float(cross_entropy_loss(Tensor(pred), y_val).data)
    return float(np.mean(np.sum((pred - y_val) ** 2, axis=1)))


def finetune(run: FinetuneRun, dataset: Dataset, epochs=None) -> FinetuneRun:
    """Train on the seeded labeled subset, validate each epoch on the full
    validation split, and finish holding the best-validation parameters
    (never the final epoch's).

    Positioning targets are standardized per coordinate with statistics of
    the labeled training subset; losses are in standardized units, reported
    errors in meters.  A non-finite validation loss raises
    TrainingDivergenceError.
    """
    cfg = run.config
    n_epochs = cfg.epochs if epochs is None else int(epochs)
    train_idx = labeled_subset(dataset, run.seed, cfg.label_budget)
    x_train, y_train = _task_arrays(dataset, train_idx, run.task)
    x_val, y_val = _task_arrays(dataset, dataset.val_indices(), run.task)

    if run.task.kind == "positioning":
        mean = y_train.mean(axis=0)
        std = y_train.std(axis=0)
        if np.any(std == 0):
            raise DegenerateDataError(
                f"positioning targets are constant along axis {np.nonzero(std == 0)[0]}")
        run.target_mean, run.target_std = mean, std
        y_train_t = _standardize_targets(run, y_train)
        y_val_t = _standardize_targets(run, y_val)
    else:
        y_train_t, y_val_t = y_train, y_val

    opt = AdamW(run.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    z_train = encode_batch(run.encoder, x_train) if run.freeze_encoder else None

    best_params = None
    for _ in range(n_epochs):
        epoch = len(run.history)
        perm = stream(run.seed, "finetune-shuffle", epoch).permutation(len(train_idx))
        loss_sum = 0.0
        for lo in range(0, len(perm), cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            if run.freeze_encoder:
                out = run.head.forward(Tensor(z_train[idx]))
            else:
                out = _forward(run, x_train[idx])
            loss = _loss(run, out, y_train_t[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()
            loss_sum += float(loss.data) * idx.size
        val_loss = _val_loss(run, x_val, y_val_t)
        if not math.isfinite(val_loss):
            raise TrainingDivergenceError(
                f"non-finite validation loss {val_loss} at epoch {epoch + 1}")
        run.history.append({"epoch": epoch + 1, "train_loss": loss_sum / len(perm),
                            "val_loss": val_loss})
        if val_loss < run.best_val_loss:
            run.best_val_loss = val_loss
            run.best_epoch = epoch + 1
            best_params = {k: p.data.copy() for k, p in run.parameters().items()}
    if best_params is not None:
        for k, p in run.parameters().items():
            p.data = best_params[k]
    return run


def evaluate_positioning(run: FinetuneRun, dataset: Dataset, indices) -> float:
    """Mean Euclidean error in meters over the given records."""
    if run.task.kind != "positioning":
        raise ContractError(f"run is a {run.task.kind} run, not positioning")
    if run.target_mean is None:
        raise ContractError("run has no target statistics; train it first")
    x, y = _task_arrays(dataset, indices, run.task)
    pred = _predict(run, x) * run.target_std + run.target_mean
    return float(np.mean(np.linalg.norm(pred - y, axis=1)))


def evaluate_classification(run: FinetuneRun, dataset: Dataset, indices) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    if not run.task.is_classification:
        raise ContractError(f"run is a {run.task.kind} run, not classification")
    x, y = _task_arrays(dataset, indices, run.task)
    pred = np.argmax(_predict(run, x), axis=1)
    return float(np.mean(pred == y))


def evaluate(run: FinetuneRun, dataset: Dataset, indices) -> float:
    if run.task.is_classification:
        return evaluate_classification(run, dataset, indices)
    return evaluate_positioning(run, dataset, indices)


def linear_probe(checkpoint_path: str, dataset: Dataset, task_kind: str, seed: int,
                 config: FinetuneConfig, epochs=None) -> FinetuneRun:
    """Head-only training on frozen pretrained features.  Reported next to
    full fine-tuning for context; no performance floor is promised in this
    regime."""
    run = init_finetune_run(dataset, task_kind, "pretrained", seed, config,
                            checkpoint_path=checkpoint_path, freeze_encoder=True)
    return finetune(run, dataset, epochs)


def improvement_report(pretrained_metric: float, scratch_metric: float, task_kind: str) -> dict:
    """Signed comparison with positive = pretrained better.

    positioning (error, lower better):   relative = (scratch - pre) / scratch
    classification (accuracy, higher):   relative = (pre - scratch) / scratch
    Both the relative improvement (percent) and the absolute delta (input
    units, same sign convention) are reported.
    """
    canonical = KIND_ALIASES.get(task_kind)
    if canonical is None:
        raise ConfigError(f"unknown task '{task_kind}'")
    if canonical == "positioning":
        absolute = scratch_metric - pretrained_metric
    else:
        absolute = pretrained_metric - scratch_metric
    relative = None if scratch_metric == 0 else 100.0 * absolute / scratch_metric
    return {"task": canonical, "pretrained": pretrained_metric, "scratch": scratch_metric,
            "absolute_delta": absolute, "relative_pct": relative}


def finetune_summary(run: FinetuneRun, dataset: Dataset) -> dict:
    """Structured record consumed by the report command."""
    metric = evaluate(run, dataset, dataset.val_indices())
    return {
        "kind": "finetune",
        "task": run.task.kind,
        "metric_name": run.task.metric_name,
        "init": run.init_mode,
        "seed": run.seed,
        "label_budget": run.config.label_budget,
        "frozen_encoder": run.freeze_encoder,
        "best_epoch": run.best_epoch,
        "best_val_loss": run.best_val_loss,
        "val_metric": metric,
        "epochs_run": len(run.history),
        "config": dataclasses.asdict(run.config),
    }
