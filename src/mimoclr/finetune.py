"""Downstream adaptation of the frequency-view encoder.

A two-layer head goes on top of the encoder and the whole stack trains on
labeled samples (the supervised baseline trains the identical architecture,
declared once by a PretrainConfig, from a fresh init).  The
controlled-comparison contract: for a given (seed, task, dataset), head
initialization, labeled-subset selection, and data order are all derived
independently of the init mode, so a pretrained and a scratch run differ in
encoder initialization and nothing else.

Tasks:
    positioning              -> coordinate regression, squared-error loss,
                                reported as mean error distance in meters
    beam_management          -> B-way classification, cross-entropy
    channel_identification   -> LoS/NLoS binary classification, cross-entropy
"""

import concurrent.futures
import contextlib
import dataclasses
import functools
import logging
import math
import multiprocessing
import os
import time

import numpy as np

from . import datapipe
from .config import FinetuneConfig, PretrainConfig
from .datapipe import Dataset, load_batch
from .errors import (ConfigError, ContractError, DataError, DegenerateDataError,
                     TrainingDivergenceError)
from .nncore import checkpoint as ckpt
from .nncore.layers import Encoder, Head, HeadConfig, prefixed
from .nncore.losses import cross_entropy_loss, mse_loss
from .nncore.optim import AdamW
from .nncore.tensor import Tensor, no_grad
from .pretrain import FORWARD_CHUNK, encode_batch, load_pretrain_state
from .rngstream import stream

log = logging.getLogger(__name__)

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


def make_task_spec(kind: str, dataset: Dataset) -> TaskSpec:
    """Positioning regresses the x and y coordinates: every UE sits at the
    scenario's ue_height, so z carries no signal."""
    canonical = KIND_ALIASES.get(kind)
    if canonical is None:
        raise ConfigError(f"unknown task '{kind}' (expected one of {sorted(set(KIND_ALIASES))})")
    if canonical == "beam_management":
        return TaskSpec(canonical, int(dataset.manifest["codebook"]["n_beams"]))
    return TaskSpec(canonical, 2)


@dataclasses.dataclass
class FinetuneRun:
    task: TaskSpec
    init_mode: str                 # "pretrained" | "scratch" | "probe"
    seed: int
    config: FinetuneConfig
    encoder: Encoder
    head: Head
    target_mean: np.ndarray = None  # positioning label standardization
    target_std: np.ndarray = None
    best_epoch: int = -1
    best_val_loss: float = math.inf
    best_val_metric: float = None   # task metric of the selected epoch
    history: list = dataclasses.field(default_factory=list)

    @property
    def freeze_encoder(self) -> bool:
        return self.init_mode == "probe"

    def parameters(self) -> dict:
        p = {} if self.freeze_encoder else prefixed(self.encoder.params, "encoder.")
        p.update(prefixed(self.head.params, "head."))
        return p


def init_finetune_run(dataset: Dataset, task_kind: str, init_mode: str, seed: int,
                      config: FinetuneConfig, arch: PretrainConfig,
                      checkpoint_path=None) -> FinetuneRun:
    """Build a run whose encoder has the architecture `arch` declares;
    `pretrained` loads the frequency-view encoder of a checkpoint's
    lowest-holdout-loss epoch (its architecture must match), `probe` loads
    it the same way and freezes it so only the head trains, `scratch` draws
    a fresh seed-determined init."""
    task = make_task_spec(task_kind, dataset)
    enc_cfg = arch.encoder_config(dataset.n_rx * dataset.n_tx, dataset.n_subcarriers)
    if init_mode in ("pretrained", "probe"):
        if checkpoint_path is None:
            raise ConfigError(f"{init_mode} init needs a checkpoint path")
        pre_state = load_pretrain_state(checkpoint_path)[0].restore_best()
        if pre_state.csi_encoder.config != enc_cfg:
            raise ConfigError(
                f"checkpoint encoder {pre_state.csi_encoder.config} does not match "
                f"configured architecture {enc_cfg}")
        encoder = pre_state.csi_encoder
    elif init_mode == "scratch":
        encoder = Encoder.init(enc_cfg, stream(seed, "finetune-encoder-init"))
    else:
        raise ConfigError(
            f"init_mode must be 'pretrained', 'scratch' or 'probe', got '{init_mode}'")
    if init_mode == "probe":
        for t in encoder.params.values():
            t.requires_grad = False
    head_cfg = HeadConfig(in_dim=encoder.config.embed_dim, hidden_dim=config.head_hidden,
                          out_dim=task.out_dim)
    head = Head.init(head_cfg, stream(seed, "finetune-head-init"))
    return FinetuneRun(task=task, init_mode=init_mode, seed=seed, config=config,
                       encoder=encoder, head=head)


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


def _forward(run: FinetuneRun, x: np.ndarray) -> Tensor:
    return run.head.forward(run.encoder.forward(Tensor(x)))


def _loss(run: FinetuneRun, out: Tensor, labels):
    if run.task.is_classification:
        return cross_entropy_loss(out, labels)
    return mse_loss(out, Tensor(np.asarray(labels, dtype=out.dtype)))


def _predict(run: FinetuneRun, x: np.ndarray, chunk: int = FORWARD_CHUNK) -> np.ndarray:
    """Forward-only head outputs; records no tape.  Chunks of 64 records
    keep the stage activations small enough for the allocator to reuse
    them (see pretrain.FORWARD_CHUNK)."""
    with no_grad():
        return run.head.forward(Tensor(encode_batch(run.encoder, x, chunk))).data


def _val_loss(run: FinetuneRun, x_val, y_val) -> tuple:
    """(validation loss, head outputs) of one forward-only pass."""
    pred = _predict(run, x_val)
    if run.task.is_classification:
        return float(cross_entropy_loss(Tensor(pred), y_val).data), pred
    return float(np.mean(np.sum((pred - y_val) ** 2, axis=1))), pred


def _metric(run: FinetuneRun, pred: np.ndarray, labels: np.ndarray) -> float:
    """Task metric of head outputs against raw labels: top-1 accuracy (argmax
    ties resolve to the lowest class index) or mean Euclidean error in
    meters of the de-standardized predictions."""
    if run.task.is_classification:
        return float(np.mean(np.argmax(pred, axis=1) == labels))
    pred = pred * run.target_std + run.target_mean
    return float(np.mean(np.linalg.norm(pred - labels, axis=1)))


def finetune(run: FinetuneRun, dataset: Dataset) -> FinetuneRun:
    """Train on the seeded labeled subset, validate each epoch on the full
    validation split, and finish holding the best-validation parameters
    (never the final epoch's) and, in `best_val_metric`, their task metric
    on that split.

    Positioning targets are standardized per coordinate with statistics of
    the labeled training subset; losses are in standardized units, reported
    errors in meters.  A non-finite validation loss raises
    TrainingDivergenceError.
    """
    cfg = run.config
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
        y_train_t, y_val_t = (y_train - mean) / std, (y_val - mean) / std
    else:
        y_train_t, y_val_t = y_train, y_val

    opt = AdamW(run.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    z_train = encode_batch(run.encoder, x_train) if run.freeze_encoder else None

    best_params = None
    for _ in range(cfg.epochs):
        t0 = time.perf_counter()
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
            del out, loss   # free this step's graph before the next forward
        val_loss, pred = _val_loss(run, x_val, y_val_t)
        if not math.isfinite(val_loss):
            raise TrainingDivergenceError(
                f"non-finite validation loss {val_loss} at epoch {epoch + 1}")
        train_loss = loss_sum / len(perm)
        run.history.append({"epoch": epoch + 1, "train_loss": train_loss, "val_loss": val_loss})
        if val_loss < run.best_val_loss:
            run.best_val_loss = val_loss
            run.best_epoch = epoch + 1
            run.best_val_metric = _metric(run, pred, y_val)
            best_params = {k: p.data.copy() for k, p in run.parameters().items()}
        wall = time.perf_counter() - t0
        log.info("finetune %s %s seed %d epoch %d: train loss %.4f, val loss %.4f, "
                 "%.2f s, %.1f samples/s", run.task.kind, run.init_mode, run.seed, epoch + 1,
                 train_loss, val_loss, wall, len(perm) / wall)
    if best_params is not None:
        for k, p in run.parameters().items():
            p.data = best_params[k]
    return run


def evaluate(run: FinetuneRun, dataset: Dataset, indices) -> float:
    """The run's task metric over the given records (see `_metric`)."""
    if not run.task.is_classification and run.target_mean is None:
        raise ContractError("run has no target statistics; train it first")
    x, y = _task_arrays(dataset, indices, run.task)
    return _metric(run, _predict(run, x), y)


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


def finetune_summary(run: FinetuneRun) -> dict:
    """Structured record consumed by the report command.  `val_metric` is
    the selected epoch's metric on the validation split, which `evaluate`
    on that split reproduces from the held parameters; "encoder" names the
    architecture the run scored."""
    if run.best_epoch < 1:
        raise ContractError("run has no selected epoch; fine-tune it first")
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
        "val_metric": run.best_val_metric,
        "epochs_run": len(run.history),
        "config": dataclasses.asdict(run.config),
        "encoder": dataclasses.asdict(run.encoder.config),
    }


# BLAS thread-count variables each sweep worker defaults to 1.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def log_to_stderr(level: int) -> logging.Handler:
    """Log `mimoclr` records from `level` up to stderr, as `-v` does; returns the handler."""
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("mimoclr")
    logger.addHandler(handler)
    logger.setLevel(level)
    return handler


@contextlib.contextmanager
def _worker_pool(jobs: int):
    """A spawn process pool whose workers run one BLAS thread each, so N
    workers do not each start a thread per core, and which log to stderr
    from the parent's `mimoclr` level when it has one (`-v`).  Workers read
    the thread variables when they import numpy, so those the user left
    unset are set to 1 while the pool starts its workers, and removed again
    afterwards."""
    unset = [var for var in BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    level = logging.getLogger("mimoclr").level
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=multiprocessing.get_context("spawn"),
                initializer=log_to_stderr if level else None, initargs=(level,)) as pool:
            yield pool
    finally:
        for var in unset:
            os.environ.pop(var, None)


def _run_part(manifest_path, task_kind, config, arch, checkpoint_path, out_dir, runs) -> list:
    """Fine-tune `runs`, (seed, init mode) pairs, in order on the dataset opened once."""
    dataset = datapipe.open_dataset(manifest_path)
    summaries = []
    for seed, init_mode in runs:
        run = init_finetune_run(dataset, task_kind, init_mode, seed, config, arch, checkpoint_path)
        finetune(run, dataset)
        summary = finetune_summary(run)
        if out_dir is not None:
            stem = os.path.join(out_dir, f"{run.task.kind}_{init_mode}_seed{seed}")
            os.makedirs(out_dir, exist_ok=True)
            tensors = {f"encoder.{k}": p.data for k, p in run.encoder.params.items()}
            tensors.update({f"head.{k}": p.data for k, p in run.head.params.items()})
            if run.target_mean is not None:
                tensors.update(target_mean=run.target_mean, target_std=run.target_std)
            ckpt.save_checkpoint(stem + ".ckpt", summary, tensors)
            ckpt.write_json(stem + ".json", summary)
            summary["artifact"] = stem + ".json"
        summaries.append(summary)
    return summaries


def run_sweep(manifest_path: str, task_kind: str, inits, seeds, config: FinetuneConfig,
              arch: PretrainConfig, checkpoint_path=None, out_dir=None, jobs: int = 1) -> list:
    """Fine-tune one run per (seed, init mode) on the dataset at `manifest_path`
    with the encoder `arch` declares; return the summaries seed-major.  With
    `out_dir`, each run writes its weights (and positioning target statistics)
    to `<task>_<init>_seed<s>.ckpt` and its summary, whose path the summary
    holds as "artifact", to `.json`.  With `jobs` > 1, spawned workers (at most
    one per run and per CPU) take the runs round-robin; the results are equal."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    runs = [(seed, init_mode) for seed in seeds for init_mode in inits]
    jobs = min(jobs, len(runs), os.cpu_count() or 1)
    part = functools.partial(_run_part, manifest_path, task_kind, config, arch,
                             checkpoint_path, out_dir)
    if jobs <= 1:
        return part(runs)
    with _worker_pool(jobs) as pool:
        parts = list(pool.map(part, [runs[i::jobs] for i in range(jobs)]))
    return [parts[k % jobs][k // jobs] for k in range(len(runs))]
