"""Dual-encoder contrastive pretraining over aligned CSI/CIR pairs.

Two encoders of the one declared architecture, with separate weights,
embed the frequency view (anchor side, n_subcarriers wide) and the delay
view (the stored n_taps) of each sample; no weight depends on the input
width, so one EncoderConfig, the CSI view's, describes both.  The batch
alignment loss with a learnable temperature pulls matched pairs together
against in-batch negatives.  Training tracks in-batch retrieval (does each
anchor rank its own pair first?) as the pretext diagnostic, cuts the
learning rate on holdout plateaus, early-stops, hands on the parameters of
the epoch with the lowest holdout loss, and checkpoints every epoch so a
run can resume bit-identically.
"""

import dataclasses
import json
import logging
import math
import os

import numpy as np

from .datapipe import Dataset, load_batch
from .errors import ConfigError, ContractError, DataError
from .nncore import checkpoint as ckpt
from .nncore import tensor as T
from .nncore.layers import Encoder, EncoderConfig, prefixed
from .nncore.losses import contrastive_loss
from .nncore.optim import AdamW, LRPlateau
from .nncore.tensor import Tensor
from .rngstream import stream

log = logging.getLogger(__name__)

# Records per forward-only chunk.  At desk shapes a 64-record chunk's
# stage-1/2 im2col buffer is 9.4 MB; at 256 records it was 37.7 MB, above
# glibc's 32 MiB mmap-threshold ceiling, so every conv2d call mapped and
# page-faulted a fresh buffer instead of reusing freed heap memory.  Each
# record's output does not depend on the chunk size.
FORWARD_CHUNK = 64

# The PretrainConfig fields that declare the encoder architecture.  The
# supervised baseline and every fine-tune run use this same declaration.
ARCHITECTURE_FIELDS = ("widths", "kernel_size", "embed_dim")

# Meta "version" of a pretraining checkpoint.  Version 2 trained the CIR
# encoder on the n_taps-wide delay view; checkpoints without the key
# trained it on that view zero-padded to n_subcarriers, and are refused.
CHECKPOINT_VERSION = 2


def config_from_dict(cls, d, section: str = None):
    """Read a config-file section into the dataclass `cls` by its fields'
    declared types, then validate it.  A list is read as a tuple, a mapping
    as a nested dataclass, an int or numeric string (YAML 1.1 reads "1.0e7"
    as one) as a float; any other type mismatch (a bool for an int too), a
    non-mapping section, or an unknown or missing key is a ConfigError."""
    section = section or cls.__name__.removesuffix("Config").lower()
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
    obj = cls(**{k: _read_field(fields[k].type, v, f"{section}.{k}") for k, v in d.items()})
    return obj.validated() if hasattr(obj, "validated") else obj


def _read_field(kind: type, value, name: str):
    if dataclasses.is_dataclass(kind) and isinstance(value, dict):
        return config_from_dict(kind, value, name)
    if kind is tuple and type(value) is list:
        return tuple(value)
    if kind is float and type(value) in (int, str):
        try:
            return float(value)
        except ValueError:
            pass
    if type(value) is not kind:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


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
    widths: tuple = (16, 32, 64)
    kernel_size: int = 3
    embed_dim: int = 128

    def validated(self) -> "PretrainConfig":
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ConfigError(f"holdout_fraction must be in (0,1), got {self.holdout_fraction}")
        if self.tau_init < self.tau_min or self.tau_min <= 0:
            raise ConfigError(f"need tau_init >= tau_min > 0, got {self.tau_init}, {self.tau_min}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError(f"max_epochs and patience must be >= 1")
        return self

    def encoder_config(self, in_height: int, in_width: int) -> EncoderConfig:
        """The declared encoder architecture at an input of in_height x
        in_width bins: the one place an EncoderConfig is built from config
        values."""
        return EncoderConfig(in_height=in_height, in_width=in_width, widths=self.widths,
                             kernel_size=self.kernel_size,
                             embed_dim=self.embed_dim).validated()

    from_dict = classmethod(config_from_dict)


@dataclasses.dataclass
class PretrainState:
    """The two encoders share `csi_encoder.config`, which a checkpoint
    records as `encoder_config`: the CSI view's geometry (the CIR encoder
    runs on n_taps columns).  `schedule.best` is the lowest holdout loss."""
    config: PretrainConfig
    csi_encoder: Encoder
    cir_encoder: Encoder
    log_tau: Tensor
    optimizer: AdamW
    schedule: LRPlateau
    epoch: int = 0
    best_params: dict = None       # parameter arrays of the schedule.best epoch

    def tau(self) -> float:
        return float(np.exp(self.log_tau.data))

    def parameters(self) -> dict:
        p = prefixed(self.csi_encoder.params, "csi.")
        p.update(prefixed(self.cir_encoder.params, "cir."))
        p["log_tau"] = self.log_tau
        return p

    def restore_best(self) -> "PretrainState":
        """Set the parameters to the lowest-holdout-loss epoch's, when one is
        recorded: the holdout loss can swing several-fold between neighbouring
        epochs (desk: 0.39, 0.90, 0.61, 0.37), so the last epoch is a draw."""
        if self.best_params is not None:
            for name, p in self.parameters().items():
                p.data = np.array(self.best_params[name], dtype=p.data.dtype).reshape(p.data.shape)
        return self


@dataclasses.dataclass
class PairArrays:
    """Preloaded aligned views, one row per record: x_csi is float32
    [N, 2, P, n_subcarriers], x_cir float32 [N, 2, P, n_taps]."""
    x_csi: np.ndarray
    x_cir: np.ndarray

    def __post_init__(self):
        if self.x_csi.shape[0] != self.x_cir.shape[0]:
            raise ContractError(
                f"pair arrays must align, got {self.x_csi.shape[0]} CSI records "
                f"vs {self.x_cir.shape[0]} CIR records")

    @property
    def n(self) -> int:
        return self.x_csi.shape[0]


def load_pairs(dataset: Dataset, indices) -> PairArrays:
    x_csi, _ = load_batch(dataset, indices, "csi")
    x_cir, _ = load_batch(dataset, indices, "cir")
    return PairArrays(x_csi=x_csi, x_cir=x_cir)


def init_pretrain_state(config: PretrainConfig, in_height: int, in_width: int) -> PretrainState:
    """Fresh seeded state; in_height x in_width is the CSI view (antenna
    pairs x subcarriers), whose EncoderConfig the CIR encoder shares."""
    config = config.validated()
    enc_cfg = config.encoder_config(in_height, in_width)
    csi_enc = Encoder.init(enc_cfg, stream(config.seed, "csi-encoder-init"))
    cir_enc = Encoder.init(enc_cfg, stream(config.seed, "cir-encoder-init"))
    log_tau = Tensor(np.float32(np.log(config.tau_init)), requires_grad=True)
    params = prefixed(csi_enc.params, "csi.")
    params.update(prefixed(cir_enc.params, "cir."))
    params["log_tau"] = log_tau
    opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    sched = LRPlateau(factor=config.lr_factor, interval=config.lr_interval)
    return PretrainState(config=config, csi_encoder=csi_enc, cir_encoder=cir_enc,
                         log_tau=log_tau, optimizer=opt, schedule=sched)


def encode_batch(encoder: Encoder, x: np.ndarray, chunk: int = FORWARD_CHUNK) -> np.ndarray:
    """Forward without recording a tape, chunked to bound im2col buffers;
    the default chunk keeps them below the allocator's mmap threshold (see
    FORWARD_CHUNK)."""
    outs = []
    with T.no_grad():
        for lo in range(0, x.shape[0], chunk):
            outs.append(encoder.forward(Tensor(x[lo:lo + chunk])).data)
    return np.concatenate(outs, axis=0)


def _batch_retrieval(z_csi: np.ndarray, z_cir: np.ndarray) -> float:
    """CSI-anchored top-1 under cosine; ties go to the lowest index."""
    na = np.linalg.norm(z_csi, axis=1, keepdims=True)
    nb = np.linalg.norm(z_cir, axis=1, keepdims=True)
    if np.any(na == 0) or np.any(nb == 0):
        raise ContractError("retrieval undefined: zero embedding in batch")
    sim = (z_csi / na) @ (z_cir / nb).T
    return float(np.mean(np.argmax(sim, axis=1) == np.arange(sim.shape[0])))


def embedding_spread(z: np.ndarray) -> float:
    """Std of pairwise cosine similarities among distinct rows (collapse
    indicator: a constant embedding has spread 0)."""
    if z.shape[0] < 3:
        raise ContractError("spread needs at least 3 embeddings")
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ContractError("spread undefined: zero embedding")
    zn = z / norms
    sims = (zn @ zn.T)[np.triu_indices(z.shape[0], k=1)]
    return float(np.std(sims))


def _tau_graph(state: PretrainState):
    return T.maximum_const(T.exp(state.log_tau), state.config.tau_min)


def pretrain_epoch(state: PretrainState, pairs: PairArrays) -> dict:
    """One seeded-shuffle pass over the training pairs; returns epoch metrics.

    Size-1 tail batches are dropped (a single pair has no negatives and
    zero loss).  The shuffle derives from (seed, epoch), so resuming from a
    checkpoint replays the identical order.
    """
    cfg = state.config
    bs = cfg.batch_size
    perm = stream(cfg.seed, "pretrain-shuffle", state.epoch).permutation(pairs.n)
    loss_sum = 0.0
    hit_sum = 0.0
    n_used = 0
    n_dropped = 0
    for lo in range(0, pairs.n, bs):
        idx = perm[lo:lo + bs]
        if idx.size < 2:
            n_dropped += idx.size
            log.info("dropping size-%d tail batch at epoch %d", idx.size, state.epoch)
            continue
        z_csi = state.csi_encoder.forward(Tensor(pairs.x_csi[idx]))
        z_cir = state.cir_encoder.forward(Tensor(pairs.x_cir[idx]))
        loss = contrastive_loss(z_csi, z_cir, _tau_graph(state), symmetric=cfg.symmetric)
        state.optimizer.zero_grad()
        loss.backward()
        state.optimizer.step()
        state.log_tau.data = np.maximum(state.log_tau.data,
                                        np.asarray(np.log(cfg.tau_min), dtype=state.log_tau.dtype))
        loss_sum += float(loss.data) * idx.size
        hit_sum += _batch_retrieval(z_csi.data, z_cir.data) * idx.size
        n_used += idx.size
        del z_csi, z_cir, loss   # free this step's graph before the next forward
    if n_used == 0:
        raise ContractError("epoch had no usable batches")
    state.epoch += 1
    return {"epoch": state.epoch, "train_loss": loss_sum / n_used,
            "train_retrieval": hit_sum / n_used, "n_used": n_used, "n_dropped": n_dropped}


def evaluate_pairs(state: PretrainState, pairs: PairArrays, batch_size: int) -> tuple:
    """(mean loss, mean in-batch retrieval) over fixed-order batches; the
    final partial batch is kept if it still has a negative (>= 2)."""
    if batch_size < 2:
        raise ContractError(f"evaluation needs batch_size >= 2, got {batch_size}")
    tau = max(state.tau(), state.config.tau_min)
    loss_sum = 0.0
    hit_sum = 0.0
    n_used = 0
    for lo in range(0, pairs.n, batch_size):
        sl = slice(lo, min(lo + batch_size, pairs.n))
        if sl.stop - sl.start < 2:
            continue
        z_csi = encode_batch(state.csi_encoder, pairs.x_csi[sl])
        z_cir = encode_batch(state.cir_encoder, pairs.x_cir[sl])
        loss = contrastive_loss(Tensor(z_csi), Tensor(z_cir), tau,
                                symmetric=state.config.symmetric)
        n = sl.stop - sl.start
        loss_sum += float(loss.data) * n
        hit_sum += _batch_retrieval(z_csi, z_cir) * n
        n_used += n
    if n_used == 0:
        raise ContractError("no usable evaluation batches")
    return loss_sum / n_used, hit_sum / n_used


def _inner_split(dataset: Dataset, config: PretrainConfig):
    """Carve an early-stopping holdout out of the training split; the
    dataset's validation split is never touched by pretraining."""
    train = dataset.train_indices()
    perm = stream(config.seed, "pretrain-holdout").permutation(len(train))
    n_hold = max(1, math.floor(len(train) * config.holdout_fraction))
    if n_hold < 2 or len(train) - n_hold < 2:
        raise ContractError(f"training split of {len(train)} too small to hold out from")
    hold = np.sort(train[perm[:n_hold]])
    fit = np.sort(train[perm[n_hold:]])
    return fit, hold


def save_pretrain_checkpoint(state: PretrainState, path: str) -> None:
    meta = {
        "kind": "pretrain",
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(state.config),
        "encoder_config": dataclasses.asdict(state.csi_encoder.config),
        "epoch": state.epoch,
        "lr": state.optimizer.lr,
        "opt_t": state.optimizer.t,
        "schedule": state.schedule.state(),
    }
    tensors = {k: p.data for k, p in state.parameters().items()}
    tensors.update(state.optimizer.state_arrays())
    tensors.update(prefixed(state.best_params or {}, "best."))
    ckpt.save_checkpoint(path, meta, tensors)


def load_pretrain_state(path: str):
    """Rebuild a live PretrainState from a checkpoint; returns (state, meta)."""
    meta, tensors = ckpt.load_checkpoint(path)
    if meta.get("kind") != "pretrain":
        raise ContractError(f"{path} is not a pretraining checkpoint")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"{path} has pretraining checkpoint version {meta.get('version')}, not "
            f"{CHECKPOINT_VERSION} (CIR encoder trained on the n_taps-wide view); pretrain again")
    config = PretrainConfig.from_dict(meta["config"])
    ec = meta["encoder_config"]
    state = init_pretrain_state(config, ec["in_height"], ec["in_width"])
    for name, p in state.parameters().items():
        p.data = np.array(tensors[name], dtype=np.float32).reshape(p.data.shape)
    state.best_params = {k.removeprefix("best."): v for k, v in tensors.items()
                         if k.startswith("best.")} or None
    state.optimizer.load_state_arrays(tensors, meta["opt_t"])
    state.optimizer.lr = float(meta["lr"])
    state.schedule = LRPlateau.from_state(meta["schedule"])
    state.epoch = int(meta["epoch"])
    return state, meta


def run_pretraining(dataset: Dataset, config: PretrainConfig, out_dir: str,
                    resume: bool = False, max_epochs=None) -> tuple:
    """Train to early stop or the epoch cap; returns (state, metrics rows),
    the state holding the parameters of the lowest-holdout-loss epoch.

    Writes `pretrain.ckpt` (every epoch, atomically: the last epoch's
    training state, plus the best epoch's parameters under `best.`) and
    `pretrain_metrics.jsonl` (one record per epoch) under out_dir.  With
    resume=True training continues from the checkpoint and reproduces the
    exact trace an uninterrupted run would have produced.  A resume must
    pass the config the checkpoint was trained with (ConfigError otherwise);
    only the max_epochs argument may differ.  A last metrics row torn by a
    crash during its append is dropped; any other unreadable row raises
    DataError.  A dataset whose n_taps the declared encoder cannot pool is
    a ConfigError before any work.
    """
    config = config.validated()
    p = dataset.n_rx * dataset.n_tx
    try:   # the CIR encoder shares the CSI view's EncoderConfig
        config.encoder_config(p, dataset.n_taps)
    except ConfigError as e:
        raise ConfigError(f"the {dataset.n_taps}-tap CIR view cannot be encoded: {e}") from e
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "pretrain.ckpt")
    metrics_path = os.path.join(out_dir, "pretrain_metrics.jsonl")
    cap = config.max_epochs if max_epochs is None else int(max_epochs)

    kept_lines = []
    if resume:
        state, _ = load_pretrain_state(ckpt_path)
        changed = [f.name for f in dataclasses.fields(config)
                   if getattr(config, f.name) != getattr(state.config, f.name)]
        if changed:
            raise ConfigError(
                f"cannot resume {ckpt_path}: config differs from the checkpoint's "
                f"in {changed}")
        if os.path.exists(metrics_path):
            with open(metrics_path, "r", encoding="utf-8") as f:
                lines = [line.rstrip("\n") + "\n" for line in f if line.strip()]
            for i, line in enumerate(lines):
                try:
                    if json.loads(line)["epoch"] <= state.epoch:
                        kept_lines.append(line)
                except (ValueError, KeyError, TypeError) as e:
                    if i < len(lines) - 1:  # a torn last row is beyond the checkpoint
                        raise DataError(
                            f"{metrics_path} line {i + 1} is not a metrics row: {e}") from e
    else:
        state = init_pretrain_state(config, p, dataset.n_subcarriers)

    fit_idx, hold_idx = _inner_split(dataset, config)
    pairs_fit = load_pairs(dataset, fit_idx)
    pairs_hold = load_pairs(dataset, hold_idx)

    # the kept history is replaced atomically, so a failure from here on
    # leaves at least the rows the checkpoint needs
    ckpt.atomic_write(metrics_path, "".join(kept_lines).encode("utf-8"))
    rows = []
    with open(metrics_path, "a", encoding="utf-8") as mf:
        while state.epoch < cap and not state.schedule.stale > config.patience:
            em = pretrain_epoch(state, pairs_fit)
            val_loss, val_ret = evaluate_pairs(state, pairs_hold, config.batch_size)
            best = state.schedule.best
            state.optimizer.lr = state.schedule.observe(val_loss, state.optimizer.lr)
            if best is None or val_loss < best:
                state.best_params = {k: p.data.copy() for k, p in state.parameters().items()}
            row = {"epoch": state.epoch, "train_loss": em["train_loss"],
                   "val_loss": val_loss, "retrieval": val_ret,
                   "train_retrieval": em["train_retrieval"],
                   "lr": state.optimizer.lr, "tau": state.tau()}
            rows.append(row)
            mf.write(json.dumps(row) + "\n")
            mf.flush()
            save_pretrain_checkpoint(state, ckpt_path)
            if state.schedule.stale > config.patience:
                log.info("early stop at epoch %d (stale %d > patience %d)",
                         state.epoch, state.schedule.stale, config.patience)
                break
    return state.restore_best(), rows
