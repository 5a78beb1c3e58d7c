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
import logging
import math
import os
import time

import numpy as np

from .config import PretrainConfig, config_from_dict
from .datapipe import Dataset, load_batch
from .errors import ConfigError, ContractError, DataError
from .nncore import checkpoint as ckpt
from .nncore import tensor as T
from .nncore.layers import Encoder, prefixed
from .nncore.losses import contrastive_loss
from .nncore.optim import AdamW, LRPlateau
from .nncore.tensor import Tensor
from .rngstream import stream

log = logging.getLogger(__name__)

# Records per forward-only chunk.  conv2d's im2col columns do not grow with
# the chunk (it builds them one block of samples at a time), but the stage
# activations do: at desk shapes a 512-record chunk's stage-1 conv output
# is 33.5 MB, above the 32 MiB mmap threshold the CLI pins, so every
# forward would map and page-fault it afresh instead of reusing freed heap
# memory; at 64 records it is 4.2 MB.  Each record's output does not
# depend on the chunk size.
FORWARD_CHUNK = 64

# Meta "version" of a pretraining checkpoint.  Version 2 trained the CIR
# encoder on the n_taps-wide delay view; checkpoints without the key
# trained it on that view zero-padded to n_subcarriers, and are refused.
CHECKPOINT_VERSION = 2


@dataclasses.dataclass
class PretrainState:
    """The two encoders share `csi_encoder.config`, which a checkpoint
    records as `encoder_config`: the CSI view's geometry (the CIR encoder
    runs on n_taps columns).  `schedule.best` is the lowest holdout loss.
    `history` holds one metrics row per trained epoch, the record that
    `pretrain_metrics.jsonl` exports."""
    config: PretrainConfig
    csi_encoder: Encoder
    cir_encoder: Encoder
    log_tau: Tensor
    optimizer: AdamW
    schedule: LRPlateau
    epoch: int = 0
    best_params: dict = None       # parameter arrays of the schedule.best epoch
    dataset: dict = None           # the trained-on manifest's records_sha256 and split
    history: list = dataclasses.field(default_factory=list)   # metrics rows, epoch 1 on

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
    enc_cfg = config.encoder_config(in_height, in_width)
    csi_enc = Encoder.init(enc_cfg, stream(config.seed, "csi-encoder-init"))
    cir_enc = Encoder.init(enc_cfg, stream(config.seed, "cir-encoder-init"))
    log_tau = Tensor(np.float32(np.log(config.tau_init)), requires_grad=True)
    state = PretrainState(config=config, csi_encoder=csi_enc, cir_encoder=cir_enc,
                          log_tau=log_tau, optimizer=None,
                          schedule=LRPlateau(factor=config.lr_factor, interval=config.lr_interval))
    state.optimizer = AdamW(state.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    return state


def encode_batch(encoder: Encoder, x: np.ndarray, chunk: int = FORWARD_CHUNK) -> np.ndarray:
    """Forward without recording a tape, chunked to bound the stage
    activations; the default chunk keeps them below the allocator's mmap
    threshold (see FORWARD_CHUNK)."""
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
        raise DataError(f"training split of {len(train)} records too small to hold out from")
    hold = np.sort(train[perm[:n_hold]])
    fit = np.sort(train[perm[n_hold:]])
    return fit, hold


def save_pretrain_checkpoint(state: PretrainState, path: str) -> None:
    """Write the run's one record, its metrics history included."""
    meta = {
        "kind": "pretrain",
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(state.config),
        "encoder_config": dataclasses.asdict(state.csi_encoder.config),
        "epoch": state.epoch,
        "lr": state.optimizer.lr,
        "opt_t": state.optimizer.t,
        "schedule": state.schedule.state(),
        "dataset": state.dataset,
        "history": state.history,
    }
    tensors = {k: p.data for k, p in state.parameters().items()}
    tensors.update(state.optimizer.state_arrays())
    tensors.update(prefixed(state.best_params or {}, "best."))
    ckpt.save_checkpoint(path, meta, tensors)


def load_pretrain_state(path: str):
    """Rebuild a live PretrainState from a checkpoint; returns (state, meta)."""
    meta, tensors = ckpt.load_checkpoint(path)
    if meta.get("kind") != "pretrain":
        raise DataError(f"{path}: not a pretraining checkpoint (kind {meta.get('kind')!r})")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"{path} has pretraining checkpoint version {meta.get('version')}, not "
            f"{CHECKPOINT_VERSION} (CIR encoder trained on the n_taps-wide view); pretrain again")
    config = config_from_dict(PretrainConfig, meta["config"], "pretrain")
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
    state.dataset = meta.get("dataset")
    state.history = meta.get("history")
    return state, meta


def run_pretraining(dataset: Dataset, config: PretrainConfig, out_dir: str,
                    resume: bool = False, max_epochs=None) -> PretrainState:
    """Train to early stop or the epoch cap; returns the state, holding the
    parameters of the lowest-holdout-loss epoch and the metrics history.

    Writes `pretrain.ckpt` under out_dir every epoch, atomically: the last
    epoch's training state and metrics history, plus the best epoch's
    parameters under `best.`.  `pretrain_metrics.jsonl` (one row per epoch)
    is that history, rewritten whole after each save and never read.  With
    resume=True training continues from the checkpoint and reproduces the
    files of an uninterrupted run.  A resume must pass the config and the
    dataset (records and split) the checkpoint recorded with its history
    (ConfigError otherwise); only max_epochs may differ.  A dataset whose
    n_taps the declared encoder cannot pool (ConfigError), or whose training
    split is too small to hold out from (DataError), fails before any work.
    """
    p = dataset.n_rx * dataset.n_tx
    try:   # the CIR encoder shares the CSI view's EncoderConfig; only its pooling can fail
        config.encoder_config(p, dataset.n_taps)
    except ConfigError as e:
        raise ConfigError(f"the {dataset.n_taps}-tap CIR view cannot be encoded: {e}") from e
    fit_idx, hold_idx = _inner_split(dataset, config)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "pretrain.ckpt")
    metrics_path = os.path.join(out_dir, "pretrain_metrics.jsonl")
    cap = config.max_epochs if max_epochs is None else int(max_epochs)

    data_id = {k: dataset.manifest[k] for k in ("records_sha256", "split_seed", "split_fraction")}
    if resume:
        state, _ = load_pretrain_state(ckpt_path)
        changed = [f.name for f in dataclasses.fields(config)
                   if getattr(config, f.name) != getattr(state.config, f.name)]
        if changed:
            raise ConfigError(
                f"cannot resume {ckpt_path}: config differs from the checkpoint's "
                f"in {changed}")
        recorded = state.dataset or {}   # a checkpoint without the key: another dataset
        differ = {k: (recorded.get(k), v) for k, v in data_id.items() if recorded.get(k) != v}
        if differ:
            raise ConfigError(f"cannot resume {ckpt_path} on another dataset "
                              f"(checkpoint, dataset): {differ}")
        if state.history is None:
            raise ConfigError(f"cannot resume {ckpt_path}: it records no metrics history")
    else:
        state = init_pretrain_state(config, p, dataset.n_subcarriers)
        state.dataset = data_id

    pairs_fit = load_pairs(dataset, fit_idx)
    pairs_hold = load_pairs(dataset, hold_idx)

    ckpt.write_jsonl(metrics_path, state.history)
    while state.epoch < cap and not state.schedule.stale > config.patience:
        t0 = time.perf_counter()
        em = pretrain_epoch(state, pairs_fit)
        val_loss, val_ret = evaluate_pairs(state, pairs_hold, config.batch_size)
        best = state.schedule.best
        state.optimizer.lr = state.schedule.observe(val_loss, state.optimizer.lr)
        if best is None or val_loss < best:
            state.best_params = {k: p.data.copy() for k, p in state.parameters().items()}
        state.history.append({"epoch": state.epoch, "train_loss": em["train_loss"],
                              "val_loss": val_loss, "retrieval": val_ret,
                              "train_retrieval": em["train_retrieval"],
                              "lr": state.optimizer.lr, "tau": state.tau()})
        save_pretrain_checkpoint(state, ckpt_path)
        ckpt.write_jsonl(metrics_path, state.history)
        wall = time.perf_counter() - t0
        log.info("pretrain epoch %d: train loss %.4f, val loss %.4f, retrieval %.3f, "
                 "%.2f s, %.1f samples/s", state.epoch, em["train_loss"], val_loss, val_ret,
                 wall, em["n_used"] / wall)
        if state.schedule.stale > config.patience:
            log.info("early stop at epoch %d (stale %d > patience %d)",
                     state.epoch, state.schedule.stale, config.patience)
    return state.restore_best()
