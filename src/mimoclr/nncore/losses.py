"""Loss functions composed from autodiff primitives.

contrastive_loss implements the one-directional alignment objective over a
batch of paired embeddings: with rows z (anchor view) and w (paired view)
scaled to unit norm, logits L_ij = cos(z_i, w_j) / tau and

    loss = -(1/N) * sum_i [ L_ii - logsumexp_j L_ij ]

so each anchor is scored against its own pair and all in-batch mismatches:
cross_entropy_loss of the rows of L, row i labelled i.
"""

import numpy as np

from ..errors import ContractError
from . import tensor as T
from .tensor import Tensor


def contrastive_loss(z_anchor: Tensor, w_pair: Tensor, tau, symmetric: bool = False) -> Tensor:
    """Batch alignment loss; anchors are rows of `z_anchor`.

    tau may be a float or a scalar Tensor (learnable temperature); it must be
    positive.  A single pair (N=1) gives exactly zero loss.  With
    symmetric=True the same loss with roles swapped is averaged in.
    """
    if z_anchor.shape != w_pair.shape or len(z_anchor.shape) != 2:
        raise ContractError(
            f"embedding batches must share [N, D] shape, got {z_anchor.shape} vs {w_pair.shape}")
    if z_anchor.shape[0] < 1:
        raise ContractError("contrastive loss needs at least one pair")
    tau_val = float(tau.data) if isinstance(tau, Tensor) else float(tau)
    if not tau_val > 0.0:
        raise ContractError(f"temperature must be positive, got {tau_val}")
    zn = T.l2_normalize_rows(z_anchor)
    wn = T.l2_normalize_rows(w_pair)
    labels = np.arange(z_anchor.shape[0])
    loss = cross_entropy_loss(T.div(T.matmul(zn, T.transpose(wn)), tau), labels)
    if symmetric:
        swapped = cross_entropy_loss(T.div(T.matmul(wn, T.transpose(zn)), tau), labels)
        loss = T.mul(T.add(loss, swapped), 0.5)
    return loss


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; integer labels indexed against columns."""
    labels = np.asarray(labels)
    if len(logits.shape) != 2 or labels.shape != (logits.shape[0],):
        raise ContractError(
            f"need logits [N, C] with N labels, got {logits.shape} and {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ContractError(
            f"label out of range [0, {logits.shape[1]}): {labels.min()}..{labels.max()}")
    lse = T.logsumexp(logits, axis=1)
    picked = T.gather_rows(logits, labels)
    return T.tmean(T.add(lse, T.mul(picked, -1.0)))


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean over samples of the squared Euclidean error across output dims."""
    tgt = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=pred.dtype))
    if pred.shape != tgt.shape:
        raise ContractError(f"prediction/target shape mismatch: {pred.shape} vs {tgt.shape}")
    diff = T.add(pred, T.mul(tgt, -1.0))
    sq = T.mul(diff, diff)
    n = pred.shape[0] if len(pred.shape) > 0 else 1
    return T.mul(T.tsum(sq), 1.0 / n)
