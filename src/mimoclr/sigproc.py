"""Deterministic transforms between delay- and frequency-domain channels,
dataset normalization, and shaping of complex tensors into the real
two-channel layout the encoders consume.

DFT convention: forward transform H[k] = sum_t h[t] exp(-2j*pi*k*t/K) with no
scale factor; the inverse carries 1/K.  Parseval then reads
sum_k |H[k]|^2 = K * sum_t |h[t]|^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateDataError


def cir_to_csi(cir: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Per-antenna-pair K-point DFT of the tap axis, taps zero-padded to K."""
    if cir.shape[-1] > n_subcarriers:
        raise ContractError(
            f"n_taps {cir.shape[-1]} exceeds n_subcarriers {n_subcarriers}"
        )
    return np.fft.fft(cir, n=n_subcarriers, axis=-1)


def csi_to_cir(csi: np.ndarray, n_taps: int) -> np.ndarray:
    """Inverse DFT of the subcarrier axis, truncated to the first n_taps."""
    if n_taps > csi.shape[-1]:
        raise ContractError(f"n_taps {n_taps} exceeds n_subcarriers {csi.shape[-1]}")
    return np.fft.ifft(csi, axis=-1)[..., :n_taps]


def shape_input(tensor: np.ndarray) -> np.ndarray:
    """Complex [n_rx, n_tx, bins] -> real [2, n_rx*n_tx, bins]; with a
    leading batch axis, [B, n_rx, n_tx, bins] -> [B, 2, n_rx*n_tx, bins].

    Channel 0 holds the real part, channel 1 the imaginary part.  The pair
    axis flattens rx-major (pair = rx * n_tx + tx).  The bin axis is the
    tensor's own: n_taps for a CIR, n_subcarriers for a CSI.
    """
    if tensor.ndim not in (3, 4):
        raise ContractError(f"expected [(B,) n_rx, n_tx, bins], got shape {tensor.shape}")
    *batch, n_rx, n_tx, bins = tensor.shape
    flat = tensor.reshape(*batch, n_rx * n_tx, bins)
    out = np.empty((*batch, 2, n_rx * n_tx, bins), dtype=np.float64)
    out[..., 0, :, :] = flat.real
    out[..., 1, :, :] = flat.imag
    return out


@dataclass(frozen=True)
class NormStats:
    """Scalar normalization statistics of one modality, fitted on the
    training split: global min/max of the shaped values, then mean/std of the
    min-max-scaled values."""

    vmin: float
    vmax: float
    mean: float
    std: float

    def __post_init__(self):
        if not self.vmax > self.vmin:
            raise DegenerateDataError(f"max ({self.vmax}) must exceed min ({self.vmin})")
        if not self.std > 0:
            raise DegenerateDataError(f"std must be > 0, got {self.std}")


def fit_norm_stats(shaped_inputs) -> NormStats:
    """One-pass fit over an iterable of shaped [2, P, K] arrays (an ndarray
    iterates its records), read once, one record at a time, in order.

    Each record's count, min, max, mean and centred sum of squares M2 are
    merged into the running ones (Chan, Golub & LeVeque 1979).  Min-max
    scaling is affine, so the scaled mean and std follow from the raw ones:
    (mean - vmin) / (vmax - vmin) and sqrt(M2 / n) / (vmax - vmin).  The
    records must all be training-split samples.
    """
    vmin = np.inf
    vmax = -np.inf
    count = 0
    mean = 0.0
    m2 = 0.0
    centred = None      # one scratch record, reused: no per-record temporaries
    for x in shaped_inputs:
        x = np.asarray(x, dtype=np.float64)
        if centred is None or centred.shape != x.shape:
            centred = np.empty(x.shape, dtype=np.float64)
        x_mean = float(x.mean())
        delta = x_mean - mean
        total = count + x.size
        mean += delta * x.size / total
        np.square(np.subtract(x, x_mean, out=centred), out=centred)
        m2 += float(centred.sum()) + delta * delta * count * x.size / total
        count = total
        vmin = min(vmin, float(x.min()))
        vmax = max(vmax, float(x.max()))
    if count == 0:
        raise ContractError("cannot fit statistics on an empty training split")
    if not vmax > vmin:
        raise DegenerateDataError(f"constant data: min == max == {vmin}")
    scale = vmax - vmin
    return NormStats(vmin=vmin, vmax=vmax, mean=(mean - vmin) / scale,
                     std=float(np.sqrt(m2 / count)) / scale)


def normalize(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Min-max scale with training-split min/max, then standardize with the
    post-scaling mean/std.  Out-of-range validation values are not clipped."""
    scaled = (x - stats.vmin) / (stats.vmax - stats.vmin)
    return (scaled - stats.mean) / stats.std
