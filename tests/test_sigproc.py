"""Fourier duality, input shaping, and normalization statistics.
DFT expectations are checked against explicit double loops."""

import numpy as np
import pytest

from mimoclr.errors import ContractError, DegenerateDataError
from mimoclr.sigproc import (NormStats, cir_to_csi, csi_to_cir, fit_norm_stats,
                             normalize, shape_input)


def naive_dft(cir, n_sc):
    out = np.zeros(cir.shape[:-1] + (n_sc,), dtype=complex)
    for k in range(n_sc):
        for t in range(cir.shape[-1]):
            out[..., k] += cir[..., t] * np.exp(-2j * np.pi * k * t / n_sc)
    return out


def rand_cir(rng, shape=(2, 4, 8)):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_cir_to_csi_matches_naive_dft():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cir = rand_cir(rng)
        for n_sc in (8, 16, 32):
            got = cir_to_csi(cir, n_sc)
            assert got.shape == cir.shape[:-1] + (n_sc,)
            assert np.max(np.abs(got - naive_dft(cir, n_sc))) < 1e-10


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    cir = rand_cir(rng, (2, 16, 12))
    back = csi_to_cir(cir_to_csi(cir, 64), 12)
    assert np.max(np.abs(back - cir)) < 1e-12


def test_parseval_ratio_is_subcarrier_count():
    rng = np.random.default_rng(2)
    for n_sc in (16, 64):
        cir = rand_cir(rng, (2, 4, 10))
        csi = cir_to_csi(cir, n_sc)
        ratio = np.sum(np.abs(csi) ** 2) / np.sum(np.abs(cir) ** 2)
        assert ratio == pytest.approx(n_sc, rel=1e-12)


def test_cir_to_csi_rejects_too_many_taps():
    with pytest.raises(ContractError):
        cir_to_csi(np.zeros((1, 1, 16), complex), 8)


def test_shape_input_layout():
    # values chosen so each (rx, tx, bin) slot is identifiable
    n_rx, n_tx, n_taps = 2, 3, 4
    cir = (np.arange(n_rx * n_tx * n_taps) + 1j * 100).reshape(n_rx, n_tx, n_taps) \
        + 1j * np.arange(n_rx * n_tx * n_taps).reshape(n_rx, n_tx, n_taps)
    x = shape_input(cir)
    assert x.shape == (2, n_rx * n_tx, n_taps)  # the tensor's own bins, no padding
    for r in range(n_rx):
        for t in range(n_tx):
            pair = r * n_tx + t  # rx-major pair ordering
            assert np.array_equal(x[0, pair], cir[r, t].real)
            assert np.array_equal(x[1, pair], cir[r, t].imag)


def unshape_input(x, n_rx, n_tx):
    """Inverse of shape_input."""
    assert x.shape[0] == 2 and x.shape[1] == n_rx * n_tx
    flat = x[0] + 1j * x[1]
    return flat.reshape(n_rx, n_tx, x.shape[2])


def test_shape_unshape_round_trip():
    rng = np.random.default_rng(3)
    cir = rand_cir(rng, (2, 16, 32))
    x = shape_input(cir)
    assert x.shape == (2, 32, 32)
    back = unshape_input(x, 2, 16)
    assert np.array_equal(back, cir)


@pytest.mark.parametrize("bins", [32, 64])
def test_shape_input_batch_axis_stacks_records(bins):
    rng = np.random.default_rng(5)
    batch = rand_cir(rng, (3, 2, 16, bins))
    x = shape_input(batch)
    assert x.shape == (3, 2, 32, bins) and x.dtype == np.float64
    for b in range(3):
        assert np.array_equal(x[b], shape_input(batch[b]))
    for bad in ((16, 32), (1, 3, 2, 16, 32)):
        with pytest.raises(ContractError):
            shape_input(np.zeros(bad, complex))


def fit_oracle(batch):
    """Two-pass reference with explicit loops over a small batch."""
    vals = np.asarray(batch, dtype=float).ravel()
    vmin, vmax = vals.min(), vals.max()
    scaled = (vals - vmin) / (vmax - vmin)
    return vmin, vmax, scaled.mean(), scaled.std()


def test_fit_norm_stats_matches_oracle():
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(5, 2, 3, 4)) * 3.0 + 1.0
    s = fit_norm_stats(batch)
    vmin, vmax, mean, std = fit_oracle(batch)
    assert s.vmin == pytest.approx(vmin)
    assert s.vmax == pytest.approx(vmax)
    assert s.mean == pytest.approx(mean, rel=1e-12)
    assert s.std == pytest.approx(std, rel=1e-12)


def test_fit_norm_stats_reads_a_one_shot_iterator():
    records = list(np.random.default_rng(7).normal(size=(6, 2, 3, 4)) * 2.0 - 0.5)
    assert fit_norm_stats(x for x in records) == fit_norm_stats(records)


def test_normalize_output_is_standardized():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(50, 2, 4, 8)) * 7.0 - 2.0
    s = fit_norm_stats(batch)
    y = normalize(batch, s)
    assert y.mean() == pytest.approx(0.0, abs=1e-10)
    assert y.std() == pytest.approx(1.0, rel=1e-10)
    # no clipping: a fresh value outside the fit range maps outside [0,1] scaling
    out = normalize(np.array([s.vmax + (s.vmax - s.vmin)]), s)
    assert out[0] > y.max() - 1e-9


def test_normalize_affine_and_invertible():
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(10, 2, 3, 4))
    s = fit_norm_stats(batch)
    y = normalize(batch, s)
    # invert: x = (y * std + mean) * (vmax - vmin) + vmin
    back = (y * s.std + s.mean) * (s.vmax - s.vmin) + s.vmin
    assert np.allclose(back, batch, atol=1e-12)


def test_degenerate_stats_rejected():
    with pytest.raises(DegenerateDataError):
        fit_norm_stats(np.ones((4, 2, 3, 4)))
    with pytest.raises(DegenerateDataError):
        NormStats(vmin=0.0, vmax=1.0, mean=0.5, std=0.0)
