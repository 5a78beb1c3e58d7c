"""Loss-function semantics: hand-computed oracles, invariances, and the
degenerate cases the training loop depends on."""

import numpy as np
import pytest

from mimoclr.errors import ContractError
from mimoclr.nncore import tensor as T
from mimoclr.nncore.losses import contrastive_loss, cross_entropy_loss, mse_loss
from mimoclr.nncore.tensor import Tensor


def contrastive_oracle(z, w, tau, symmetric=False):
    """Direct per-anchor loop: -log softmax over cosine/tau rows."""
    z = np.asarray(z, float)
    w = np.asarray(w, float)
    n = z.shape[0]
    cos = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            cos[i, j] = np.dot(z[i], w[j]) / (np.linalg.norm(z[i]) * np.linalg.norm(w[j]))
    def one_direction(c):
        total = 0.0
        for i in range(n):
            logits = c[i] / tau
            total += -(logits[i] - np.log(np.sum(np.exp(logits))))
        return total / n
    if symmetric:
        return 0.5 * (one_direction(cos) + one_direction(cos.T))
    return one_direction(cos)


def test_contrastive_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(6, 8))
        w = rng.normal(size=(6, 8))
        for tau in (0.07, 0.5, 1.0):
            got = float(contrastive_loss(Tensor(z), Tensor(w), tau).data)
            assert got == pytest.approx(contrastive_oracle(z, w, tau), rel=1e-10)


def test_contrastive_symmetric_flag():
    rng = np.random.default_rng(1)
    z, w = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    got = float(contrastive_loss(Tensor(z), Tensor(w), 0.3, symmetric=True).data)
    assert got == pytest.approx(contrastive_oracle(z, w, 0.3, symmetric=True), rel=1e-10)


def test_contrastive_single_pair_is_zero():
    rng = np.random.default_rng(2)
    z, w = rng.normal(size=(1, 7)), rng.normal(size=(1, 7))
    assert float(contrastive_loss(Tensor(z), Tensor(w), 0.07).data) == 0.0


def test_contrastive_rescale_invariance():
    # scaling any single embedding by c > 0 must not move the loss
    rng = np.random.default_rng(3)
    z, w = rng.normal(size=(8, 16)), rng.normal(size=(8, 16))
    base = float(contrastive_loss(Tensor(z), Tensor(w), 0.2).data)
    for c, row, side in [(3.0, 0, "z"), (1e-3, 4, "z"), (250.0, 7, "w")]:
        z2, w2 = z.copy(), w.copy()
        (z2 if side == "z" else w2)[row] *= c
        moved = float(contrastive_loss(Tensor(z2), Tensor(w2), 0.2).data)
        assert abs(moved - base) < 1e-12


def test_contrastive_permutation_invariance():
    rng = np.random.default_rng(4)
    z, w = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
    perm = rng.permutation(9)
    base = float(contrastive_loss(Tensor(z), Tensor(w), 0.4).data)
    permuted = float(contrastive_loss(Tensor(z[perm]), Tensor(w[perm]), 0.4).data)
    assert permuted == pytest.approx(base, abs=1e-12)


def test_contrastive_perfect_alignment_low_temp():
    # matched pairs identical, negatives orthogonal: loss -> 0 as tau -> 0
    z = np.eye(4)
    loss = float(contrastive_loss(Tensor(z), Tensor(z.copy()), 0.01).data)
    assert loss < 1e-10


def test_contrastive_contract_errors():
    z = Tensor(np.ones((2, 3)))
    with pytest.raises(ContractError):
        contrastive_loss(z, Tensor(np.ones((3, 3))), 0.1)
    with pytest.raises(ContractError):
        contrastive_loss(z, Tensor(np.ones((2, 3))), 0.0)
    with pytest.raises(ContractError):
        contrastive_loss(z, Tensor(np.ones((2, 3))), -1.0)
    with pytest.raises(ContractError):
        contrastive_loss(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))), 0.1)


def test_contrastive_learnable_tau_tensor():
    rng = np.random.default_rng(5)
    z, w = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    tau = Tensor(np.asarray(0.25), requires_grad=True)
    loss = contrastive_loss(Tensor(z), Tensor(w), tau)
    assert float(loss.data) == pytest.approx(contrastive_oracle(z, w, 0.25), rel=1e-10)
    loss.backward()
    assert tau.grad is not None and np.ndim(tau.grad) == 0


def _directional(zn, wn, tau):
    """One direction of the loss as its own graph: matched logits picked
    with gather_rows and subtracted from each row's logsumexp."""
    n = zn.shape[0]
    logits = T.div(T.matmul(zn, T.transpose(wn)), tau)
    matched = T.gather_rows(logits, np.arange(n))
    lse = T.logsumexp(logits, axis=1)
    return T.tmean(T.add(lse, T.mul(matched, -1.0)))


def directional_reference(z, w, tau, symmetric=False):
    """contrastive_loss built from `_directional`, the graph it must equal
    bit for bit, forward and backward."""
    zn = T.l2_normalize_rows(z)
    wn = T.l2_normalize_rows(w)
    loss = _directional(zn, wn, tau)
    if symmetric:
        loss = T.mul(T.add(loss, _directional(wn, zn, tau)), 0.5)
    return loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("learnable_tau", [False, True])
@pytest.mark.parametrize("n", [16, 37])
def test_contrastive_is_bit_equal_to_the_directional_reference(dtype, symmetric,
                                                               learnable_tau, n):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        zd = rng.normal(size=(n, 12)).astype(dtype)
        wd = rng.normal(size=(n, 12)).astype(dtype)
        tau_d = np.asarray(rng.uniform(0.05, 1.0), dtype=dtype)
        runs = []
        for build in (contrastive_loss, directional_reference):
            z = Tensor(zd.copy(), requires_grad=True)
            w = Tensor(wd.copy(), requires_grad=True)
            tau = Tensor(tau_d.copy(), requires_grad=True) if learnable_tau else float(tau_d)
            loss = build(z, w, tau, symmetric=symmetric)
            loss.backward()
            runs.append([loss.data, z.grad, w.grad] + ([tau.grad] if learnable_tau else []))
        for got, want in zip(*runs):
            got, want = np.asarray(got), np.asarray(want)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


def ce_oracle(logits, labels):
    total = 0.0
    for row, lab in zip(logits, labels):
        p = np.exp(row - row.max())
        p /= p.sum()
        total += -np.log(p[lab])
    return total / len(labels)


def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(10, 4)) * 3
    labels = rng.integers(0, 4, size=10)
    got = float(cross_entropy_loss(Tensor(logits), labels).data)
    assert got == pytest.approx(ce_oracle(logits, labels), rel=1e-12)


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    base = float(cross_entropy_loss(Tensor(logits), labels).data)
    shifted = logits + rng.normal(size=(6, 1)) * 10  # per-sample constant shift
    got = float(cross_entropy_loss(Tensor(shifted), labels).data)
    assert abs(got - base) < 1e-12


def test_cross_entropy_uniform_is_log_c():
    logits = np.zeros((4, 8))
    got = float(cross_entropy_loss(Tensor(logits), np.zeros(4, dtype=int)).data)
    assert got == pytest.approx(np.log(8))


def test_cross_entropy_label_range():
    with pytest.raises(ContractError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ContractError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


def test_mse_matches_hand_value():
    pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    target = np.array([[1.0, 0.0], [0.0, 4.0]])
    # squared Euclidean per sample: [4, 9] -> mean 6.5
    assert float(mse_loss(pred, target).data) == pytest.approx(6.5)
    assert float(mse_loss(pred, pred.data.copy()).data) == 0.0
    with pytest.raises(ContractError):
        mse_loss(pred, np.zeros((3, 2)))
