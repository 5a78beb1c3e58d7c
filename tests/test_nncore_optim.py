"""Optimizer semantics against a hand-rolled reference, plateau-schedule
rule examples, and the finite-difference gradient checker."""

import numpy as np
import pytest

from mimoclr.errors import ContractError, TrainingDivergenceError
from mimoclr.nncore import tensor as T
from mimoclr.nncore.layers import Encoder, EncoderConfig, Head, HeadConfig, prefixed
from mimoclr.nncore.losses import contrastive_loss, cross_entropy_loss, mse_loss
from mimoclr.nncore.optim import AdamW, LRPlateau, gradient_check
from mimoclr.nncore.tensor import Tensor


def adamw_reference(p, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.01):
    """Independent loop: decoupled decay then bias-corrected Adam step."""
    p = p.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        p *= (1 - lr * wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        p -= lr * mh / (np.sqrt(vh) + eps)
    return p


def test_adamw_matches_reference_trace():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(7)]
    t = Tensor(p0.copy(), requires_grad=True)
    opt = AdamW({"p": t}, lr=0.05, weight_decay=0.01)
    for g in grads:
        t.grad = g.copy()
        opt.step()
    assert np.allclose(t.data, adamw_reference(p0, grads, 0.05), rtol=1e-12)


def test_zero_grads_zero_decay_is_noop():
    t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW({"p": t}, lr=0.1, weight_decay=0.0)
    t.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(t.data, [1.0, -2.0])


def test_decay_only_scales_params():
    t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW({"p": t}, lr=0.1, weight_decay=0.01)
    t.grad = np.zeros(2)
    opt.step()
    assert np.allclose(t.data, np.array([1.0, -2.0]) * (1 - 0.001), rtol=1e-12)


def test_lr_zero_freezes_everything():
    t = Tensor(np.array([3.0]), requires_grad=True)
    opt = AdamW({"p": t}, lr=0.0, weight_decay=0.01)
    t.grad = np.array([5.0])
    opt.step()
    assert np.array_equal(t.data, [3.0])


def test_nonfinite_gradient_names_parameter():
    t = Tensor(np.ones(2), requires_grad=True)
    opt = AdamW({"layer.weight": t}, lr=0.1)
    t.grad = np.array([1.0, np.nan])
    with pytest.raises(TrainingDivergenceError, match="layer.weight"):
        opt.step()


def test_state_arrays_round_trip():
    rng = np.random.default_rng(1)
    t = Tensor(rng.normal(size=3), requires_grad=True)
    opt = AdamW({"p": t}, lr=0.01)
    for _ in range(3):
        t.grad = rng.normal(size=3)
        opt.step()
    arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
    opt2 = AdamW({"p": Tensor(t.data.copy(), requires_grad=True)}, lr=0.01)
    opt2.load_state_arrays(arrays, opt.t)
    assert np.array_equal(opt2.m["p"], opt.m["p"])
    assert np.array_equal(opt2.v["p"], opt.v["p"])
    assert opt2.t == 3


# ---------------------------------------------------------------- schedule

def test_plateau_constant_sequence_cuts():
    sched = LRPlateau(factor=0.8, interval=10)
    lr = 1.0
    for i in range(10):
        lr = sched.observe(5.0, lr)
    assert lr == pytest.approx(0.8)
    for i in range(10):
        lr = sched.observe(5.0, lr)
    assert lr == pytest.approx(0.64)


def test_plateau_improvement_resets():
    sched = LRPlateau(factor=0.8, interval=10)
    lr = 1.0
    lr = sched.observe(5.0, lr)
    for v in np.linspace(4.9, 4.0, 30):  # strictly decreasing
        lr = sched.observe(float(v), lr)
    assert lr == 1.0


def test_plateau_stale_survives_cut():
    sched = LRPlateau(factor=0.5, interval=3)
    lr = 1.0
    for _ in range(7):
        lr = sched.observe(1.0, lr)
    assert sched.stale == 7         # streak unaffected by the two cuts
    assert lr == pytest.approx(0.25)
    lr = sched.observe(0.5, lr)     # improvement clears the streak
    assert sched.stale == 0


def test_plateau_state_round_trip():
    sched = LRPlateau(factor=0.8, interval=10)
    lr = 1.0
    for v in [5.0, 4.0, 6.0, 6.0]:
        lr = sched.observe(v, lr)
    clone = LRPlateau.from_state(sched.state())
    assert clone.state() == sched.state()


# ---------------------------------------------------------------- grad check

def test_gradient_check_linear_exact():
    w = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
    x = np.array([1.0, 4.0, -2.0])
    report = gradient_check(lambda: T.tsum(T.mul(w, Tensor(x))), {"w": w})
    assert report.max_rel_err < 1e-9


def test_gradient_check_contrastive():
    rng = np.random.default_rng(2)
    z = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    log_tau = Tensor(np.asarray(np.log(0.3)), requires_grad=True)
    report = gradient_check(
        lambda: contrastive_loss(z, w, T.exp(log_tau)),
        {"z": z, "w": w, "log_tau": log_tau})
    assert report.max_rel_err < 1e-4


def test_gradient_check_encoder_head_mse():
    rng = np.random.default_rng(3)
    enc = Encoder.init(EncoderConfig(in_height=4, in_width=8, widths=(3,), embed_dim=5),
                       rng, dtype=np.float64)
    head = Head.init(HeadConfig(in_dim=5, hidden_dim=4, out_dim=2), rng,
                     dtype=np.float64)
    x = rng.normal(size=(3, 2, 4, 8))
    y = rng.normal(size=(3, 2))
    params = prefixed(enc.params, "enc.")
    params.update(prefixed(head.params, "head."))
    report = gradient_check(
        lambda: mse_loss(head.forward(enc.forward(Tensor(x))), y), params)
    assert report.max_rel_err < 1e-4


def test_gradient_check_sampled_needs_rng():
    w = Tensor(np.ones(10), requires_grad=True)
    with pytest.raises(ContractError):
        gradient_check(lambda: T.tsum(w), {"w": w}, max_entries_per_param=3)
    report = gradient_check(lambda: T.tsum(T.mul(w, w)), {"w": w},
                            max_entries_per_param=3, rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-8


def test_gradient_check_report_is_readable():
    w = Tensor(np.ones(2), requires_grad=True)
    report = gradient_check(lambda: T.tsum(T.mul(w, w)), {"w": w})
    text = str(report)
    assert "w" in text and "max rel err" in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_plateau_nonfinite_loss_is_divergence(bad):
    sched = LRPlateau(factor=0.8, interval=10)
    sched.observe(1.0, 1.0)
    before = sched.state()
    with pytest.raises(TrainingDivergenceError):
        sched.observe(bad, 1.0)
    assert sched.state() == before    # not counted toward early stop
