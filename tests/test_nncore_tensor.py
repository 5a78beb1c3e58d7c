"""Autodiff op tests.  Every backward rule is compared against a test-local
central finite-difference oracle in float64; forward values are checked
against plain numpy."""

import numpy as np
import pytest

from mimoclr.errors import ContractError
from mimoclr.nncore import tensor as T
from mimoclr.nncore.layers import Encoder, EncoderConfig
from mimoclr.nncore.tensor import Tensor


def fd_grad(f, x, h=1e-6):
    """Central differences of scalar f wrt array x (test-local oracle)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        x0 = flat[i]
        step = h * max(1.0, abs(x0))
        flat[i] = x0 + step
        fp = f()
        flat[i] = x0 - step
        fm = f()
        flat[i] = x0
        gf[i] = (fp - fm) / (2 * step)
    return g


def check_op(build, *shapes, seed=0, rtol=1e-6, atol=1e-8):
    """build(*tensors) -> scalar Tensor; compares backward to the oracle."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s).astype(np.float64) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for t, a in zip(tensors, arrays):
        want = fd_grad(lambda: float(build(*[Tensor(x) for x in arrays]).data), a)
        assert np.allclose(t.grad, want, rtol=rtol, atol=atol), (t.grad, want)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        t.backward()


def test_add_mul_broadcast():
    check_op(lambda a, b: T.tsum(T.mul(T.add(a, b), a)), (3, 4), (4,))
    check_op(lambda a, b: T.tsum(T.mul(a, b)), (2, 3), (2, 1))


def test_sub_div_neg():
    check_op(lambda a, b: T.tsum((a - b) / (b * b + 3.0)), (3, 3), (3, 3), seed=2)
    check_op(lambda a: T.tsum(-a * a), (5,))


def test_scalar_operand_folding():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = T.tsum(2.0 * a + 1.0)
    out.backward()
    assert np.allclose(a.grad, [2.0, 2.0])


def test_matmul_and_transpose():
    check_op(lambda a, b: T.tsum(T.matmul(a, b)), (3, 4), (4, 2))
    check_op(lambda a, b: T.tsum(T.matmul(a, T.transpose(b))), (3, 4), (2, 4))


def test_reshape():
    check_op(lambda a: T.tsum(T.mul(T.reshape(a, (6,)), T.reshape(a, (6,)))), (2, 3))


def test_relu_forward_and_grad():
    x = Tensor(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
    y = T.relu(x)
    assert np.array_equal(y.data, [0, 0, 0.5, 3.0])
    T.tsum(y).backward()
    assert np.array_equal(x.grad, [0, 0, 1, 1])


def test_exp_log_sqrt():
    check_op(lambda a: T.tsum(T.exp(a)), (4,))
    rng = np.random.default_rng(3)
    pos = rng.uniform(0.5, 2.0, size=5)
    for op in (T.log, T.sqrt):
        t = Tensor(pos.copy(), requires_grad=True)
        T.tsum(op(t)).backward()
        arrs = [pos.copy()]
        want = fd_grad(lambda: float(T.tsum(op(Tensor(arrs[0]))).data), arrs[0])
        assert np.allclose(t.grad, want, rtol=1e-6)


def test_sum_axes_and_mean():
    check_op(lambda a: T.tsum(T.mul(T.tsum(a, axis=0), T.tsum(a, axis=0))), (3, 4))
    check_op(lambda a: T.tsum(T.mul(T.tsum(a, axis=1, keepdims=True), a)), (3, 4))
    m = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = T.tmean(m)
    assert float(out.data) == pytest.approx(2.5)
    out.backward()
    assert np.allclose(m.grad, np.full((2, 3), 1 / 6))


def test_maximum_const():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    y = T.maximum_const(x, 0.5)
    assert np.array_equal(y.data, [0.5, 0.5, 2.0])
    T.tsum(y).backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0])  # pass-through at the boundary


def test_logsumexp_values_and_grad():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    got = T.logsumexp(Tensor(x), axis=1).data
    want = np.log(np.sum(np.exp(x), axis=1))
    assert np.allclose(got, want, rtol=1e-12)
    check_op(lambda a: T.tsum(T.logsumexp(a, axis=1)), (4, 6), seed=6)
    # numerically stable for large inputs
    big = T.logsumexp(Tensor(np.array([[1000.0, 1000.0]])), axis=1)
    assert big.data[0] == pytest.approx(1000.0 + np.log(2.0))


def test_gather_rows():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    idx = np.array([2, 0, 3])
    y = T.gather_rows(x, idx)
    assert np.array_equal(y.data, [2.0, 4.0, 11.0])
    T.tsum(T.mul(y, Tensor(np.array([1.0, 2.0, 3.0])))).backward()
    want = np.zeros((3, 4))
    want[0, 2], want[1, 0], want[2, 3] = 1, 2, 3
    assert np.array_equal(x.grad, want)


def test_conv2d_forward_matches_loop():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 5, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.zeros((2, 4, 5, 6))
    for n in range(2):
        for f in range(4):
            for i in range(5):
                for j in range(6):
                    want[n, f, i, j] = b[f] + np.sum(
                        xp[n, :, i:i + 3, j:j + 3] * w[f])
    assert np.allclose(out, want, rtol=1e-10)


def test_conv2d_grads():
    check_op(lambda x, w, b: T.tsum(T.mul(T.conv2d(x, w, b), T.conv2d(x, w, b))),
             (2, 2, 4, 4), (3, 2, 3, 3), (3,), seed=8, rtol=1e-5, atol=1e-6)


def test_conv2d_channel_mismatch():
    with pytest.raises(ContractError):
        T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 5, 3, 3))),
                 Tensor(np.zeros(3)))


def test_avg_pool_forward_and_grad():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    y = T.avg_pool2d(Tensor(x)).data
    assert np.array_equal(y[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    check_op(lambda a: T.tsum(T.mul(T.avg_pool2d(a), T.avg_pool2d(a))), (2, 3, 4, 6))
    with pytest.raises(ContractError):
        T.avg_pool2d(Tensor(np.zeros((1, 1, 3, 4))))


def test_spatial_mean():
    x = np.arange(8.0).reshape(1, 2, 2, 2)
    assert np.array_equal(T.spatial_mean(Tensor(x)).data, [[1.5, 5.5]])
    check_op(lambda a: T.tsum(T.mul(T.spatial_mean(a), T.spatial_mean(a))), (2, 3, 2, 4))


def test_l2_normalize_rows():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 5))
    y = T.l2_normalize_rows(Tensor(x)).data
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, rtol=1e-12)
    check_op(lambda a: T.tsum(T.mul(T.l2_normalize_rows(a),
                                    Tensor(np.ones((4, 5))))), (4, 5), seed=10)
    with pytest.raises(ContractError):
        T.l2_normalize_rows(Tensor(np.zeros((2, 3))))


def test_gradient_accumulates_on_reuse():
    # a appears twice in the graph; grads must sum
    a = Tensor(np.array([3.0]), requires_grad=True)
    out = T.add(T.mul(a, a), T.mul(2.0, a))  # a^2 + 2a -> d/da = 2a + 2 = 8
    out = T.tsum(out)
    out.backward()
    assert a.grad[0] == pytest.approx(8.0)


def test_no_grad_without_requires():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3), requires_grad=True)
    out = T.tsum(T.mul(a, b))
    out.backward()
    assert a.grad is None
    assert np.allclose(b.grad, 1.0)


def test_float32_stays_float32():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    out = T.tsum(T.mul(a, 2.0))
    assert out.dtype == np.float32
    out.backward()
    assert a.grad.dtype == np.float32


def _pool_oracle(x):
    """The reshape-and-mean form of 2x2 average pooling."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [
    (64, 8, 32, 64),      # desk stage 1
    (64, 16, 16, 32),     # desk stage 2
    (64, 96, 8, 16),      # desk stage 3
    (2, 128, 64, 64),     # paper stage 3
])
def test_avg_pool_forward_bit_equal_to_mean(dtype, shape):
    x = np.random.default_rng(11).normal(size=shape).astype(dtype)
    got = T.avg_pool2d(Tensor(x)).data
    want = _pool_oracle(x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avg_pool_forward_width_two(dtype):
    # numpy's mean sums a width-2 input in another order, so only rounding agrees
    x = np.random.default_rng(12).normal(size=(3, 4, 6, 2)).astype(dtype)
    got = T.avg_pool2d(Tensor(x)).data
    assert got.dtype == dtype
    assert np.allclose(got, _pool_oracle(x), rtol=1e-6, atol=0)


def test_no_grad_forward_bit_equal_and_untaped():
    enc = Encoder.init(EncoderConfig(in_height=8, in_width=16, widths=(4, 6), embed_dim=5),
                       np.random.default_rng(13))
    x = np.random.default_rng(14).normal(size=(3, 2, 8, 16)).astype(np.float32)
    taped = enc.forward(Tensor(x))
    assert taped.requires_grad and taped._backward is not None
    with T.no_grad():
        out = enc.forward(Tensor(x))
    assert np.array_equal(out.data, taped.data)
    assert out.requires_grad is False
    assert out._parents == ()
    assert out._backward is None
    assert all(p.grad is None for p in enc.params.values())


def _records():
    return T.mul(Tensor(np.ones(2), requires_grad=True), 2.0).requires_grad


def test_no_grad_restores_flag_after_nesting_and_errors():
    assert _records()
    with T.no_grad():
        with T.no_grad():
            assert not _records()
        assert not _records()
    assert _records()
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("inside")
    assert _records()
