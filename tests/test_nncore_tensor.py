"""Autodiff op tests.  Every backward rule is compared against a test-local
central finite-difference oracle in float64; forward values are checked
against plain numpy."""

import weakref

import numpy as np
import pytest

from mimoclr.errors import ContractError
from mimoclr.nncore import tensor as T
from mimoclr.nncore.layers import Encoder, EncoderConfig, Head, HeadConfig
from mimoclr.nncore.losses import mse_loss
from mimoclr.nncore.optim import AdamW
from mimoclr.nncore.tensor import Tensor

from gradcheck import gradient_check


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
    # subtraction and negation are multiplication by -1
    check_op(lambda a, b: T.tsum(T.div(T.add(a, T.mul(b, -1.0)), T.add(T.mul(b, b), 3.0))),
             (3, 3), (3, 3), seed=2)
    check_op(lambda a: T.tsum(T.mul(T.mul(a, -1.0), a)), (5,))


def test_scalar_operand_folding():
    # a plain number on either side of add or mul is folded in as a constant
    for build in (lambda a: T.add(T.mul(a, 2.0), 1.0),
                  lambda a: T.add(1.0, T.mul(2.0, a))):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = T.tsum(build(a))
        out.backward()
        assert float(out.data) == 8.0
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


def test_relu_special_values():
    """NaN propagates; -inf and both zeros give +0.0 with a zero gradient."""
    x = Tensor(np.array([np.nan, -np.inf, -0.0, 0.0, np.inf], dtype=np.float32),
               requires_grad=True)
    y = T.relu(x)
    assert np.isnan(y.data[0])
    assert np.array_equal(y.data[1:], [0, 0, 0, np.inf])
    assert not np.any(np.signbit(y.data[1:4]))
    T.tsum(T.mul(y, Tensor(np.ones(5, dtype=np.float32)))).backward()
    assert np.array_equal(x.grad, [0, 0, 0, 0, 1])
    with T.no_grad():
        z = T.relu(x)
    assert np.array_equal(z.data, y.data, equal_nan=True) and z._backward is None


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
@pytest.mark.parametrize("shape", [
    (64, 8, 32, 64),      # desk stage 1
    (64, 16, 16, 32),     # desk stage 2
    (64, 96, 8, 16),      # desk stage 3
    (3, 4, 6, 2),         # width 2
])
def test_avg_pool_forward_bit_equal_to_four_views(dtype, shape):
    # the corners of each window added as (a + b) + (c + d), then * 0.25
    x = np.random.default_rng(23).normal(size=shape).astype(dtype)
    x[0, 0, 0, :2] = [0.0, -0.0]
    want = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
    want += x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]
    want *= 0.25
    got = T.avg_pool2d(Tensor(x)).data
    assert _same_bytes(got, want)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [
    (64, 8, 32, 64),      # desk stage 1
    (64, 16, 16, 32),     # desk stage 2
    (64, 96, 8, 16),      # desk stage 3
])
def test_avg_pool_backward_bit_equal_to_repeat(dtype, shape):
    x = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
    out = T.avg_pool2d(x)
    g = np.random.default_rng(15).normal(size=out.shape).astype(dtype)
    out._backward(g)
    want = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25
    assert x.grad.dtype == want.dtype
    assert np.array_equal(x.grad, want)


@pytest.mark.parametrize("x_shape, w_shape", [
    ((64, 2, 32, 64), (8, 2, 3, 3)),      # desk stage 1
    ((64, 8, 16, 32), (16, 8, 3, 3)),     # desk stage 2
    ((64, 16, 8, 16), (96, 16, 3, 3)),    # desk stage 3
])
def test_conv2d_forward_bias_bit_equal(x_shape, w_shape):
    rng = np.random.default_rng(16)
    x, w, b = (rng.normal(size=s).astype(np.float32) for s in (x_shape, w_shape, w_shape[:1]))
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    n, c, h, wd = x_shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.stack([xp[:, :, i:i + h, j:j + wd] for i in range(3) for j in range(3)], axis=2)
    cols = cols.reshape(n, c * 9, h * wd)
    want = np.matmul(w.reshape(w_shape[0], -1), cols).reshape(n, -1, h, wd) \
        + b[None, :, None, None]
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_row_does_not_depend_on_row_count(dtype):
    # desk projection shape: a one-row product must equal that row of a
    # many-row product (numpy alone would route it through BLAS gemv)
    rng = np.random.default_rng(4)
    h = rng.standard_normal((65, 96)).astype(dtype)
    w = Tensor(rng.standard_normal((96, 64)).astype(dtype))
    full = T.matmul(Tensor(h), w).data
    for row in (0, 64):
        assert np.array_equal(T.matmul(Tensor(h[row:row + 1]), w).data, full[row:row + 1])


def _conv2d_oracle(x, w, b, g):
    """The padded conv2d: np.pad, one im2col copy per kernel offset, a
    col2im scatter into the padded buffer, and every gradient written as
    zeros + g.  Returns out, dx, dw, db."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, h, wd), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + h, j:j + wd]
    cols2 = cols.reshape(n, c * kh * kw, h * wd)
    w2 = w.reshape(f, c * kh * kw)
    out = np.matmul(w2, cols2).reshape(n, f, h, wd)
    out += b[None, :, None, None]
    gl = g.reshape(n, f, h * wd)
    db = np.zeros_like(b)
    db += g.sum(axis=(0, 2, 3))
    dw = np.zeros_like(w)
    dw += np.matmul(gl, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w2.T, gl).reshape(n, c, kh, kw, h, wd)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + h, j:j + wd] += dcols[:, :, i, j]
    dx = np.zeros_like(x)
    dx += dxp[:, :, ph:ph + h, pw:pw + wd]
    return out, dx, dw, db


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _signed_zeros(a, rng):
    """Copy of `a` with about a quarter of its entries set to +0.0 or -0.0."""
    a = a.copy()
    hit = rng.random(a.shape) < 0.25
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("x_shape, f", [
    ((64, 2, 32, 64), 8),     # desk stage 1
    ((64, 8, 16, 32), 16),    # desk stage 2
    ((64, 16, 8, 16), 96),    # desk stage 3
    ((3, 2, 2, 6), 4),        # H = 2
    ((3, 2, 5, 2), 4),        # W = 2
    ((2, 3, 2, 2), 5),        # H = W = 2
])
@pytest.mark.parametrize("x_grad", [True, False])
def test_conv2d_bit_equal_to_padded_oracle(dtype, k, x_shape, f, x_grad):
    rng = np.random.default_rng(17)
    c = x_shape[1]
    x = _signed_zeros(rng.normal(size=x_shape).astype(dtype), rng)
    w = rng.normal(size=(f, c, k, k)).astype(dtype)
    b = rng.normal(size=f).astype(dtype)
    g = _signed_zeros(rng.normal(size=(x_shape[0], f) + x_shape[2:]).astype(dtype), rng)
    cases = [g]
    if x_shape[0] < 64:
        g_nan = g.copy()
        g_nan[0, 0, -1, -1] = np.nan
        g_zero = np.where(rng.random(g.shape) < 0.5, 0.0, -0.0).astype(dtype)
        cases += [g_nan, g_zero]
    for gg in cases:
        xt, wt, bt = Tensor(x, requires_grad=x_grad), Tensor(w, True), Tensor(b, True)
        out = T.conv2d(xt, wt, bt)
        out._backward(gg.copy())
        want_out, want_dx, want_dw, want_db = _conv2d_oracle(x, w, b, gg)
        assert _same_bytes(out.data, want_out)
        assert _same_bytes(wt.grad, want_dw)
        assert _same_bytes(bt.grad, want_db)
        if x_grad:
            assert _same_bytes(xt.grad, want_dx)
        else:
            assert xt.grad is None


def _conv2d_whole_batch(x, w, b, g, x_grad):
    """conv2d as one whole-batch pass: one im2col of every sample, one
    batched matmul, dw by .sum(axis=0) over the per-sample products, and
    one col2im of the full dcols.  Returns out, dx (None if frozen), dw
    and db, each gradient written as zeros + g."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    hw = h * wd
    slabs = T._im2col_slabs(h, wd, kh, kw)
    cols = T._im2col(x, slabs, kh, kw, np.empty((n, c * kh * kw, hw), dtype=x.dtype))
    w2 = w.reshape(f, -1)
    out = np.matmul(w2, cols).reshape(n, f, h, wd)
    out += b[None, :, None, None]
    gl = g.reshape(n, f, hw)
    db = np.zeros_like(b)
    db += g.sum(axis=(0, 2, 3))
    dw = np.zeros_like(w)
    dw += np.matmul(gl, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    if not x_grad:
        return out, None, dw, db
    dcols = np.matmul(w2.T, gl).reshape(n, c, kh, kw, hw)
    dcols6 = dcols.reshape(n, c, kh, kw, h, wd)
    dxf = np.zeros((n, c, hw), dtype=x.dtype)
    for i, j, s, lo, hi, wrap in slabs:
        dcols6[:, :, i, j, :, wrap] = 0
        dxf[..., lo + s:hi + s] += dcols[:, :, i, j, lo:hi]
    dx = np.zeros_like(x)
    dx += dxf.reshape(x.shape)
    return out, dx, dw, db


def _samples_per_block(x_shape, k, dtype):
    c, h, w = x_shape[1:]
    return max(1, T._COL_BLOCK_BYTES // (c * k * k * h * w * np.dtype(dtype).itemsize))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case, x_shape, f, k, x_grad", [
    ("one partial block", (5, 16, 8, 16), 96, 3, True),
    ("blocks and a tail", (33, 16, 8, 16), 96, 3, True),
    ("sample above budget", (3, 2, 256, 256), 16, 3, True),   # paper stage 1
    ("frozen input", (33, 8, 16, 32), 16, 3, False),
])
def test_conv2d_blocks_bit_equal_to_whole_batch(dtype, case, x_shape, f, k, x_grad):
    per_block = _samples_per_block(x_shape, k, dtype)
    n = x_shape[0]
    assert {"one partial block": n < per_block,
            "blocks and a tail": n > per_block and n % per_block,
            "sample above budget": per_block == 1 and n > 1,
            "frozen input": n > per_block}[case]
    rng = np.random.default_rng(21)
    c = x_shape[1]
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=(f, c, k, k)).astype(dtype)
    b = rng.normal(size=f).astype(dtype)
    g = rng.normal(size=(n, f) + x_shape[2:]).astype(dtype)
    xt, wt, bt = Tensor(x, requires_grad=x_grad), Tensor(w, True), Tensor(b, True)
    out = T.conv2d(xt, wt, bt)
    out._backward(g)
    want_out, want_dx, want_dw, want_db = _conv2d_whole_batch(x, w, b, g, x_grad)
    assert np.array_equal(out.data, want_out) and out.data.dtype == dtype
    assert np.array_equal(wt.grad, want_dw) and wt.grad.dtype == dtype
    assert np.array_equal(bt.grad, want_db)
    if x_grad:
        assert np.array_equal(xt.grad, want_dx) and xt.grad.dtype == dtype
    else:
        assert xt.grad is None


def test_conv2d_holds_one_block_of_columns(traced_peak):
    # paper stage 1 at batch 8: the output (32 MiB) and dx (4 MiB) grow with
    # the batch, the columns do not; one sample's are 4.5 MiB, above the
    # block budget, so blocks hold one sample.  Whole-batch columns would be
    # 36 MiB, and col2im's dcols as much again.
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(8, 2, 256, 256)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(16, 2, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
    g = np.ones((8, 16, 256, 256), dtype=np.float32)
    assert _samples_per_block(x.shape, 3, np.float32) == 1
    outs = []

    def step():
        outs.append(T.conv2d(x, w, b))
        outs[0]._backward(g)

    peak = traced_peak(step)
    block = 2 * 9 * 256 * 256 * 4
    slack = 2**20
    assert peak <= outs[0].data.nbytes + x.grad.nbytes + block + slack, peak / 2**20


def test_conv2d_gradient_check_kernel5_width2():
    # kernel 5 on a 2-wide input: every horizontal shift but the centre
    # wraps across a row, so the zeroed border cells carry the whole result
    rng = np.random.default_rng(18)
    params = {"x": Tensor(rng.normal(size=(2, 2, 3, 2)), requires_grad=True),
              "w": Tensor(rng.normal(size=(3, 2, 5, 5)), requires_grad=True),
              "b": Tensor(rng.normal(size=3), requires_grad=True)}
    c = Tensor(rng.normal(size=(2, 3, 3, 2)))

    def loss():
        y = T.conv2d(params["x"], params["w"], params["b"])
        return T.tsum(T.mul(T.mul(y, y), c))

    report = gradient_check(loss, params)
    assert report.max_rel_err < 1e-6, str(report)


def _graph(root):
    """Every node reachable from `root`'s node through parents."""
    seen, stack = {}, [root._node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack.extend(n.parents)
    return list(seen.values())


def _saved(node):
    """The arrays `node`'s backward closure captured at forward time."""
    cells = node.backward.__closure__ if node.backward is not None else ()
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


def _accumulate_oracle(self, g, owned=False):
    """Gradient accumulation as zeros + g, then += for every later term."""
    if self.grad is None:
        self.grad = np.zeros(self.shape, self.dtype)
    self.grad += g


@pytest.mark.parametrize("build", [
    lambda t, a, b: T.tsum(T.mul(T.add(t, t), a)),
    lambda t, a, b: T.add(T.add(T.tsum(T.mul(T.relu(t), a)), T.tsum(T.mul(T.relu(t), b))),
                          T.tsum(T.mul(T.avg_pool2d(t), b[:, :, ::2, ::2]))),
], ids=["add", "relu-relu-pool"])
def test_reused_input_gets_oracle_gradient(build, monkeypatch):
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 3, 4, 6))
    x[0, 0, 0, :3] = [0.0, -0.0, 0.0]
    a, b = rng.normal(size=x.shape), rng.normal(size=x.shape)
    got = Tensor(x, requires_grad=True)
    build(got, a, b).backward()
    monkeypatch.setattr(T._Node, "_accumulate", _accumulate_oracle)
    want = Tensor(x, requires_grad=True)
    build(want, a, b).backward()
    assert _same_bytes(got.grad, want.grad)


def test_conv2d_input_consumed_twice_gets_oracle_gradient():
    rng = np.random.default_rng(20)
    x, g1, g2 = (rng.normal(size=(2, 3, 4, 6)) for _ in range(3))
    w1, w2 = rng.normal(size=(3, 3, 3, 3)), rng.normal(size=(3, 3, 3, 3))
    b = np.zeros(3)
    xt = Tensor(x, requires_grad=True)
    y1 = T.conv2d(xt, Tensor(w1), Tensor(b))
    y2 = T.conv2d(xt, Tensor(w2), Tensor(b))
    T.add(T.tsum(T.mul(y1, g1)), T.tsum(T.mul(y2, g2))).backward()
    dx1 = _conv2d_oracle(x, w1, b, g1)[1]
    dx2 = _conv2d_oracle(x, w2, b, g2)[1]
    want = np.zeros_like(x)
    want += dx2
    want += dx1
    assert _same_bytes(xt.grad, want)


def _encoder_graph():
    """A small Encoder's squared-embedding loss and the encoder."""
    enc = Encoder.init(EncoderConfig(in_height=8, in_width=16, widths=(4, 6), embed_dim=5),
                       np.random.default_rng(21))
    x = Tensor(np.random.default_rng(22).normal(size=(3, 2, 8, 16)).astype(np.float32))
    z = enc.forward(x)
    return T.tsum(T.mul(z, z)), enc


def test_backward_leaves_no_shared_buffers():
    loss, enc = _encoder_graph()
    nodes = _graph(loss)
    # every array the graph can reach: what the closures saved, the
    # parameters and the loss
    kept = [a for n in nodes for a in _saved(n)] + [p.data for p in enc.params.values()]
    kept.append(loss.data)
    kept_before = [a.copy() for a in kept]
    loss.backward()
    grads_after = [None if n.grad is None else n.grad.copy() for n in nodes]
    for a, before in zip(kept, kept_before):
        assert _same_bytes(a, before)
    grads = [n.grad for n in nodes]
    for i, n in enumerate(nodes):
        if n.grad is not None:
            others = kept + grads[:i] + grads[i + 1:]
            assert not any(a is not None and np.shares_memory(n.grad, a) for a in others)
    # a second backward through the same closures adds, and touches only .grad
    for n in nodes:
        n.grad = None
    loss.backward()
    for n, want in zip(nodes, grads_after):
        assert (n.grad is None) == (want is None)
        if want is not None:
            assert _same_bytes(n.grad, want)


def test_recorded_graph_frees_dropped_outputs(monkeypatch):
    # conv2d -> relu -> avg_pool2d with both outputs dropped: backward reads
    # the conv input and weights and the relu mask, so while the loss graph
    # lives neither output's array does, and the gradients still equal the
    # padded oracle's bit for bit
    rng = np.random.default_rng(23)
    x = _signed_zeros(rng.normal(size=(3, 2, 8, 16)), rng)
    w, b = rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4)
    c = rng.normal(size=(3, 4, 4, 8))
    xt, wt, bt = Tensor(x, requires_grad=True), Tensor(w, True), Tensor(b, True)
    y = T.conv2d(xt, wt, bt)
    r = T.relu(y)
    refs = [weakref.ref(a) for a in (y.data, y.data.base, r.data)]
    del y
    loss = T.tsum(T.mul(T.avg_pool2d(r), c))
    del r
    assert all(ref() is None for ref in refs)
    loss.backward()
    out = _conv2d_oracle(x, w, b, np.zeros((3, 4, 8, 16)))[0]
    up = np.repeat(np.repeat(c * 0.25, 2, axis=2), 2, axis=3)
    g = up * (out > 0) + 0.0
    _, want_dx, want_dw, want_db = _conv2d_oracle(x, w, b, g)
    assert _same_bytes(xt.grad, want_dx)
    assert _same_bytes(wt.grad, want_dw)
    assert _same_bytes(bt.grad, want_db)

    # an Encoder forward drops every conv and relu output the same way
    enc = Encoder.init(EncoderConfig(in_height=8, in_width=16, widths=(4, 6), embed_dim=5),
                       np.random.default_rng(24))
    outs = []
    for op in ("conv2d", "relu"):
        def spy(*args, op=getattr(T, op)):
            out = op(*args)
            outs.append(weakref.ref(out.data))
            return out
        monkeypatch.setattr(T, op, spy)
    z = enc.forward(Tensor(rng.normal(size=(3, 2, 8, 16)).astype(np.float32)))
    assert z.requires_grad and len(outs) == 4
    assert all(ref() is None for ref in outs)


def test_second_backward_accumulates_exactly_twice():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = T.mul(x, 3.0)
    z = T.tsum(T.mul(y, y))               # dz/dx = 18x
    z.backward()
    assert np.array_equal(x.grad, [18.0, 36.0])
    z.backward()
    assert np.array_equal(x.grad, [36.0, 72.0])


def _backward_keeping_grads(self):
    """Tensor.backward with no release: every node keeps its .grad."""
    topo, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node.parents:
                visit(p)
            topo.append(node)

    visit(self._node)
    self.grad = np.ones_like(self.data)
    for node in reversed(topo):
        if node.backward is not None:
            node.backward(node.grad)


def test_backward_releases_consumed_grads_only(monkeypatch):
    loss, enc = _encoder_graph()
    nodes = _graph(loss)
    loss.backward()
    assert all(n.grad is None for n in nodes if n.backward is not None)
    got = [n.grad for n in nodes if n.backward is None]
    assert sum(g is not None for g in got) == len(enc.params)
    monkeypatch.setattr(Tensor, "backward", _backward_keeping_grads)
    loss, _ = _encoder_graph()
    nodes = _graph(loss)
    loss.backward()
    assert all(n.grad is not None for n in nodes if n.backward is not None)
    want = [n.grad for n in nodes if n.backward is None]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert _same_bytes(g, w)


def _two_adamw_steps():
    """Two AdamW steps of a small Encoder plus Head on an mse loss; returns
    by name every leaf gradient after each backward, then the parameters
    and moment buffers.  The input holds signed zeros and one all-zero sample,
    conv filter 0 and hidden unit 0 are zero, so relu sees inputs exactly
    at 0 in every step, and the targets sit above every prediction, so the
    dead hidden unit's upstream gradient is negative and its masked
    gradient -0.0."""
    rng = np.random.default_rng(25)
    enc = Encoder.init(EncoderConfig(in_height=8, in_width=16, widths=(4, 6), embed_dim=5), rng)
    head = Head.init(HeadConfig(in_dim=5, hidden_dim=7, out_dim=3), rng)
    enc.params["conv0.w"].data[0] = np.where(rng.random((2, 3, 3)) < 0.5, 0.0, -0.0)
    head.params["fc1.w"].data[:, 0] = 0.0
    head.params["fc2.w"].data[0] = np.abs(head.params["fc2.w"].data[0])
    x = _signed_zeros(rng.normal(size=(4, 2, 8, 16)), rng).astype(np.float32)
    x[1] = -0.0
    target = np.full((4, 3), 10.0, dtype=np.float32)
    params = {**{"enc." + k: v for k, v in enc.params.items()},
              **{"head." + k: v for k, v in head.params.items()}}
    opt = AdamW(params, lr=1e-2)
    out = {}
    for step in range(2):
        opt.zero_grad()
        mse_loss(head.forward(enc.forward(Tensor(x))), target).backward()
        out.update({f"grad{step}.{k}": p.grad.copy() for k, p in params.items()})
        opt.step()
    return {**out, **{k: p.data for k, p in params.items()}, **opt.state_arrays()}


def test_in_place_backward_matches_zeros_plus_g_at_every_node(monkeypatch):
    got = _two_adamw_steps()
    monkeypatch.setattr(T._Node, "_accumulate", _accumulate_oracle)
    want = _two_adamw_steps()
    assert got.keys() == want.keys()
    assert all(_same_bytes(got[k], want[k]) for k in got)
    # relu saw inputs exactly at 0 in both steps: the zeroed filter and
    # hidden unit got no gradient, so AdamW left them at zero
    for step in range(2):
        assert not got[f"grad{step}.enc.conv0.w"][0].any()
        assert not got[f"grad{step}.head.fc1.w"][:, 0].any()


@pytest.mark.parametrize("owned", [False, True])
def test_accumulate_maps_negative_zero_like_zeros_plus_g(owned):
    g = np.array([[-0.0, 0.0, -1.5], [np.inf, -np.inf, np.nan]], dtype=np.float32)
    t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    t._grad_node()._accumulate(g.copy(), owned=owned)
    want = np.zeros_like(t.data) + g
    assert _same_bytes(t.grad, want)
    assert not np.signbit(t.grad[0, 0])


def test_accumulate_casts_to_the_parameter_dtype():
    g = np.array([-0.0, 1.0 / 3.0, -2.5], dtype=np.float32)
    t = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
    t._grad_node()._accumulate(g, owned=True)
    assert _same_bytes(t.grad, np.zeros(3) + g)
    assert not np.shares_memory(t.grad, g)
    t._grad_node()._accumulate(g, owned=True)
    want = np.zeros(3) + g
    want += g
    assert _same_bytes(t.grad, want)


def test_accumulate_copies_a_buffer_laid_out_unlike_data():
    data = np.ones((3, 4)).T                      # Fortran-ordered parameter
    t = Tensor(data, requires_grad=True)
    g = np.arange(12.0).reshape(4, 3)
    t._grad_node()._accumulate(g, owned=True)
    assert not np.shares_memory(t.grad, g)
    assert t.grad.flags.f_contiguous and np.array_equal(t.grad, g)
