"""Minimal reverse-mode autodiff over numpy arrays.

Tensors wrap an ndarray plus the bookkeeping needed to backpropagate a
scalar loss.  The op set is exactly what the encoders and losses need; every
backward pass accumulates in a fixed topological order, so gradients are
bit-reproducible run to run.

Works in float32 (training default) or float64 (gradient checks).
"""

import contextlib

import numpy as np

from ..errors import ContractError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.grad is not None})"

    def _accumulate(self, g, owned=False):
        """Add `g` into .grad.  The first write is `g + 0`, which maps -0.0
        to +0.0 exactly as zeros + g does.  `owned` says the calling op
        allocated `g` for this call and keeps no other reference to it; a
        `g` laid out like .data is then normalised in place and kept."""
        if self.grad is not None:
            self.grad += g
        elif (owned and g.dtype == self.data.dtype and g.shape == self.data.shape
              and g.flags.c_contiguous and self.data.flags.c_contiguous):
            self.grad = np.add(g, 0, out=g)
        else:
            self.grad = np.add(g, 0, out=np.empty_like(self.data))

    def backward(self):
        """Backpropagate from a scalar, adding into every leaf's .grad.

        A non-leaf tensor (one made by an op) drops its .grad as soon as its
        closure has consumed it, so read gradients on leaves.  Closures and
        parents are kept: the same graph can be backpropagated again, and a
        second call adds exactly one more gradient into each leaf."""
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording them: outputs carry no parents and no
    backward closure, so buffers an op saves for backward are freed as soon
    as it returns.  Forward values are unchanged.  The switch is one flag
    per process, not per thread."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def add(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _wrap(b, a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _wrap(b, a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _wrap(b, a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    x = a.data
    if x.ndim == 2 and x.shape[0] == 1:
        # numpy hands a one-row product to BLAS gemv, which rounds
        # differently from the gemm of every larger batch; a two-row gemm
        # keeps a row's result independent of how many rows share the call.
        out = (np.concatenate([x, x]) @ b.data)[:1]
    else:
        out = x @ b.data
    return _make(out, (a, b), backward)


def transpose(a: Tensor):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(a.data.T, (a,), backward)


def reshape(a: Tensor, shape):
    old = a.shape

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


def relu(a: Tensor):
    mask = a.data > 0

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask, owned=True)

    return _make(a.data * mask, (a,), backward)


def exp(a: Tensor):
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def log(a: Tensor):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def sqrt(a: Tensor):
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims=False):
    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy() if np.ndim(g) == 0
                          else np.full(a.shape, g.reshape(())[()], dtype=a.dtype))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.shape).astype(a.dtype, copy=True))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def maximum_const(a: Tensor, c: float):
    """Elementwise max(a, c); gradient passes where a >= c."""
    mask = a.data >= c

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(np.maximum(a.data, c), (a,), backward)


def logsumexp(a: Tensor, axis: int):
    """Numerically stable log(sum(exp(a))) along `axis` (dropped in output)."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = (m + np.log(total)).squeeze(axis)
    softmax = shifted / total

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.expand_dims(g, axis) * softmax)

    return _make(out_data, (a,), backward)


def gather_rows(a: Tensor, idx: np.ndarray):
    """out[i] = a[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx)
    rows = np.arange(a.shape[0])

    def backward(g):
        if a.requires_grad:
            da = np.zeros_like(a.data)
            np.add.at(da, (rows, idx), g)
            a._accumulate(da)

    return _make(a.data[rows, idx], (a,), backward)


def _im2col_slabs(h, wd, kh, kw):
    """Per kernel offset (i, j), row-major: the flat shift s that maps
    output position p to input position p + s in an unpadded H*W plane,
    the range [lo, hi) of p for which p + s lies in the plane, and the
    output columns whose horizontal shift wraps onto a neighbouring row.
    Outside [lo, hi) and in the wrapped columns the 'same'-padded input
    is zero."""
    hw = h * wd
    ph, pw = kh // 2, kw // 2
    slabs = []
    for i in range(kh):
        for j in range(kw):
            dj = j - pw
            s = (i - ph) * wd + dj
            lo = max(0, -s)
            hi = max(lo, min(hw, hw - s))
            wrap = slice(max(wd - dj, 0), wd) if dj > 0 else slice(0, min(-dj, wd))
            slabs.append((i, j, s, lo, hi, wrap))
    return slabs


def conv2d(x: Tensor, w: Tensor, b: Tensor):
    """2-D convolution, NCHW layout, stride 1, zero 'same' padding.

    x: [N, C, H, W], w: [F, C, kh, kw] (odd kernel), b: [F].

    im2col (Chellapilla et al. 2006) without a padded copy: each kernel
    offset's column slab is one shifted copy of the flat [N, C, H*W] input,
    with the cells that fall in the padding zeroed.
    """
    n, c, h, wd = x.shape
    f, c2, kh, kw = w.shape
    if c2 != c:
        raise ContractError(f"conv weight expects {c2} input channels, got {c}")
    hw = h * wd
    slabs = _im2col_slabs(h, wd, kh, kw)
    xf = x.data.reshape(n, c, hw)
    cols = np.empty((n, c, kh, kw, hw), dtype=x.dtype)
    cols6 = cols.reshape(n, c, kh, kw, h, wd)
    for i, j, s, lo, hi, wrap in slabs:
        slab = cols[:, :, i, j]
        slab[..., :lo] = 0
        slab[..., lo:hi] = xf[..., lo + s:hi + s]
        slab[..., hi:] = 0
        cols6[:, :, i, j, :, wrap] = 0
    cols2 = cols.reshape(n, c * kh * kw, hw)
    w2 = w.data.reshape(f, c * kh * kw)
    out = np.matmul(w2, cols2).reshape(n, f, h, wd)
    out += b.data[None, :, None, None]

    def backward(g):
        gl = g.reshape(n, f, hw)
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
        if w.requires_grad:
            dw = np.matmul(gl, cols2.transpose(0, 2, 1)).sum(axis=0)
            w._accumulate(dw.reshape(w.shape), owned=True)
        if x.requires_grad:
            # col2im: add each slab back at its shift, in the same (i, j)
            # order as a padded scatter.  Wrapped cells are zeroed first;
            # their +0 is exact, since a sum that starts at +0 is never -0.
            dcols = np.matmul(w2.T, gl).reshape(n, c, kh, kw, hw)
            dcols6 = dcols.reshape(n, c, kh, kw, h, wd)
            dx = np.zeros((n, c, hw), dtype=x.dtype)
            for i, j, s, lo, hi, wrap in slabs:
                dcols6[:, :, i, j, :, wrap] = 0
                dx[..., lo + s:hi + s] += dcols[:, :, i, j, lo:hi]
            x._accumulate(dx.reshape(x.shape), owned=True)

    return _make(out, (x, w, b), backward)


def avg_pool2d(x: Tensor):
    """2x2 mean pooling of a float tensor; spatial dims must be even."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ContractError(f"avg_pool2d needs even spatial dims, got {h}x{w}")
    # Pairwise order (a+b) + (c+d), then * 0.25: bit-equal to numpy's mean
    # over the 2x2 window for inputs at least 4 wide, without its reduction
    # machinery.
    d = x.data
    out = d[:, :, 0::2, 0::2] + d[:, :, 0::2, 1::2]
    out += d[:, :, 1::2, 0::2] + d[:, :, 1::2, 1::2]
    out *= 0.25

    def backward(g):
        if x.requires_grad:
            q = g * 0.25
            up = np.empty(x.shape, dtype=q.dtype)
            up[:, :, 0::2, 0::2] = q
            up[:, :, 0::2, 1::2] = q
            up[:, :, 1::2, 0::2] = q
            up[:, :, 1::2, 1::2] = q
            x._accumulate(up, owned=True)

    return _make(out, (x,), backward)


def spatial_mean(x: Tensor):
    """Global average pool: [N, C, H, W] -> [N, C]."""
    n, c, h, w = x.shape
    scale = 1.0 / (h * w)

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g[:, :, None, None] * scale, x.shape).astype(x.dtype, copy=True))

    return _make(x.data.mean(axis=(2, 3)), (x,), backward)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Rows scaled to unit Euclidean norm; rejects zero rows."""
    norms_sq = tsum(mul(x, x), axis=1, keepdims=True)
    if np.any(norms_sq.data <= 0):
        raise ContractError("cannot normalize a zero embedding")
    return div(x, sqrt(norms_sq))
