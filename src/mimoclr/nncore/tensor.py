"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor is an ndarray and, once it needs one, a graph node.  The node
holds the bookkeeping to backpropagate a scalar loss: the tensor's shape,
dtype and layout, its gradient and, for an op's output, the parent nodes
and the backward closure.  A node never refers to its tensor, and each
closure captures at forward time only the arrays its backward reads (see
each op), so a recorded graph keeps no op output that no backward needs:
an intermediate tensor the caller drops frees its data at once.  That also
means rebinding an input's .data after forward no longer changes a
gradient; an in-place edit of a captured array still does.

The op set is exactly what the encoders and losses need; every backward
pass accumulates in a fixed topological order, so gradients are
bit-reproducible run to run.  A gradient an op allocates is kept as its
parent's .grad rather than copied, and relu masks its gradient in place,
so an encoder stage's backward holds one full-size gradient.  Only a
leaf's first write adds `+ 0` (-0.0 becomes +0.0, as in zeros + g); an
inner node's zeros may keep their sign, which changes no leaf bit (see
_Node._accumulate).

Works in float32 (training default) or float64 (gradient checks).
"""

import contextlib

import numpy as np

from ..errors import ContractError


class _Node:
    """Graph bookkeeping for one tensor: the shape, dtype and order (C, or
    F for Fortran-ordered data) that lay out .grad like the tensor's data,
    the gradient, and, for an op's output, the parent nodes and the
    backward closure.  A leaf has no parents and no closure."""
    __slots__ = ("shape", "dtype", "order", "grad", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.follow(data)
        self.grad = None
        self.parents = parents
        self.backward = backward

    def follow(self, data):
        """Lay .grad out like `data` from now on."""
        self.shape = data.shape
        self.dtype = data.dtype
        self.order = "F" if data.flags.f_contiguous and not data.flags.c_contiguous else "C"

    def _accumulate(self, g, owned=False):
        """Add `g` into .grad.  `owned` says the calling op allocated `g` for
        this call, or hands on its own node's .grad, and keeps no other
        reference to it; a `g` laid out like the tensor's data is then kept
        as .grad, so .grad is always a buffer no other node or closure holds.

        A leaf's first write is `g + 0`, which maps -0.0 to +0.0 exactly as
        zeros + g does; `+0 + -0` is +0 on later writes, so leaf bits are
        those of a sum that starts at zeros.  An inner node (one with a
        backward closure) keeps an owned `g` as it is: its .grad is read
        only by its own closure, and every closure is linear in `g`, so a
        zero's sign there can only change the sign of a zero it passes on,
        which the leaf's `+ 0` clears."""
        if self.grad is not None:
            self.grad += g
        elif (owned and g.dtype == self.dtype and g.shape == self.shape
              and g.flags.c_contiguous and self.order == "C"):
            self.grad = g if self.backward is not None else np.add(g, 0, out=g)
        else:
            self.grad = np.add(g, 0, out=np.empty(self.shape, self.dtype, order=self.order))


class Tensor:
    """An ndarray, whether ops record it for a gradient, and the node that
    holds its .grad once it has one: an op's output gets its node when the
    op is recorded, any other tensor when it first needs one."""
    __slots__ = ("_data", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self._data = np.asarray(data)
        self.requires_grad = requires_grad
        self._node = None

    @property
    def data(self):
        return self._data

    @data.setter
    def data(self, value):
        self._data = value
        if self._node is not None:
            self._node.follow(value)

    def _grad_node(self) -> "_Node":
        if self._node is None:
            self._node = _Node(self._data)
        return self._node

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self._grad_node().grad = value

    @property
    def _parents(self):
        return () if self._node is None else self._node.parents

    @_parents.setter
    def _parents(self, parents):
        self._node.parents = parents

    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    @property
    def shape(self):
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.grad is not None})"

    def backward(self):
        """Backpropagate from a scalar, adding into every leaf's .grad.

        A non-leaf node (one made by an op) drops its .grad as soon as its
        closure has consumed it, so read gradients on leaves.  Closures and
        parent nodes are kept: the same graph can be backpropagated again,
        and a second call adds exactly one more gradient into each leaf."""
        if self._data.size != 1:
            raise ContractError(f"backward() needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward() needs a tensor that requires grad")
        root = self._grad_node()
        topo = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self._data)
        for node in reversed(topo):
            if node.backward is not None:
                node.backward(node.grad)
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
    """Run ops without recording them: outputs carry no node, so buffers an
    op saves for backward are freed as soon as it returns.  Forward values
    are unchanged.  The switch is one flag per process, not per thread."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _sink(t: Tensor):
    """The node an op's backward adds t's gradient into, or None if t does
    not require grad."""
    return t._grad_node() if t.requires_grad else None


def _recording(*sinks) -> bool:
    """Whether an op on inputs with these sinks is recorded."""
    return _grad_enabled and any(n is not None for n in sinks)


def _make(data, parents, backward):
    """The output of an op whose inputs have sinks `parents`; recorded,
    with the parents that are not None, if `_recording(*parents)`.  A
    one-input op's closure may then take its parent's node as given."""
    out = Tensor(data)
    if _recording(*parents):
        out.requires_grad = True
        out._node = _Node(data, tuple(p for p in parents if p is not None), backward)
    return out


# Each closure below reads only what it captured at forward time: names
# bound before `def backward`, never an input Tensor.


def add(a, b):
    """a + b, broadcast; backward keeps the two shapes."""
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _wrap(b, a)
    na, nb, a_shape, b_shape = _sink(a), _sink(b), a.shape, b.shape

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g, a_shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g, b_shape))

    return _make(a.data + b.data, (na, nb), backward)


def mul(a, b):
    """a * b, broadcast; backward keeps both operands."""
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _wrap(b, a)
    na, nb, ad, bd = _sink(a), _sink(b), a.data, b.data

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g * bd, ad.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g * ad, bd.shape))

    return _make(ad * bd, (na, nb), backward)


def div(a, b):
    """a / b, broadcast; backward keeps both operands."""
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _wrap(b, a)
    na, nb, ad, bd = _sink(a), _sink(b), a.data, b.data

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g / bd, ad.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _make(ad / bd, (na, nb), backward)


def matmul(a: Tensor, b: Tensor):
    """a @ b for 2-D a; backward keeps both operands."""
    na, nb, ad, bd = _sink(a), _sink(b), a.data, b.data

    def backward(g):
        if na is not None:
            na._accumulate(g @ bd.T)
        if nb is not None:
            nb._accumulate(ad.T @ g)

    if ad.ndim == 2 and ad.shape[0] == 1:
        # numpy hands a one-row product to BLAS gemv, which rounds
        # differently from the gemm of every larger batch; a two-row gemm
        # keeps a row's result independent of how many rows share the call.
        out = (np.concatenate([ad, ad]) @ bd)[:1]
    else:
        out = ad @ bd
    return _make(out, (na, nb), backward)


def transpose(a: Tensor):
    na = _sink(a)

    def backward(g):
        na._accumulate(g.T)

    return _make(a.data.T, (na,), backward)


def reshape(a: Tensor, shape):
    na, old = _sink(a), a.shape

    def backward(g):
        na._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), (na,), backward)


def relu(a: Tensor):
    """max(a, 0) elementwise: NaN stays NaN, -inf gives 0, and -0.0 gives
    +0.0.  Backward keeps a bool mask, built only while the op is
    recorded, and masks its `g` in place: the `g` a closure receives is
    always its node's private .grad (a buffer `_accumulate` kept or made,
    or the root's ones), which `Tensor.backward` drops as soon as the
    closure returns, so relu hands it on to its input as owned."""
    out = np.maximum(a.data, 0)
    na = _sink(a)
    if not _recording(na):
        return Tensor(out)
    mask = a.data > 0

    def backward(g):
        na._accumulate(np.multiply(g, mask, out=g), owned=True)

    return _make(out, (na,), backward)


def exp(a: Tensor):
    """Backward keeps the output."""
    na, out = _sink(a), np.exp(a.data)

    def backward(g):
        na._accumulate(g * out)

    return _make(out, (na,), backward)


def log(a: Tensor):
    """Backward keeps the input."""
    na, ad = _sink(a), a.data

    def backward(g):
        na._accumulate(g / ad)

    return _make(np.log(ad), (na,), backward)


def sqrt(a: Tensor):
    """Backward keeps the output."""
    na, out = _sink(a), np.sqrt(a.data)

    def backward(g):
        na._accumulate(g * 0.5 / out)

    return _make(out, (na,), backward)


def tsum(a: Tensor, axis=None, keepdims=False):
    na, shape, dtype = _sink(a), a.shape, a.dtype

    def backward(g):
        if axis is None:
            na._accumulate(np.broadcast_to(g, shape).copy() if np.ndim(g) == 0
                           else np.full(shape, g.reshape(())[()], dtype=dtype))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            na._accumulate(np.broadcast_to(gg, shape).astype(dtype, copy=True))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (na,), backward)


def tmean(a: Tensor, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def maximum_const(a: Tensor, c: float):
    """Elementwise max(a, c); gradient passes where a >= c.  Backward keeps
    that mask."""
    na, mask = _sink(a), a.data >= c

    def backward(g):
        na._accumulate(g * mask)

    return _make(np.maximum(a.data, c), (na,), backward)


def logsumexp(a: Tensor, axis: int):
    """Numerically stable log(sum(exp(a))) along `axis` (dropped in output).
    Backward keeps the softmax."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = (m + np.log(total)).squeeze(axis)
    na, softmax = _sink(a), shifted / total

    def backward(g):
        na._accumulate(np.expand_dims(g, axis) * softmax)

    return _make(out_data, (na,), backward)


def gather_rows(a: Tensor, idx: np.ndarray):
    """out[i] = a[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx)
    rows = np.arange(a.shape[0])
    na, shape, dtype = _sink(a), a.shape, a.dtype

    def backward(g):
        da = np.zeros(shape, dtype)
        np.add.at(da, (rows, idx), g)
        na._accumulate(da)

    return _make(a.data[rows, idx], (na,), backward)


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


def _im2col(xd, slabs, kh, kw, out):
    """Fill `out` [N, C*kh*kw, H*W] with the im2col columns of xd
    [N, C, H, W] for the offsets in `slabs` (see conv2d); returns `out`."""
    n, c, h, wd = xd.shape
    hw = h * wd
    xf = xd.reshape(n, c, hw)
    cols = out.reshape(n, c, kh, kw, hw)
    cols6 = out.reshape(n, c, kh, kw, h, wd)
    for i, j, s, lo, hi, wrap in slabs:
        slab = cols[:, :, i, j]
        slab[..., :lo] = 0
        slab[..., lo:hi] = xf[..., lo + s:hi + s]
        slab[..., hi:] = 0
        cols6[:, :, i, j, :, wrap] = 0
    return out


# conv2d builds im2col columns for as many samples at a time as fit in this
# many bytes, and at least one.  A byte budget, not a sample count, so
# paper-geometry samples (up to 9.4 MB of columns each) make one-sample
# blocks.
_COL_BLOCK_BYTES = 1 << 20


def conv2d(x: Tensor, w: Tensor, b: Tensor):
    """2-D convolution, NCHW layout, stride 1, zero 'same' padding.

    x: [N, C, H, W], w: [F, C, kh, kw] (odd kernel), b: [F].

    im2col (Chellapilla et al. 2006) without a padded copy: each kernel
    offset's column slab is one shifted copy of the flat [N, C, H*W] input,
    with the cells that fall in the padding zeroed.  The columns are built
    for one block of samples at a time (at most _COL_BLOCK_BYTES, at least
    one sample) in one buffer per call, so beyond its output and dx no
    buffer grows with the batch.  Every per-sample gemm sees the operands of
    a whole-batch im2col, and dw adds the per-sample products in sample
    order as `.sum(axis=0)` would, so blocking changes no bit.

    Backward keeps `x.data` and `w.data`, captured at forward time, not the
    columns (kh*kw times the input) and not the output: it rebuilds the
    columns block by block from the captured input with the same fill.  In
    an encoder stage relu then keeps a bool mask and avg_pool2d only its
    input's shape, so a recorded stage holds its input and that mask.  An
    in-place edit of the input between forward and backward changes the
    gradient; rebinding `x.data` does not.
    """
    n, c, h, wd = x.shape
    f, c2, kh, kw = w.shape
    if c2 != c:
        raise ContractError(f"conv weight expects {c2} input channels, got {c}")
    hw = h * wd
    ckk = c * kh * kw
    slabs = _im2col_slabs(h, wd, kh, kw)
    xd, w_shape = x.data, w.shape
    nx, nw, nb = _sink(x), _sink(w), _sink(b)
    w2 = w.data.reshape(f, ckk)
    block = max(1, min(n, _COL_BLOCK_BYTES // (ckk * hw * xd.itemsize)))
    starts = range(0, n, block)
    buf = np.empty((block, ckk, hw), dtype=xd.dtype)
    out = np.empty((n, f, hw), dtype=np.result_type(w2, xd))
    bias = b.data[:, None]
    for lo in starts:
        xb, ob = xd[lo:lo + block], out[lo:lo + block]
        np.matmul(w2, _im2col(xb, slabs, kh, kw, buf[:len(xb)]), out=ob)
        ob += bias   # while the block is still in cache
    out = out.reshape(n, f, h, wd)

    def backward(g):
        gl = g.reshape(n, f, hw)
        if nb is not None:
            nb._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
        buf = np.empty((block, ckk, hw), dtype=xd.dtype)
        if nw is not None:
            # each sample's product added in sample order, as .sum(axis=0)
            # adds them: a reduce over the block's leading axis adds its
            # rows in order, the first already holding the earlier blocks'
            # sum.  Starting from +0 can only change a zero's sign, which
            # the leaf's + 0 clears anyway
            dw = np.zeros((f, ckk), dtype=np.result_type(g, xd))
        if nx is not None:
            dx = np.zeros((n, c, hw), dtype=xd.dtype)
        for lo in starts:
            xb, gb = xd[lo:lo + block], gl[lo:lo + block]
            cols = buf[:len(xb)]
            if nw is not None:
                prods = np.matmul(gb, _im2col(xb, slabs, kh, kw, cols).transpose(0, 2, 1))
                prods[0] += dw
                np.add.reduce(prods, axis=0, out=dw)
            if nx is not None:
                # col2im: add each slab back at its shift, in the same (i, j)
                # order as a padded scatter.  Wrapped cells are zeroed first;
                # their +0 is exact, since a sum that starts at +0 is never -0.
                np.matmul(w2.T, gb, out=cols)
                dcols = cols.reshape(len(xb), c, kh, kw, hw)
                dcols6 = cols.reshape(len(xb), c, kh, kw, h, wd)
                dxb = dx[lo:lo + block]
                for i, j, s, slo, shi, wrap in slabs:
                    dcols6[:, :, i, j, :, wrap] = 0
                    dxb[..., slo + s:shi + s] += dcols[:, :, i, j, slo:shi]
        if nw is not None:
            nw._accumulate(dw.reshape(w_shape), owned=True)
        if nx is not None:
            nx._accumulate(dx.reshape(n, c, h, wd), owned=True)

    return _make(out, (nx, nw, nb), backward)


def avg_pool2d(x: Tensor):
    """2x2 mean pooling of a float tensor; spatial dims must be even.
    Backward keeps the input's shape only."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ContractError(f"avg_pool2d needs even spatial dims, got {h}x{w}")
    # Pairwise order (a+b) + (c+d), then * 0.25: bit-equal to numpy's mean
    # over the 2x2 window for inputs at least 4 wide, without its reduction
    # machinery.  Column pairs first, then row pairs of those sums: the same
    # order in two adds instead of three.
    d = x.data
    pairs = d[..., 0::2] + d[..., 1::2]
    out = pairs[:, :, 0::2] + pairs[:, :, 1::2]
    out *= 0.25
    nx, shape = _sink(x), x.shape

    def backward(g):
        q = g * 0.25
        up = np.empty(shape, dtype=q.dtype)
        up[:, :, 0::2, 0::2] = q
        up[:, :, 0::2, 1::2] = q
        up[:, :, 1::2, 0::2] = q
        up[:, :, 1::2, 1::2] = q
        nx._accumulate(up, owned=True)

    return _make(out, (nx,), backward)


def spatial_mean(x: Tensor):
    """Global average pool: [N, C, H, W] -> [N, C]."""
    n, c, h, w = x.shape
    scale = 1.0 / (h * w)
    nx, shape, dtype = _sink(x), x.shape, x.dtype

    def backward(g):
        nx._accumulate(np.broadcast_to(g[:, :, None, None] * scale, shape).astype(dtype, copy=True))

    return _make(x.data.mean(axis=(2, 3)), (nx,), backward)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Rows scaled to unit Euclidean norm; rejects zero rows."""
    norms_sq = tsum(mul(x, x), axis=1, keepdims=True)
    if np.any(norms_sq.data <= 0):
        raise ContractError("cannot normalize a zero embedding")
    return div(x, sqrt(norms_sq))
