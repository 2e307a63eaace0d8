"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Everything the encoder/decoder needs: linear maps, a whole-sequence LSTM,
masked softmax, sigmoid/tanh, concatenation, indexing, gather/scatter, and a
central finite-difference gradient checker. The ops a decoder step uses also
take a batch of rows (leading axes) and work row by row on the last axis.
Values are float32 by default; wrap gradient checks in
``use_dtype(np.float64)`` for the doubled-precision test mode with tighter
tolerances.
"""

from __future__ import annotations

import contextlib
from collections import namedtuple

import numpy as np

_DTYPE = np.float32


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily switch the kernel dtype (float64 = doubled-precision mode)."""
    global _DTYPE
    old = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = old


class ShapeError(ValueError):
    pass


class Tensor:
    """A dense array plus an optional backward closure.

    A leaf's ``grad`` accumulates across backward passes until explicitly
    cleared; backward never overwrites it. A non-leaf's ``grad`` is dropped
    once its own backward has run.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def __neg__(self):
        return neg(self)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        """Accumulate d(self)/d(t) into ``t.grad`` for every leaf t below.

        Dense gradients are added as they arrive. Factored weight gradients
        and row updates wait per tensor and are folded in just before that
        tensor's own backward runs (every consumer has reported by then):
        all factor pairs as one product, all row updates with ``np.add.at``.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        deferred = {}  # id(tensor) -> ([_Factors], [_Rows])
        for t in reversed(order):
            parts = deferred.pop(id(t), None)
            if parts is not None:
                _fold(t, *parts)
            if t._backward is None or t.grad is None:
                continue
            grads = t._backward(t.grad)
            t.grad = None  # a non-leaf's gradient is spent; a second pass starts clean
            for parent, g in zip(t._parents, grads):
                if g is None:
                    continue
                if isinstance(g, (_Factors, _Rows)):
                    deferred.setdefault(id(parent), ([], []))[isinstance(g, _Rows)].append(g)
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                np.add(parent.grad, g.reshape(parent.data.shape), out=parent.grad)


# Gradients that backward defers and folds per tensor: ``left.T @ right``
# kept as its two factors (a vector pair is one row, the outer product), and
# ``g`` at ``[key]`` with zeros elsewhere.
_Factors = namedtuple("_Factors", "left right")
_Rows = namedtuple("_Rows", "key g")


def _fold(t, factors, rows):
    """Add deferred gradients into ``t.grad``: the factor pairs as one
    ``vstack(left).T @ vstack(right)`` product, then each row update."""
    if factors:
        prod = np.vstack([f.left for f in factors]).T @ np.vstack([f.right for f in factors])
        if t.grad is None:
            t.grad = prod.astype(t.data.dtype, copy=False)
        else:
            np.add(t.grad, prod, out=t.grad)
    if rows and t.grad is None:
        t.grad = np.zeros_like(t.data)
    for r in rows:
        np.add.at(t.grad, r.key, r.g)


def _toposort(root):
    # Iterative: sequence graphs (M encoder steps x T decoder steps) exceed
    # the recursion limit.
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    ash, bsh = a.data.shape, b.data.shape

    def bw(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return Tensor(a.data + b.data, (a, b), bw)


def neg(a):
    a = _wrap(a)
    return Tensor(-a.data, (a,), lambda g: (-g,))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data

    def bw(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return Tensor(ad * bd, (a, b), bw)


def scale(a, s):
    """Multiply by a python float constant (no grad for s)."""
    a = _wrap(a)
    s = float(s)
    return Tensor(a.data * s, (a,), lambda g: (g * s,))


def add_n(tensors):
    """Sum a list of tensors; later ones may broadcast into the first."""
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ValueError("add_n of empty list")
    out = ts[0].data.copy()
    for t in ts[1:]:
        out += t.data
    return Tensor(out, tuple(ts), lambda g: tuple(_unbroadcast(g, t.data.shape) for t in ts))


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} not conformable")

        def bw(g):
            return _Factors(g, bd), ad.T @ g

    elif ad.ndim == 3 and bd.ndim == 1:  # a stack of matrices, one vector
        if ad.shape[2] != bd.shape[0]:
            raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} not conformable")

        def bw(g):
            return g[..., None] * bd, ad.reshape(-1, bd.shape[0]).T @ g.reshape(-1)

    elif ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} not conformable")

        def bw(g):
            return bd @ g, _Factors(ad, g)

    elif ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} not conformable")

        def bw(g):
            return g @ bd.T, ad.T @ g

    elif ad.ndim == 1 and bd.ndim == 1:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeError(f"dot shapes {ad.shape} and {bd.shape} not conformable")

        def bw(g):
            return g * bd, g * ad

    else:
        raise ShapeError(f"matmul unsupported ranks {ad.shape} @ {bd.shape}")
    return Tensor(ad @ bd, (a, b), bw)


def dot(a, b):
    return matmul(a, b)


def linear(x, w, b=None):
    """y = Wx + b for a vector x; for rows x (k, in), each row's y = Wx + b
    as one (k, in)·Wᵀ product. W's gradient is deferred as factors."""
    x = _wrap(x)
    if x.data.ndim == 1:
        y = matmul(w, x)
    else:
        xd, wd = x.data, w.data
        if xd.ndim != 2 or xd.shape[1] != wd.shape[1]:
            raise ShapeError(f"linear shapes {xd.shape} and {wd.shape} not conformable")
        # W·Xᵀ: W as the left operand runs about twice as fast here as X·Wᵀ,
        # and for one row it is the vector form's matrix-vector product
        y = Tensor(np.ascontiguousarray((wd @ xd.T).T), (x, w),
                   lambda g: (g @ wd, _Factors(g, xd)))
    return y if b is None else add(y, b)


def transpose(a):
    a = _wrap(a)
    return Tensor(a.data.T, (a,), lambda g: (g.T,))


def concat(tensors, axis=0):
    """Join along ``axis``. With ``axis=-1`` the leading axes broadcast, so
    a vector joins every row of a batch."""
    ts = [_wrap(t) for t in tensors]
    parts = [t.data for t in ts]
    if axis == -1 and len({p.shape[:-1] for p in parts}) > 1:
        lead = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
        parts = [np.broadcast_to(p, lead + p.shape[-1:]) for p in parts]
    cuts = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return Tensor(np.concatenate(parts, axis=axis), tuple(ts),
                  lambda g: tuple(_unbroadcast(part, t.data.shape)
                                  for part, t in zip(np.split(g, cuts, axis=axis), ts)))


def index(a, key):
    """``a[key]`` for a basic numpy index (ints, slices, None). Backward
    hands ``g`` on as a row update of ``a[key]``."""
    a = _wrap(a)
    return Tensor(a.data[key], (a,), lambda g: (_Rows(key, g),))


def gather_rows(m, indices):
    """Rows ``m[indices]``; repeated indices add up in backward."""
    m = _wrap(m)
    idx = np.asarray(indices, dtype=np.int64)
    return Tensor(m.data[idx], (m,), lambda g: (_Rows(idx, g),))


def scatter_add(values, indices, size):
    """out[..., indices[j]] += values[..., j] over fresh zero rows of ``size``."""
    values = _wrap(values)
    key = (..., np.asarray(indices, dtype=np.int64))
    out = np.zeros(values.data.shape[:-1] + (size,), dtype=values.data.dtype)
    np.add.at(out, key, values.data)
    return Tensor(out, (values,), lambda g: (g[key],))


def pad_zeros(v, total):
    """Extend each row (last axis) with zeros up to ``total`` entries."""
    v = _wrap(v)
    n = v.data.shape[-1]
    if total < n:
        raise ShapeError(f"cannot pad vector of size {n} to {total}")
    if total == n:
        return v
    out = np.zeros(v.data.shape[:-1] + (total,), dtype=v.data.dtype)
    out[..., :n] = v.data
    return Tensor(out, (v,), lambda g: (g[..., :n],))


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)


def sigmoid(a):
    a = _wrap(a)
    out = _sigmoid(a.data)

    def bw(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (a,), bw)


def tanh(a):
    a = _wrap(a)
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def log(a):
    a = _wrap(a)
    with np.errstate(divide="ignore"):
        out = np.log(a.data)
    return Tensor(out, (a,), lambda g: (g / a.data,))


def clamp_min(a, floor):
    a = _wrap(a)
    floor = float(floor)
    keep = a.data > floor

    def bw(g):
        return (np.where(keep, g, 0.0).astype(a.data.dtype),)

    return Tensor(np.maximum(a.data, floor), (a,), bw)


def minimum(a, b):
    a, b = _wrap(a), _wrap(b)
    take_a = a.data <= b.data

    def bw(g):
        return (np.where(take_a, g, 0.0).astype(a.data.dtype),
                np.where(take_a, 0.0, g).astype(b.data.dtype))

    return Tensor(np.minimum(a.data, b.data), (a, b), bw)


def sum_all(a):
    a = _wrap(a)
    return Tensor(a.data.sum(), (a,), lambda g: (np.full_like(a.data, float(g)),))


def softmax(v, mask=None):
    """Probabilities over the last axis, row by row, over unmasked positions;
    max-subtracted for stability.

    ``mask`` is a boolean array of the input's shape or of one row's, True =
    position participates. Masked positions come out exactly 0.
    """
    v = _wrap(v)
    x = v.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape not in (x.shape, x.shape[-1:]):
            raise ShapeError(f"mask shape {mask.shape} != input shape {x.shape}")
        if not mask.any(axis=-1).all():
            raise ValueError("softmax: all positions masked")
        x = np.where(mask, x, -np.inf)
    ex = np.exp(x - x.max(axis=-1, keepdims=True))
    p = (ex / ex.sum(axis=-1, keepdims=True)).astype(v.data.dtype)

    def bw(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return ((p * (g - inner)).astype(p.dtype),)

    return Tensor(p, (v,), bw)


def lstm_seq(x, h0, c0, w, u, b):
    """The standard gated LSTM run over the T steps of ``x`` from state
    (``h0``, ``c0``), as one graph node. One sequence: ``x`` is (T, in),
    the state (H,), and the output a (T, 2, H) tensor holding [h, c] after
    each step. A batch of k sequences stepped together: ``x`` is
    (T, k, in), the state (k, H), and the output (T, k, 2, H).

    ``w`` is (4H, in), ``u`` is (4H, H), ``b`` is (4H,), gate order
    input / forget / output / candidate. The forward projects all steps of
    ``x`` in one product; the hand-written backward runs the recurrence in
    reverse and then gets dx, dW, dU and db in one product or sum each.
    """
    x, h0, c0 = _wrap(x), _wrap(h0), _wrap(c0)
    xd, wd, ud = x.data, w.data, u.data
    hsize, in_dim = ud.shape[1], wd.shape[1]
    if wd.shape[0] != 4 * hsize or ud.shape[0] != 4 * hsize or b.data.shape != (4 * hsize,):
        raise ShapeError(
            f"lstm weight shapes inconsistent: W {wd.shape}, U {ud.shape}, b {b.data.shape}")
    batch = h0.shape[:-1]  # () for one sequence, (k,) for k
    if (len(batch) > 1 or h0.shape[-1:] != (hsize,) or c0.shape != h0.shape
            or xd.ndim != 2 + len(batch) or xd.shape[1:] != batch + (in_dim,)):
        raise ShapeError(f"lstm inputs x {xd.shape}, h0 {h0.shape}, c0 {c0.shape} do not fit "
                         f"W {wd.shape}, U {ud.shape}")
    steps, rows, sig = xd.shape[0], h0.data.size // hsize, 3 * hsize  # i, f, o are sigmoids
    # gate pre-activations, then activations in place; one sequence is one row.
    # The loops index views made once, which is cheaper than slicing per step.
    act = (xd.reshape(-1, in_dim) @ wd.T + b.data).reshape(steps, rows, 4 * hsize)
    i, f, o, g = (act[..., k * hsize:(k + 1) * hsize] for k in range(4))
    ifo = act[..., :sig]
    out = np.empty((steps, rows, 2, hsize), dtype=act.dtype)
    h_out, c_out = out[:, :, 0], out[:, :, 1]
    tc = np.empty((steps, rows, hsize), dtype=act.dtype)  # tanh(c)
    h, c = h0.data.reshape(rows, hsize), c0.data.reshape(rows, hsize)
    for t in range(steps):
        a = act[t]
        a += (ud @ h.T).T  # U·hᵀ, as in linear
        ifo[t] = _sigmoid(ifo[t])
        np.tanh(g[t], out=g[t])
        c = c_out[t] = f[t] * c + i[t] * g[t]
        np.tanh(c, out=tc[t])
        h = h_out[t] = o[t] * tc[t]

    def bw(grad):
        grad = grad.reshape(out.shape)
        c_in = np.concatenate([c0.data.reshape(1, rows, hsize), c_out[:-1]])
        # dz[t] = [dc, dc, dh, dc] * coef[t], by gate
        coef = np.concatenate([g * i * (1.0 - i), c_in * f * (1.0 - f),
                               tc * o * (1.0 - o), i * (1.0 - g * g)], axis=-1)
        dc_dh = o * (1.0 - tc * tc)
        dz = np.empty_like(act)
        coef4, dz4 = coef.reshape(steps, rows, 4, hsize), dz.reshape(steps, rows, 4, hsize)
        coef_o, dz_o, gh, gc = coef[..., 2 * hsize:sig], dz4[:, :, 2], grad[:, :, 0], grad[:, :, 1]
        dh, dc = np.zeros((rows, hsize), act.dtype), np.zeros((rows, hsize), act.dtype)
        for t in reversed(range(steps)):
            dh = gh[t] + dh
            dc = gc[t] + dc + dh * dc_dh[t]
            np.multiply(coef4[t], dc[:, None], out=dz4[t])
            np.multiply(coef_o[t], dh, out=dz_o[t])
            dh, dc = dz[t] @ ud, dc * f[t]
        h_in = np.concatenate([h0.data.reshape(1, rows, hsize), h_out[:-1]])
        dz = dz.reshape(-1, 4 * hsize)  # backward reshapes dx, dh0, dc0 to their inputs
        return (dz @ wd, dh, dc, dz.T @ xd.reshape(-1, in_dim), dz.T @ h_in.reshape(-1, hsize),
                dz.sum(axis=0))

    return Tensor(out.reshape(xd.shape[:-1] + (2, hsize)), (x, h0, c0, w, u, b), bw)


# ---------------------------------------------------------------------------
# verification oracle


def finite_diff_check(f, params, epsilon=1e-3, denom_floor=1e-4):
    """Max relative error between analytic gradients of f() and central
    finite differences, per coordinate over every tensor in ``params``.

    Relative error is |analytic - numeric| / max(|analytic|, |numeric|,
    denom_floor); the floor keeps float32 round-off on near-zero
    coordinates from dominating.
    """
    params = list(params)
    zero_grads(params)
    out = f()
    if not np.isfinite(out.data).all():
        raise ValueError("finite_diff_check: f() is not finite")
    out.backward()
    analytic = [np.array(p.grad, dtype=np.float64) if p.grad is not None
                else np.zeros(p.data.shape) for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            fp = float(f().data)
            flat[j] = orig - epsilon
            fm = float(f().data)
            flat[j] = orig
            num = (fp - fm) / (2.0 * epsilon)
            denom = max(abs(aflat[j]), abs(num), denom_floor)
            worst = max(worst, abs(aflat[j] - num) / denom)
    return worst


class Rng:
    """Deterministic random source backed by numpy's PCG64.

    PCG64 is fully specified and produces identical streams for identical
    seeds on every platform.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._g = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low, high, shape=None):
        return self._g.uniform(low, high, size=shape).astype(_DTYPE)

    def integers(self, low, high):
        return int(self._g.integers(low, high))

    def permutation(self, n):
        return self._g.permutation(n)

    def sample(self, n, k):
        """k distinct indices out of range(n)."""
        return self._g.choice(n, size=k, replace=False)
