"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Everything the encoder/decoder needs: linear maps, an LSTM cell, masked
softmax, sigmoid/tanh, concatenation, gather/scatter, and a central
finite-difference gradient checker. Values are float32 by default; wrap
gradient checks in ``use_dtype(np.float64)`` for the doubled-precision
test mode with tighter tolerances.
"""

from __future__ import annotations

import contextlib

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

    ``grad`` accumulates across backward passes until explicitly cleared;
    backward never overwrites an existing gradient.
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
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t._backward is None or t.grad is None:
                continue
            grads = t._backward(t.grad)
            for parent, g in zip(t._parents, grads):
                if g is None:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                np.add(parent.grad, g.reshape(parent.data.shape), out=parent.grad)


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
    """Sum a list of same-shaped tensors."""
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ValueError("add_n of empty list")
    out = ts[0].data.copy()
    for t in ts[1:]:
        out += t.data
    return Tensor(out, tuple(ts), lambda g: tuple(g for _ in ts))


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} not conformable")

        def bw(g):
            return np.outer(g, bd), ad.T @ g

    elif ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} not conformable")

        def bw(g):
            return bd @ g, np.outer(ad, g)

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
    """y = Wx + b."""
    y = matmul(w, x)
    return y if b is None else add(y, b)


def transpose(a):
    a = _wrap(a)
    return Tensor(a.data.T, (a,), lambda g: (g.T,))


def outer(a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data

    def bw(g):
        return g @ bd, g.T @ ad

    return Tensor(np.outer(ad, bd), (a, b), bw)


def concat(tensors):
    ts = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[0] for t in ts]

    def bw(g):
        out, off = [], 0
        for s in sizes:
            out.append(g[off:off + s])
            off += s
        return tuple(out)

    return Tensor(np.concatenate([t.data for t in ts]), tuple(ts), bw)


def slice1d(a, start, stop):
    a = _wrap(a)

    def bw(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return Tensor(a.data[start:stop], (a,), bw)


def stack_rows(tensors):
    ts = [_wrap(t) for t in tensors]

    def bw(g):
        return tuple(g[i] for i in range(len(ts)))

    return Tensor(np.stack([t.data for t in ts]), tuple(ts), bw)


def take_row(m, i):
    m = _wrap(m)
    i = int(i)

    def bw(g):
        full = np.zeros_like(m.data)
        full[i] = g
        return (full,)

    return Tensor(m.data[i], (m,), bw)


def gather_rows(m, indices):
    m = _wrap(m)
    idx = np.asarray(indices, dtype=np.int64)

    def bw(g):
        full = np.zeros_like(m.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor(m.data[idx], (m,), bw)


def take_scalar(v, i):
    v = _wrap(v)
    i = int(i)
    if not 0 <= i < v.data.shape[0]:
        raise IndexError(f"index {i} out of range for vector of size {v.data.shape[0]}")

    def bw(g):
        full = np.zeros_like(v.data)
        full[i] = g
        return (full,)

    return Tensor(v.data[i], (v,), bw)


def scatter_add(values, indices, size):
    """out[indices[j]] += values[j] over a fresh zero vector of ``size``."""
    values = _wrap(values)
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros(size, dtype=values.data.dtype)
    np.add.at(out, idx, values.data)
    return Tensor(out, (values,), lambda g: (g[idx],))


def pad_zeros(v, total):
    """Extend a vector with zeros up to ``total`` entries."""
    v = _wrap(v)
    n = v.data.shape[0]
    if total < n:
        raise ShapeError(f"cannot pad vector of size {n} to {total}")
    if total == n:
        return v
    out = np.zeros(total, dtype=v.data.dtype)
    out[:n] = v.data
    return Tensor(out, (v,), lambda g: (g[:n],))


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
    """Probability vector over unmasked positions; max-subtracted for stability.

    ``mask`` is a boolean array, True = position participates. Masked
    positions come out exactly 0.
    """
    v = _wrap(v)
    x = v.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ShapeError(f"mask shape {mask.shape} != input shape {x.shape}")
        if not mask.any():
            raise ValueError("softmax: all positions masked")
        m = x[mask].max()
        ex = np.zeros_like(x)
        ex[mask] = np.exp(x[mask] - m)
    else:
        ex = np.exp(x - x.max())
    p = (ex / ex.sum()).astype(x.dtype)

    def bw(g):
        inner = (g * p).sum()
        return ((p * (g - inner)).astype(x.dtype),)

    return Tensor(p, (v,), bw)


def lstm_cell(x, h_prev, c_prev, w, u, b):
    """One step of the standard gated LSTM.

    ``w`` is (4H, in), ``u`` is (4H, H), ``b`` is (4H,), gate order
    input / forget / output / candidate.

    The cell is three graph nodes (gate activations, c, h) with hand-written
    backward passes, where a cell composed of ``matmul``/``add``/``slice1d``/
    ``sigmoid``/``tanh``/``mul`` would be seventeen. Each node repeats that
    composition's arithmetic in the same order, and orders its inputs so
    that ``backward`` reaches them in the same order too, so values and
    gradients are bit for bit those of the composed cell.
    """
    hsize = u.data.shape[1]
    if w.data.shape[0] != 4 * hsize or b.data.shape[0] != 4 * hsize:
        raise ShapeError(
            f"lstm weight shapes inconsistent: W {w.data.shape}, U {u.data.shape}, b {b.data.shape}")
    x, h_prev, c_prev = _wrap(x), _wrap(h_prev), _wrap(c_prev)
    wd, xd, ud, hd = w.data, x.data, u.data, h_prev.data
    if wd.shape[1] != xd.shape[0] or ud.shape[0] != 4 * hsize or hd.shape[0] != hsize:
        raise ShapeError(f"lstm input shapes {xd.shape}, {hd.shape} do not fit "
                         f"W {wd.shape}, U {ud.shape}")
    sig = 3 * hsize  # input, forget and output gates are sigmoids
    z = wd @ xd + ud @ hd + b.data
    act = np.concatenate([_sigmoid(z[:sig]), np.tanh(z[sig:])]).astype(_DTYPE, copy=False)
    i, f, o, g = act[:hsize], act[hsize:2 * hsize], act[2 * hsize:sig], act[sig:]

    def gates_bw(d):
        dz = np.concatenate([d[:sig] * act[:sig] * (1.0 - act[:sig]),
                             d[sig:] * (1.0 - g * g)])
        return np.outer(dz, xd), wd.T @ dz, np.outer(dz, hd), ud.T @ dz, dz

    gates = Tensor(act, (w, x, u, h_prev, b), gates_bw)
    cd = c_prev.data

    def c_bw(d):
        return d * f, np.concatenate([d * g, d * cd, np.zeros_like(d), d * i])

    c = Tensor(f * cd + i * g, (c_prev, gates), c_bw)
    tc = np.tanh(c.data)

    def h_bw(d):
        do = np.zeros_like(act)
        do[2 * hsize:sig] = d * tc
        return do, d * o * (1.0 - tc * tc)

    h = Tensor(o * tc, (gates, c), h_bw)
    return h, c


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
