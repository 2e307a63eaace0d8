"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Everything the encoder/decoder needs: linear maps, a whole-sequence LSTM,
masked softmax, sigmoid/tanh, concatenation, indexing, gather/scatter, and a
central finite-difference gradient checker. Values are float32 by default; wrap
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


def concat(tensors, axis=0):
    ts = [_wrap(t) for t in tensors]
    cuts = np.cumsum([t.data.shape[axis] for t in ts])[:-1]
    return Tensor(np.concatenate([t.data for t in ts], axis=axis), tuple(ts),
                  lambda g: tuple(np.split(g, cuts, axis=axis)))


def index(a, key):
    """``a[key]`` for a basic numpy index (ints, slices, None)."""
    a = _wrap(a)

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return Tensor(a.data[key], (a,), bw)


def gather_rows(m, indices):
    m = _wrap(m)
    idx = np.asarray(indices, dtype=np.int64)

    def bw(g):
        full = np.zeros_like(m.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor(m.data[idx], (m,), bw)


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


def lstm_seq(x, h0, c0, w, u, b):
    """The standard gated LSTM run over the T rows of ``x`` (T, in) from
    state (``h0``, ``c0``), as one graph node: a (T, 2, H) tensor holding
    [h, c] after each row.

    ``w`` is (4H, in), ``u`` is (4H, H), ``b`` is (4H,), gate order
    input / forget / output / candidate. The forward projects all rows of
    ``x`` in one product; the hand-written backward runs the recurrence in
    reverse and then gets dx, dW, dU and db in one product or sum each.
    """
    x, h0, c0 = _wrap(x), _wrap(h0), _wrap(c0)
    xd, wd, ud = x.data, w.data, u.data
    hsize = ud.shape[1]
    if wd.shape[0] != 4 * hsize or ud.shape[0] != 4 * hsize or b.data.shape != (4 * hsize,):
        raise ShapeError(
            f"lstm weight shapes inconsistent: W {wd.shape}, U {ud.shape}, b {b.data.shape}")
    if xd.ndim != 2 or xd.shape[1] != wd.shape[1] or h0.shape != (hsize,) or c0.shape != (hsize,):
        raise ShapeError(f"lstm inputs x {xd.shape}, h0 {h0.shape}, c0 {c0.shape} do not fit "
                         f"W {wd.shape}, U {ud.shape}")
    steps, sig = xd.shape[0], 3 * hsize  # input, forget and output gates are sigmoids
    act = xd @ wd.T + b.data  # gate pre-activations, then activations in place
    out = np.empty((steps, 2, hsize), dtype=act.dtype)
    tc = np.empty((steps, hsize), dtype=act.dtype)  # tanh(c)
    h, c = h0.data, c0.data
    for t in range(steps):
        a = act[t]
        a += ud @ h
        a[:sig] = _sigmoid(a[:sig])
        np.tanh(a[sig:], out=a[sig:])
        c = out[t, 1] = a[hsize:2 * hsize] * c + a[:hsize] * a[sig:]
        np.tanh(c, out=tc[t])
        h = out[t, 0] = a[2 * hsize:sig] * tc[t]

    def bw(grad):
        i, f, o, g = (act[:, k * hsize:(k + 1) * hsize] for k in range(4))
        c_in = np.concatenate([c0.data[None], out[:-1, 1]])
        # dz[t] = [dc, dc, dh, dc] * coef[t], by gate
        coef = np.concatenate([g * i * (1.0 - i), c_in * f * (1.0 - f),
                               tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        dc_dh = o * (1.0 - tc * tc)
        dz = np.empty_like(act)
        dh, dc = np.zeros(hsize, act.dtype), np.zeros(hsize, act.dtype)
        for t in reversed(range(steps)):
            dh = grad[t, 0] + dh
            dc = grad[t, 1] + dc + dh * dc_dh[t]
            dzt = dz[t].reshape(4, hsize)
            np.multiply(coef[t].reshape(4, hsize), dc, out=dzt)
            np.multiply(coef[t, 2 * hsize:sig], dh, out=dzt[2])
            dh, dc = dz[t] @ ud, dc * f[t]
        h_in = np.concatenate([h0.data[None], out[:-1, 0]])
        return dz @ wd, dh, dc, dz.T @ xd, dz.T @ h_in, dz.sum(axis=0)

    return Tensor(out, (x, h0, c0, w, u, b), bw)


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
