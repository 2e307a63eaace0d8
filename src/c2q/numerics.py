"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Everything the encoder/decoder needs, each op one graph node: biased
linear maps, a whole-sequence LSTM, the additive attention weights (scores
and their softmax), the output distribution with its copy mix,
sigmoid/tanh, a floored log, sums, concatenation, indexing (a list or
array of row ids gathers rows), and a central finite-difference gradient
checker. The model ops work on rows: a linear map takes (k, in) rows, the
LSTM a packed batch of sequences, and the elementwise ops, the attention
and the output distribution work row by row on the last axis. Values are
float32 by default; wrap gradient checks in ``use_dtype(np.float64)`` for
the doubled-precision test mode with tighter tolerances.
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self):
        """Accumulate d(self)/d(t) into ``t.grad`` for every leaf t below.

        Dense gradients and row updates are added as they arrive; a row
        update at an index array that may name a row twice goes through
        ``np.add.at``. Factored weight gradients wait per tensor and are
        folded in as one product just before that tensor's own backward
        runs (every consumer has reported by then).
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        deferred = {}  # id(tensor) -> [_Factors]
        for t in reversed(order):
            if id(t) in deferred:
                _fold(t, deferred.pop(id(t)))
            if t._backward is not None and t.grad is not None:
                _pass_back(t, deferred)


def _pass_back(t, deferred):
    """Run ``t``'s backward and hand each parent its gradient. A function
    of its own, so the gradients it returns are freed once passed on."""
    grads = t._backward(t.grad)
    t.grad = None  # a non-leaf's gradient is spent; a second pass starts clean
    for parent, g in zip(t._parents, grads):
        if isinstance(g, _Factors):
            deferred.setdefault(id(parent), []).append(g)
            continue
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
        if not isinstance(g, _Rows):
            np.add(parent.grad, g.reshape(parent.data.shape), out=parent.grad)
        elif _has_array(g.key) and not _distinct(g.key):
            np.add.at(parent.grad, g.key, g.g)
        else:  # no entry named twice: one indexed add, as np.add.at would add it
            parent.grad[g.key] += g.g


def _has_array(key):
    """Whether an index holds an index array, which may repeat an entry."""
    return isinstance(key, np.ndarray) or (
        isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key))


# A gradient that backward defers and folds per tensor: ``left.T @ right``
# kept as its two factors (a vector pair is one row, the outer product).
_Factors = namedtuple("_Factors", "left right")
# A gradient of ``g`` at ``[key]`` and zeros elsewhere.
_Rows = namedtuple("_Rows", "key g")


def _outer_sum(left, right):
    """``left.T @ right``: the sum of the outer products of their rows. One
    row is one outer product, which einsum rounds once per entry as the GEMM
    does, in about 60% of the time of ``np.multiply.outer``. einsum adds each
    product to a zero, so a -0.0 product reads +0.0. That can flip the sign
    of a zero gradient entry but never of a parameter: p - lr * (+-0.0)
    differs only at p = -0.0, which neither initialization nor an SGD step
    (x - y is -0.0 only for -0.0 - +0.0) produces."""
    if len(left) == 1:
        return np.einsum("i,j->ij", left[0], right[0])
    return left.T @ right


def _distinct(key):
    """Whether ``key`` is a 1-D integer index array that names no row twice."""
    return (isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu"
            and (key.size < 2 or (key.min() >= 0 and np.bincount(key).max() == 1)))


def _fold(t, factors):
    """Add ``t``'s deferred factor pairs into ``t.grad`` as one
    ``vstack(left).T @ vstack(right)`` product."""
    prod = _outer_sum(np.vstack([f.left for f in factors]),
                      np.vstack([f.right for f in factors]))
    if t.grad is None:
        t.grad = prod.astype(t.data.dtype, copy=False)
    else:
        np.add(t.grad, prod, out=t.grad)


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
    """``a @ b`` for a matrix times a vector or a matrix times a matrix.
    The right operand's gradient in the (2, 2) case and the left one's in
    the (2, 1) case are deferred as factors."""
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    ranks = ad.ndim, bd.ndim
    if ranks == (2, 1):
        def bw(g):
            return _Factors(g, bd), ad.T @ g

    elif ranks == (2, 2):
        def bw(g):
            return g @ bd.T, _Factors(ad, g)

    else:
        raise ShapeError(f"matmul unsupported ranks {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul shapes {ad.shape} and {bd.shape} not conformable")
    return Tensor(ad @ bd, (a, b), bw)


def linear(x, w, b=None):
    """Rows y = xWᵀ + b of rows x (k, in) as one graph node, bias included.
    W's gradient is deferred as factors."""
    x = _wrap(x)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"linear shapes {xd.shape} and {wd.shape} not conformable")
    # W·Xᵀ: W as the left operand runs about twice as fast here as X·Wᵀ,
    # and for one row it is a matrix-vector product
    y = np.ascontiguousarray((wd @ xd.T).T)
    if b is None:
        return Tensor(y, (x, w), lambda g: (g @ wd, _Factors(g, xd)))
    return Tensor(y + b.data, (x, w, b), lambda g: (g @ wd, _Factors(g, xd), g.sum(axis=0)))


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
    """``a[key]`` for a basic numpy index (ints, slices, None), a list or
    1-D array of row ids, or a tuple of integer arrays or lists picking
    single entries. A list is taken as an int64 array. Backward hands ``g``
    on as a row update of ``a[key]``, where an entry read twice gets both
    gradients."""
    a = _wrap(a)
    if isinstance(key, tuple):
        key = tuple(np.asarray(k, dtype=np.int64) if isinstance(k, list) else k for k in key)
    elif isinstance(key, list):
        key = np.asarray(key, dtype=np.int64)
    return Tensor(a.data[key], (a,), lambda g: (_Rows(key, g),))


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x):
    """1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|), so the
    exponential never overflows. e <= 1, so max(e, 1) = 1 and max(e, 0) = e
    pick the numerator with no ``np.where`` and no dtype copy; every value,
    NaN and signed zero included, is that of the two-branch form."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (e + 1.0)


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


def log(a, floor):
    """log(max(a, floor)); an entry at or below the floor gets no gradient."""
    a = _wrap(a)
    floored = np.maximum(a.data, float(floor))
    return Tensor(np.log(floored), (a,), lambda g: (np.where(a.data > floor, g / floored, 0.0),))


def minimum(a, b):
    a, b = _wrap(a), _wrap(b)
    take_a = a.data <= b.data

    def bw(g):
        return (np.where(take_a, g, 0.0).astype(a.data.dtype),
                np.where(take_a, 0.0, g).astype(b.data.dtype))

    return Tensor(np.minimum(a.data, b.data), (a, b), bw)


def sum_all(a, scale=1.0):
    """The sum of every entry times the constant ``scale`` (no grad for it)."""
    a, s = _wrap(a), float(scale)
    return Tensor(a.data.sum() * s, (a,), lambda g: (np.full_like(a.data, float(g * s)),))


def _softmax(x):
    """Probabilities over the last axis, row by row; max-subtracted for
    stability."""
    ex = np.exp(x - x.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def _softmax_back(p, g):
    inner = (g * p).sum(axis=-1, keepdims=True)
    return (p * (g - inner)).astype(p.dtype, copy=False)


def attention_weights(query, keys, cov, w_cv, v):
    """Additive attention as one graph node: (k, M) rows softmax(e) of the
    scores e = tanh(keys + query + cov·w_cv)·v of query rows (k, a) against
    key rows (M, a), with coverage rows ``cov`` (k, M) scaling ``w_cv`` (a,)
    at each source position; ``cov=None`` drops that term. The node keeps
    only the weights: its backward rebuilds the (k, M, a) tanh block from
    the inputs with the forward's own expressions, one more add and tanh
    per call instead of a block held per decoder step until backward. It
    then runs the expressions of the composed add / mul / tanh / matmul /
    softmax chain in that chain's order, so every gradient is that chain's
    bit for bit."""
    query, keys, v = _wrap(query), _wrap(keys), _wrap(v)
    qd, kd, vd = query.data, keys.data, v.data
    if qd.ndim != 2 or kd.ndim != 2 or qd.shape[1] != kd.shape[1] or vd.shape != kd.shape[1:]:
        raise ShapeError(f"attention shapes query {qd.shape}, keys {kd.shape}, v {vd.shape}")
    # parents in this order: backward's walk then reaches every tensor
    # above and below the node in the order it reached them in the chain
    parents = (keys, query, v)
    if cov is not None:
        cov, w_cv = _wrap(cov), _wrap(w_cv)
        if cov.shape != (len(qd), len(kd)) or w_cv.shape != vd.shape:
            raise ShapeError(f"attention coverage {cov.shape} and w_cv {w_cv.shape} "
                             f"do not fit scores {(len(qd), len(kd))}")
        ci = cov.data[..., None]
        parents = (keys, query, cov, w_cv, v)

    def tanh_block():
        th = kd + qd[:, None]  # the pre-activation, then its tanh in place
        if cov is not None:
            th += ci * w_cv.data
        return np.tanh(th, out=th)

    p = _softmax(tanh_block() @ vd)

    def bw(g):
        th = tanh_block()
        g = _softmax_back(p, g)
        dv = th.reshape(-1, vd.shape[0]).T @ g.reshape(-1)
        dpre = g[..., None] * vd * (1.0 - th * th)
        grads = (_unbroadcast(dpre, kd.shape), _unbroadcast(dpre, (len(qd), 1, vd.shape[0])))
        if cov is None:
            return grads + (dv,)
        return grads + (_unbroadcast(dpre * w_cv.data, ci.shape),
                        _unbroadcast(dpre * ci, w_cv.shape), dv)

    return Tensor(p, parents, bw)


def output_dist(x, w, b, size, gate=None, attn=None, ext_ids=None):
    """Rows of the output distribution over ``size`` >= V entries as one
    graph node: softmax(x·Wᵀ + b) over the V rows of ``w``, padded with
    zeros to ``size``. With a copy ``gate`` (k,), each row mixes that
    distribution, weighted 1 - gate, with the attention rows ``attn``
    (k, M) scattered onto ``ext_ids`` (M,), weighted gate. The node keeps
    only the softmax rows beside its output and rebuilds the padded and
    copy distributions in backward. Its backward runs the expressions of
    the composed linear / add / softmax / pad / scatter / mix chain in
    that chain's order, and hands W its gradient as the factor pair."""
    x = _wrap(x)
    xd, wd = x.data, w.data
    vocab = wd.shape[0]
    if xd.ndim != 2 or xd.shape[1] != wd.shape[1] or b.data.shape != (vocab,) or size < vocab:
        raise ShapeError(f"output shapes x {xd.shape}, W {wd.shape}, b {b.data.shape}, "
                         f"size {size}")
    lin = np.ascontiguousarray((wd @ xd.T).T) + b.data  # as linear computes it
    p = _softmax(lin)

    def padded():
        if size == vocab:
            return p
        out = np.zeros((len(p), size), dtype=p.dtype)
        out[:, :vocab] = p
        return out

    def back(dgen):  # the softmax, bias and product of the generator part
        dlin = _softmax_back(p, dgen[:, :vocab])
        return dlin @ wd, _Factors(dlin, xd), _unbroadcast(dlin, b.data.shape)

    if gate is None:
        return Tensor(padded(), (x, w, b), back)
    gate, attn = _wrap(gate), _wrap(attn)
    key = (..., np.asarray(ext_ids, dtype=np.int64))
    if gate.shape != (len(p),) or attn.shape != (len(p), len(key[1])):
        raise ShapeError(f"copy gate {gate.shape} and attention {attn.shape} "
                         f"do not fit {len(p)} rows of {len(key[1])} source ids")

    def copied():
        out = np.zeros((len(p), size), dtype=attn.data.dtype)
        np.add.at(out, key, attn.data)
        return out

    g_col = gate.data[:, None]
    keep = 1.0 + g_col * -1.0

    def bw(g):
        dgate = (_unbroadcast(g * copied(), g_col.shape)
                 + _unbroadcast(g * padded(), keep.shape) * -1.0)
        return ((g * g_col)[key], dgate.reshape(gate.shape)) + back(g * keep)

    # parents in the order in which the chain's walk reached them
    return Tensor(g_col * copied() + keep * padded(), (attn, gate, x, w, b), bw)


def lstm_seq(x, h0, c0, w, u, b, sizes):
    """The standard gated LSTM run over a packed ragged batch of sequences,
    as one graph node. ``x`` (N, in) holds the rows of B sequences in
    time-major order, longest first, and ``sizes`` the number of live rows
    at each step (non-increasing from B, summing to N), so step t's rows are
    those of the first ``sizes[t]`` sequences. State (``h0``, ``c0``) is
    (B, H); the output (N, 2, H) holds [h, c] after each row's step. One
    sequence is a batch of one, and k rows stepped once have ``sizes=[k]``.

    ``w`` is (4H, in), ``u`` is (4H, H), ``b`` is (4H,), gate order input /
    forget / output / candidate. The forward projects all rows of ``x`` in
    one product; the hand-written backward runs the recurrence in reverse
    and then gets dx, dW, dU and db in one product or sum each.
    """
    x, h0, c0 = _wrap(x), _wrap(h0), _wrap(c0)
    xd, wd, ud = x.data, w.data, u.data
    hsize, in_dim = ud.shape[1], wd.shape[1]
    if wd.shape[0] != 4 * hsize or ud.shape[0] != 4 * hsize or b.data.shape != (4 * hsize,):
        raise ShapeError(
            f"lstm weight shapes inconsistent: W {wd.shape}, U {ud.shape}, b {b.data.shape}")
    sizes = [int(n) for n in sizes]
    if not (sizes and sizes[-1] >= 1 and sizes == sorted(sizes, reverse=True)
            and h0.shape == c0.shape == (sizes[0], hsize)
            and xd.shape == (sum(sizes), in_dim)):
        raise ShapeError(f"lstm inputs x {xd.shape}, h0 {h0.shape}, c0 {c0.shape}, sizes "
                         f"{sizes} do not fit W {wd.shape}, U {ud.shape}")
    rows, sig = sum(sizes), 3 * hsize  # i, f, o are sigmoids
    ends = np.cumsum(sizes).tolist()
    steps = [slice(end - n, end) for n, end in zip(sizes, ends)]  # each step's rows
    # gate pre-activations, then activations in place. The loops index
    # views made once with a slice made once, the cheapest per step.
    act = xd @ wd.T + b.data
    i, f, o, g = (act[:, k * hsize:(k + 1) * hsize] for k in range(4))
    ifo = act[:, :sig]
    out = np.empty((rows, 2, hsize), dtype=act.dtype)
    h_out, c_out = out[:, 0], out[:, 1]
    h, c = h0.data, c0.data
    for t, n in zip(steps, sizes):
        if n < len(h):  # sequences that ended drop out of the state
            h, c = h[:n], c[:n]
        a, sig_t, g_t = act[t], ifo[t], g[t]
        a += (ud @ h.T).T  # U·hᵀ, as in linear
        sig_t[...] = _sigmoid(sig_t)
        np.tanh(g_t, out=g_t)
        c = c_out[t] = f[t] * c + i[t] * g_t
        h = h_out[t] = o[t] * np.tanh(c)

    def bw(grad):
        # dz = [dc, dc, dh, dc] * coef by gate; coef is built in dz's buffer
        # and multiplied through step by step (forget also by the cell in)
        dz = np.empty_like(act)
        dz4 = dz.reshape(rows, 4, hsize)
        dz_i, dz_f, dz_o, dz_g = (dz4[:, k] for k in range(4))
        np.subtract(1.0, i, out=dz_i)
        dz_i *= i
        dz_i *= g
        np.subtract(1.0, f, out=dz_f)
        dz_f *= f
        work = np.tanh(c_out)  # tanh(c), then dc/dh at each row, then the h entering it
        np.subtract(1.0, o, out=dz_o)
        dz_o *= o
        dz_o *= work
        np.multiply(g, g, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        dz_g *= i
        work *= work
        np.subtract(1.0, work, out=work)
        work *= o
        # carries into the step before; rows of sequences that end at a
        # step are still zero when the backward loop first reaches them
        dh_in, dc_in = (np.zeros(h0.shape, act.dtype) for _ in "hc")
        for k in reversed(range(len(steps))):
            t, n = steps[k], sizes[k]
            if k:
                before = slice(steps[k - 1].start, steps[k - 1].start + n)
                h_prev, c_prev = h_out[before], c_out[before]
            else:
                h_prev, c_prev = h0.data, c0.data
            dh = grad[t, 0] + dh_in[:n]
            dc = grad[t, 1] + dc_in[:n] + dh * work[t]
            work[t] = h_prev
            dz_f[t] *= c_prev
            dz4[t, :2] *= dc[:, None]
            dz_g[t] *= dc
            dz_o[t] *= dh
            np.matmul(dz[t], ud, out=dh_in[:n])
            np.multiply(dc, f[t], out=dc_in[:n])
        return (dz @ wd, dh_in, dc_in, _outer_sum(dz, xd), _outer_sum(dz, work),
                dz.sum(axis=0))

    return Tensor(out, (x, h0, c0, w, u, b), bw)


# ---------------------------------------------------------------------------
# verification oracle


def finite_diff_check(f, params, epsilon=1e-3, denom_floor=1e-4):
    """Max relative error between analytic gradients of f() and central
    finite differences, per coordinate over every tensor in ``params``.

    Relative error is |analytic - numeric| / max(|analytic|, |numeric|,
    denom_floor); the floor keeps float32 round-off on near-zero
    coordinates from dominating. ``f()`` returns one element, of any
    shape, as ``Tensor.backward`` requires.
    """
    params = list(params)
    zero_grads(params)
    out = f()
    if out.data.size != 1:
        raise ValueError(f"finite_diff_check: f() must return one element, not shape {out.shape}")
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
            fp = f().data.item()
            flat[j] = orig - epsilon
            fm = f().data.item()
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
