"""The composed chains that ``numerics.attention_weights``,
``numerics.output_dist``, ``numerics.linear`` with a bias and
``numerics.log`` with a floor replace, as the model built them before those
ops existed: the remaining elementwise ops plus the reference ops that the
model no longer needs (a two-operand add, a product with a constant, an
elementwise product, a scatter-add, a zero pad, the product of a stack of
matrices with a vector, a softmax, a floor and a log without one). Tests compare each fused op
with its chain, value for value and gradient for gradient. Beside them
sit the earlier forms of two kernels that ``numerics`` computes another
way, the two-branch ``np.where`` sigmoid and the ``np.multiply.outer``
one-row outer product, and the earlier backward walk, which held every
row update at an index array back until a per-tensor fold.
"""

import numpy as np

from c2q import numerics as nm
from c2q.numerics import Tensor


def add(a, b):
    """``a + b``, either operand broadcasting into the other."""
    a, b = nm._wrap(a), nm._wrap(b)
    ash, bsh = a.data.shape, b.data.shape
    return Tensor(a.data + b.data, (a, b),
                  lambda g: (nm._unbroadcast(g, ash), nm._unbroadcast(g, bsh)))


def scale(a, s):
    """``a`` times the constant ``s`` (no grad for it), the op that
    ``numerics.sum_all`` took in as its ``scale``."""
    a, s = nm._wrap(a), float(s)
    return Tensor(a.data * s, (a,), lambda g: (g * s,))


def mul(a, b):
    """``a * b``, either operand broadcasting into the other."""
    a, b = nm._wrap(a), nm._wrap(b)
    ad, bd = a.data, b.data
    return Tensor(ad * bd, (a, b), lambda g: (nm._unbroadcast(g * bd, ad.shape),
                                              nm._unbroadcast(g * ad, bd.shape)))


def scatter_add(values, indices, size):
    """out[..., indices[j]] += values[..., j] over fresh zero rows of ``size``."""
    key = (..., np.asarray(indices, dtype=np.int64))
    out = np.zeros(values.data.shape[:-1] + (size,), dtype=values.data.dtype)
    np.add.at(out, key, values.data)
    return Tensor(out, (values,), lambda g: (g[key],))


def pad_zeros(v, total):
    """Extend each row (last axis) with zeros up to ``total`` entries."""
    n = v.data.shape[-1]
    if total == n:
        return v
    out = np.zeros(v.data.shape[:-1] + (total,), dtype=v.data.dtype)
    out[..., :n] = v.data
    return Tensor(out, (v,), lambda g: (g[..., :n],))


def stack_matvec(a, b):
    """``a @ b`` for a stack of matrices ``a`` and one vector ``b``."""
    ad, bd = a.data, b.data
    return Tensor(ad @ bd, (a, b), lambda g: (g[..., None] * bd,
                                              ad.reshape(-1, bd.shape[0]).T @ g.reshape(-1)))


def softmax(v):
    """Probabilities over the last axis, row by row."""
    v = nm._wrap(v)
    p = nm._softmax(v.data)
    return Tensor(p, (v,), lambda g: (nm._softmax_back(p, g),))


def clamp_min(a, floor):
    """``max(a, floor)``; an entry at or below the floor gets no gradient."""
    a = nm._wrap(a)
    floor = float(floor)
    keep = a.data > floor

    def bw(g):
        return (np.where(keep, g, 0.0).astype(a.data.dtype),)

    return Tensor(np.maximum(a.data, floor), (a,), bw)


def plain_log(a):
    """``log(a)`` with no floor."""
    a = nm._wrap(a)
    with np.errstate(divide="ignore"):
        out = np.log(a.data)
    return Tensor(out, (a,), lambda g: (g / a.data,))


def log(a, floor):
    return plain_log(clamp_min(a, floor))


_linear = nm.linear  # the product node alone, also while a test patches in ``linear``


def linear(x, w, b=None):
    y = _linear(x, w)
    return y if b is None else nm.add_n([y, b])


def attention_scores(query, keys, cov, w_cv, v):
    """The scores e whose softmax ``attention_weights`` is."""
    pre = add(keys, nm.index(query, (slice(None), None)))  # one (M, a) block per row
    if cov is not None:
        pre = add(pre, mul(nm.index(cov, (..., None)), w_cv))
    return stack_matvec(nm.tanh(pre), v)


def attention_weights(query, keys, cov, w_cv, v):
    return softmax(attention_scores(query, keys, cov, w_cv, v))


def output_dist(x, w, b, size, gate=None, attn=None, ext_ids=None):
    vocab_dist = softmax(linear(x, w, b))
    if gate is None:
        return pad_zeros(vocab_dist, size)
    gate = nm.index(gate, (slice(None), None))
    copy_dist = scatter_add(attn, ext_ids, size)
    gen_dist = pad_zeros(vocab_dist, size)
    keep = add(1.0, scale(gate, -1.0))  # 1 - p_cg
    return add(mul(gate, copy_dist), mul(keep, gen_dist))


def sigmoid_kernel(x):
    """The two-branch sigmoid that ``numerics._sigmoid`` replaces."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)


def outer_sum_kernel(left, right):
    """``left.T @ right`` with one row as ``np.multiply.outer``, as
    ``numerics._outer_sum`` computed it before einsum."""
    if len(left) == 1:
        return np.multiply.outer(left[0], right[0])
    return left.T @ right


def backward(self):
    """``Tensor.backward`` with every row update at an index array held back
    beside the factor pairs and folded in after them, in arrival order, just
    before the tensor's own backward runs."""
    if self.data.size != 1:
        raise ValueError("backward() requires a scalar output")
    order = nm._toposort(self)
    self.grad = np.ones_like(self.data)
    deferred = {}  # id(tensor) -> ([_Factors], [_Rows])
    for t in reversed(order):
        if id(t) in deferred:
            _fold(t, *deferred.pop(id(t)))
        if t._backward is not None and t.grad is not None:
            _pass_back(t, deferred)


def _pass_back(t, deferred):
    grads = t._backward(t.grad)
    t.grad = None
    for parent, g in zip(t._parents, grads):
        if isinstance(g, nm._Factors) or (isinstance(g, nm._Rows) and nm._has_array(g.key)):
            deferred.setdefault(id(parent), ([], []))[isinstance(g, nm._Rows)].append(g)
            continue
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
        if isinstance(g, nm._Rows):
            parent.grad[g.key] += g.g
        else:
            np.add(parent.grad, g.reshape(parent.data.shape), out=parent.grad)


def _fold(t, factors, rows):
    if factors:
        prod = nm._outer_sum(np.vstack([f.left for f in factors]),
                             np.vstack([f.right for f in factors]))
        if t.grad is None:
            t.grad = prod.astype(t.data.dtype, copy=False)
        else:
            np.add(t.grad, prod, out=t.grad)
    if rows and t.grad is None:
        t.grad = np.zeros_like(t.data)
    for r in rows:
        if nm._distinct(r.key):
            t.grad[r.key] += r.g
        else:
            np.add.at(t.grad, r.key, r.g)
