"""The composed chains that ``numerics.attention_scores`` and
``numerics.output_dist`` replace, as the model built them before those ops
existed: the remaining elementwise ops plus three reference ops that the
model no longer needs (a scatter-add, a zero pad and the product of a stack
of matrices with a vector). Tests compare each fused op with its chain,
value for value and gradient for gradient.
"""

import numpy as np

from c2q import numerics as nm
from c2q.numerics import Tensor


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


def attention_scores(query, keys, cov, w_cv, v):
    pre = nm.add(keys, nm.index(query, (slice(None), None)))  # one (M, a) block per row
    if cov is not None:
        pre = nm.add(pre, nm.mul(nm.index(cov, (..., None)), w_cv))
    return stack_matvec(nm.tanh(pre), v)


def output_dist(x, w, b, size, gate=None, attn=None, ext_ids=None):
    vocab_dist = nm.softmax(nm.linear(x, w, b))
    if gate is None:
        return pad_zeros(vocab_dist, size)
    gate = nm.index(gate, (slice(None), None))
    copy_dist = scatter_add(attn, ext_ids, size)
    gen_dist = pad_zeros(vocab_dist, size)
    keep = nm.add(1.0, nm.scale(gate, -1.0))  # 1 - p_cg
    return nm.add(nm.mul(gate, copy_dist), nm.mul(keep, gen_dist))
