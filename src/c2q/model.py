"""Attention + copy + coverage encoder-decoder.

Encoder: two-layer bidirectional LSTM over token embeddings. Decoder: a
single-layer LSTM whose initial state comes from a learned tanh bridge over
the concatenated final forward/backward encoder states. Each decode step
produces an attention distribution over source positions (optionally
conditioned on a coverage vector), a context vector, a vocabulary softmax,
a copy gate, and the mixture distribution over the extended vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .vocab import END, START, UNK

LOGPROB_FLOOR = 1e-12

ABLATION_FLAGS = frozenset({"attention", "copy", "coverage"})

ABLATION_PRESETS = {
    "basic": frozenset(),
    "atten": frozenset({"attention"}),
    "atten+copy": frozenset({"attention", "copy"}),
    "atten+coverage": frozenset({"attention", "coverage"}),
    "full": frozenset({"attention", "copy", "coverage"}),
}


@dataclass
class Hyperparams:
    embed_dim: int = 300
    hidden: int = 256
    vocab_min_freq: int = 1
    lambda_cov: float = 1.0
    ablation: frozenset = ABLATION_PRESETS["full"]
    max_decode_len: int = 16

    def __post_init__(self):
        self.ablation = frozenset(self.ablation)
        unknown = self.ablation - ABLATION_FLAGS
        if unknown:
            raise ValueError(f"unknown ablation flags: {sorted(unknown)}")
        if "copy" in self.ablation and "attention" not in self.ablation:
            raise ValueError("copy requires attention")
        if "coverage" in self.ablation and "attention" not in self.ablation:
            raise ValueError("coverage requires attention")
        lam = self.lambda_cov
        if (isinstance(lam, bool) or not isinstance(lam, (int, float))
                or not math.isfinite(lam) or lam < 0):
            raise ValueError(f"lambda_cov must be a finite number >= 0, not {lam!r}")
        if type(self.vocab_min_freq) is not int or self.vocab_min_freq < 0:
            raise ValueError(f"vocab_min_freq must be an integer >= 0, not "
                             f"{self.vocab_min_freq!r}")
        for dim in ("embed_dim", "hidden", "max_decode_len"):
            if getattr(self, dim) < 1:
                raise ValueError(f"{dim} must be >= 1")

    @property
    def attention(self):
        return "attention" in self.ablation

    @property
    def copy(self):
        return "copy" in self.ablation

    @property
    def coverage(self):
        return "coverage" in self.ablation


class Parameters:
    """Named learnable tensors; iteration order is fixed by insertion."""

    def __init__(self, tensors):
        self.tensors = dict(tensors)

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return list(self.tensors)

    def items(self):
        return self.tensors.items()

    def values(self):
        return self.tensors.values()

    def zero_grads(self):
        nm.zero_grads(self.tensors.values())


def init_parameters(hyper, vocab_size, rng):
    """Uniform(-0.1, 0.1) weights, zero biases."""
    return Parameters(_layout(hyper, vocab_size,
                              w=lambda *shape: Tensor(rng.uniform(-0.1, 0.1, shape)),
                              zeros=lambda *shape: Tensor(np.zeros(shape))))


def parameter_shapes(hyper, vocab_size):
    """Name -> shape of every parameter, in init_parameters' order."""
    return _layout(hyper, vocab_size, w=lambda *shape: shape,
                   zeros=lambda *shape: shape)


def _layout(hyper, vocab_size, w, zeros):
    """Every parameter, built as ``w(*shape)`` (weights) or ``zeros(*shape)``
    (biases) in a fixed order that fixes the random draws."""
    d, h = hyper.embed_dim, hyper.hidden
    a = h  # attention inner dimension
    p = {"E": w(vocab_size, d)}
    for layer, in_dim in ((1, d), (2, 2 * h)):
        for dirn in ("fw", "bw"):
            p[f"enc_l{layer}_{dirn}_W"] = w(4 * h, in_dim)
            p[f"enc_l{layer}_{dirn}_U"] = w(4 * h, h)
            p[f"enc_l{layer}_{dirn}_b"] = zeros(4 * h)
    p["dec_W"] = w(4 * h, d)
    p["dec_U"] = w(4 * h, h)
    p["dec_b"] = zeros(4 * h)
    p["v"] = w(a)
    p["W_eh"] = w(a, 2 * h)
    p["W_sh"] = w(a, h)
    p["W_cv"] = w(a)
    p["b_att"] = zeros(a)
    p["W_v"] = w(vocab_size, 3 * h)
    p["b_v"] = zeros(vocab_size)
    p["w_c"] = w(2 * h)
    p["w_s"] = w(h)
    p["w_x"] = w(d)
    p["b_cg"] = zeros()
    p["W_b"] = w(h, 2 * h)
    p["b_b"] = zeros(h)
    return p


@dataclass
class EncoderOutput:
    H: Tensor            # (M, 2h) last-layer fw/bw concatenations
    s0: tuple            # (hidden, cell) decoder initial state
    summary: Tensor      # (2h,) [fw_M; bw_1], the fixed context for the basic model
    keys: Tensor | None  # (M, a) attention keys H·W_ehᵀ; None without attention

    @property
    def source_len(self):
        return self.H.data.shape[0]


@dataclass
class DecoderStep:
    state: tuple         # (hidden, cell) after this step
    a: Tensor | None     # attention over source positions
    cov: Tensor | None   # coverage vector entering this step
    cov_next: Tensor | None
    context: Tensor
    p_cg: Tensor | None  # copy gate scalar
    p_star: Tensor       # distribution over |V| + |oov|


@dataclass
class EncodedExample:
    """One training pair, already id-encoded against a vocabulary."""
    id: int
    base_ids: list
    ext_ids: list
    ev: object
    target_ids: list     # extended ids, END included
    title_tokens: list = field(default_factory=list)


def _bilstm(x, params, layer, zeros):
    """(T, 2h) rows [h_fw; h_bw], and the two directions' (T, 2, h) outputs
    in source order. The backward direction runs on the reversed rows."""
    def run(dirn, seq):
        return nm.lstm_seq(seq, zeros, zeros, *(params[f"enc_l{layer}_{dirn}_{n}"]
                                                for n in "WUb"))

    rev = slice(None, None, -1)
    fw = run("fw", x)
    bw = nm.index(run("bw", nm.index(x, rev)), rev)
    hs = (slice(None), 0)
    return nm.concat([nm.index(fw, hs), nm.index(bw, hs)], axis=1), fw, bw


def encode(base_ids, params, hyper):
    """EncoderOutput for one source id sequence."""
    if not base_ids:
        raise ValueError("encode: empty input")
    vocab_size = params["E"].data.shape[0]
    for idx in base_ids:
        if not 0 <= idx < vocab_size:
            raise IndexError(f"source id {idx} out of vocab range [0, {vocab_size})")
    zeros = Tensor(np.zeros(hyper.hidden))
    l1_out, _, _ = _bilstm(nm.gather_rows(params["E"], base_ids), params, 1, zeros)
    H, fw, bw = _bilstm(l1_out, params, 2, zeros)
    # [fw; bw] final states: fw after the last row, bw after the first
    summary_h, summary_c = (nm.concat([nm.index(fw, (-1, k)), nm.index(bw, (0, k))])
                            for k in (0, 1))
    s0_h = nm.tanh(nm.linear(summary_h, params["W_b"], params["b_b"]))
    s0_c = nm.tanh(nm.linear(summary_c, params["W_b"], params["b_b"]))
    keys = _attention_keys(H, params) if hyper.attention else None
    return EncoderOutput(H=H, s0=(s0_h, s0_c), summary=summary_h, keys=keys)


def _attention_keys(H, params):
    return nm.matmul(H, nm.transpose(params["W_eh"]))


def attention_step(s_t, H, cov, params, mask=None, keys=None):
    """(a_t, c_t): softmax attention over source rows of H and the weighted
    context. ``s_t`` is one decoder state (h,) or a batch of rows (k, h),
    with ``cov`` (M,) or (k, M) to match. ``cov`` of None means the
    coverage term is dropped. ``keys`` are H·W_ehᵀ as ``encode`` computes
    them once per source; None recomputes them."""
    if keys is None:
        keys = _attention_keys(H, params)
    query = nm.linear(s_t, params["W_sh"], params["b_att"])
    if query.data.ndim == 2:  # one (M, a) score block per row
        query = nm.index(query, (slice(None), None))
    pre = nm.add(keys, query)
    if cov is not None:
        pre = nm.add(pre, nm.mul(nm.index(cov, (..., None)), params["W_cv"]))
    scores = nm.matmul(nm.tanh(pre), params["v"])
    a = nm.softmax(scores, mask)
    c = nm.matmul(a, H)
    return a, c


def decode_step(y_prev_id, state, enc, cov, ext_ids, ev, params, hyper, mask=None):
    """One decoder timestep. ``y_prev_id`` is one base-vocab id with (h,)
    state and (M,) coverage, or k ids with (k, h) state rows and (k, M)
    coverage rows, all stepped at once; feed extended previous outputs back
    as UNK."""
    vocab_size = params["E"].data.shape[0]
    ids = np.asarray(y_prev_id)
    if ids.ndim > 1 or not ids.size or not all(0 <= i < vocab_size for i in ids.flat):
        raise IndexError(f"previous-output id {y_prev_id} outside base vocab")
    x = nm.gather_rows(params["E"], ids[None])  # one LSTM step: (1, d) or (1, k, d)
    out = nm.lstm_seq(x, state[0], state[1], params["dec_W"], params["dec_U"],
                      params["dec_b"])
    h, c_state = (nm.index(out, (0, ..., k, slice(None))) for k in (0, 1))

    if hyper.attention:
        a, ctx = attention_step(h, enc.H, cov if hyper.coverage else None, params, mask,
                                enc.keys)
        cov_next = nm.add(cov, a) if cov is not None else None
    else:
        a, ctx, cov_next = None, enc.summary, cov

    vocab_dist = nm.softmax(nm.linear(nm.concat([h, ctx], axis=-1), params["W_v"],
                                      params["b_v"]))

    ext_size = len(ev)
    if hyper.copy:
        p_cg = nm.sigmoid(nm.add_n([nm.dot(ctx, params["w_c"]),
                                    nm.dot(h, params["w_s"]),
                                    nm.dot(nm.index(x, 0), params["w_x"]),
                                    params["b_cg"]]))
        gate = nm.index(p_cg, (slice(None), None)) if ids.ndim else p_cg
        copy_dist = nm.scatter_add(a, ext_ids, ext_size)
        gen_dist = nm.pad_zeros(vocab_dist, ext_size)
        p_star = nm.add(nm.mul(gate, copy_dist),
                        nm.mul(nm.add(1.0, nm.neg(gate)), gen_dist))
    else:
        p_cg = None
        p_star = nm.pad_zeros(vocab_dist, ext_size)

    return DecoderStep(state=(h, c_state), a=a, cov=cov, cov_next=cov_next,
                       context=ctx, p_cg=p_cg, p_star=p_star)


def _to_base(idx, vocab_size):
    return idx if idx < vocab_size else UNK


def sequence_loss(example, params, hyper):
    """Teacher-forced loss for one encoded pair.

    Returns (loss Tensor, per-token log-probabilities as floats). The loss
    is mean negative log-likelihood of the extended distribution plus
    lambda_cov times the mean per-step coverage penalty
    sum_i min(a_i, cov_i).
    """
    target = example.target_ids
    if not target:
        raise ValueError("sequence_loss: empty target")
    vocab_size = params["E"].data.shape[0]
    ext_size = vocab_size + len(example.ev.oov_tokens)
    for idx in target:
        if not 0 <= idx < ext_size:
            raise IndexError(f"target id {idx} outside extended range [0, {ext_size})")

    enc = encode(example.base_ids, params, hyper)
    state = enc.s0
    cov = Tensor(np.zeros(len(example.base_ids))) if hyper.attention else None
    feed = [START] + [_to_base(y, vocab_size) for y in target[:-1]]

    nll_terms, cov_terms, logps = [], [], []
    for y_prev, y in zip(feed, target):
        step = decode_step(y_prev, state, enc, cov, example.ext_ids,
                           example.ev, params, hyper)
        logp = nm.log(nm.clamp_min(nm.index(step.p_star, y), LOGPROB_FLOOR))
        nll_terms.append(nm.neg(logp))
        logps.append(float(logp.data))
        if hyper.coverage:
            cov_terms.append(nm.sum_all(nm.minimum(step.a, step.cov)))
        state = step.state
        cov = step.cov_next

    t_len = len(target)
    loss = nm.scale(nm.add_n(nll_terms), 1.0 / t_len)
    if cov_terms and hyper.lambda_cov > 0:
        loss = nm.add(loss, nm.scale(nm.add_n(cov_terms), hyper.lambda_cov / t_len))
    return loss, logps


def encode_example(pair, vocab):
    """EncodedExample from a QCPair."""
    from .vocab import encode_source, encode_target
    base_ids, ext_ids, ev = encode_source(pair.code_tokens, vocab)
    target_ids = encode_target(pair.title_tokens, vocab, ev)
    return EncodedExample(id=pair.id, base_ids=base_ids, ext_ids=ext_ids,
                          ev=ev, target_ids=target_ids,
                          title_tokens=list(pair.title_tokens))
