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
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .vocab import END, START, UNK

LOGPROB_FLOOR = 1e-12

# A Stack Overflow title has at most 150 characters. A larger decode length
# from a checkpoint header would make generate and evaluate run unbounded.
MAX_DECODE_LEN = 256

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
        for dim in ("embed_dim", "hidden", "max_decode_len"):
            if getattr(self, dim) < 1:
                raise ValueError(f"{dim} must be >= 1")
        if self.max_decode_len > MAX_DECODE_LEN:
            raise ValueError(f"max_decode_len must be <= {MAX_DECODE_LEN}")

    @property
    def attention(self):
        return "attention" in self.ablation

    @property
    def copy(self):
        return "copy" in self.ablation

    @property
    def coverage(self):
        return "coverage" in self.ablation


def init_parameters(hyper, vocab_size, rng):
    """Name -> learnable Tensor, in a fixed order: uniform(-0.1, 0.1)
    weights, zero biases."""
    return _layout(hyper, vocab_size, w=lambda *shape: Tensor(rng.uniform(-0.1, 0.1, shape)),
                   zeros=lambda *shape: Tensor(np.zeros(shape)))


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


def _bilstm(x, params, layer, zeros, sizes, rev):
    """The two directions' (N, 2, h) outputs over the packed rows ``x``:
    forward in source order, and backward over each sequence reversed (the
    packed-row permutation ``rev``, its own inverse), in that order."""
    def run(dirn, seq):
        return nm.lstm_seq(seq, zeros, zeros, *(params[f"enc_l{layer}_{dirn}_{n}"]
                                                for n in "WUb"), sizes=sizes)

    return run("fw", x), run("bw", nm.index(x, rev))


def _hidden(out):
    return nm.index(out, (slice(None), 0))


def encode_batch(sources, params, hyper):
    """One EncoderOutput per source id sequence. The sources run through
    each encoder LSTM as one packed batch: longest first, time-major, so
    step t holds the rows of every source longer than t."""
    if not sources or not all(len(ids) for ids in sources):
        raise ValueError("encode: empty input")
    vocab_size = params["E"].data.shape[0]
    for ids in sources:
        for idx in ids:
            if not 0 <= idx < vocab_size:
                raise IndexError(f"source id {idx} out of vocab range [0, {vocab_size})")
    order = sorted(range(len(sources)), key=lambda j: -len(sources[j]))
    lengths = np.array([len(sources[j]) for j in order])
    sizes = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1).tolist()
    starts = np.cumsum(sizes) - sizes
    rows = [starts[:n] + j for j, n in enumerate(lengths)]  # each source's packed rows
    ids, rev = np.empty(sum(sizes), dtype=np.int64), np.empty(sum(sizes), dtype=np.int64)
    for j, r in zip(order, rows):
        ids[r], rev[r] = sources[j], r[::-1]
    zeros = Tensor(np.zeros((len(sources), hyper.hidden)))
    fw, bw = _bilstm(nm.index(params["E"], ids), params, 1, zeros, sizes, rev)
    l1_out = nm.concat([_hidden(fw), nm.index(_hidden(bw), rev)], axis=1)
    fw, bw = _bilstm(l1_out, params, 2, zeros, sizes, rev)
    # H holds each source's rows in order, one source after another
    by_source = np.concatenate(rows)
    H = nm.concat([nm.index(_hidden(fw), by_source),
                   nm.index(_hidden(bw), rev[by_source])], axis=1)
    # [fw; bw] final states: both sit at each source's last packed row
    final = [nm.index(out, [r[-1] for r in rows]) for out in (fw, bw)]
    summary_h, summary_c = (nm.concat([nm.index(f, (slice(None), k)) for f in final], axis=-1)
                            for k in (0, 1))
    s0_h = nm.tanh(nm.linear(summary_h, params["W_b"], params["b_b"]))
    s0_c = nm.tanh(nm.linear(summary_c, params["W_b"], params["b_b"]))
    keys = nm.linear(H, params["W_eh"]) if hyper.attention else None
    encs, ends = [None] * len(sources), np.cumsum(lengths)
    for j, (src, end) in enumerate(zip(order, ends)):
        own = slice(end - lengths[j], end)
        encs[src] = EncoderOutput(H=nm.index(H, own), s0=(nm.index(s0_h, j), nm.index(s0_c, j)),
                                  summary=nm.index(summary_h, j),
                                  keys=None if keys is None else nm.index(keys, own))
    return encs


def encode(base_ids, params, hyper):
    """EncoderOutput for one source id sequence: a batch of one."""
    return encode_batch([base_ids], params, hyper)[0]


def attention_step(s_t, H, keys, cov, params):
    """(a_t, c_t) of decoder state rows ``s_t`` (k, h): attention rows
    (k, M), each a softmax over the source rows of H and one graph node
    with its scores, and the weighted contexts (k, 2h). ``keys`` are H·W_ehᵀ
    as ``encode`` computes them once per source. ``cov`` (k, M) holds the
    coverage rows; None drops the coverage term."""
    query = nm.linear(s_t, params["W_sh"], params["b_att"])
    a = nm.attention_weights(query, keys, cov, params["W_cv"], params["v"])
    c = nm.matmul(a, H)
    return a, c


def decode_step(y_prev_id, state, enc, cov, ext_ids, ev, params, hyper, output=True):
    """One decoder timestep of k rows: k base-vocab ids with (k, h) state
    rows and (k, M) coverage rows (None without coverage: only coverage
    models carry them), all stepped at once. A previous output from the
    extended vocabulary must come in as UNK: the callers map it
    (``sequence_loss`` and the decoder's stepper), and an id >= V raises
    IndexError. One id with (h,) state and (M,) coverage is stepped as a
    row of one, and the step comes back without the row axis. With
    ``output=False`` the step leaves out the output distribution (``p_cg``
    and ``p_star`` are None): ``sequence_loss`` projects all of a title's
    steps at once instead."""
    if np.ndim(y_prev_id):
        return _step_rows(y_prev_id, state, enc, cov, ext_ids, ev, params, hyper, output)
    step = _step_rows([y_prev_id], tuple(nm.index(s, None) for s in state), enc,
                      _index(cov, None), ext_ids, ev, params, hyper, output)
    return DecoderStep(state=tuple(nm.index(s, 0) for s in step.state), a=_index(step.a, 0),
                       cov=cov, cov_next=_index(step.cov_next, 0),
                       context=_index(step.context, 0) if hyper.attention else enc.summary,
                       p_cg=_index(step.p_cg, 0), p_star=_index(step.p_star, 0))


def _index(t, key):
    return None if t is None else nm.index(t, key)


def _step_rows(y_prev_ids, state, enc, cov, ext_ids, ev, params, hyper, output):
    """``decode_step`` of k rows."""
    vocab_size = params["E"].data.shape[0]
    ids = np.asarray(y_prev_ids)
    if ids.ndim != 1 or not ids.size or not all(0 <= i < vocab_size for i in ids):
        raise IndexError(f"previous-output id {y_prev_ids} outside base vocab")
    x = nm.index(params["E"], ids)
    out = nm.lstm_seq(x, state[0], state[1], params["dec_W"], params["dec_U"],
                      params["dec_b"], sizes=[len(ids)])
    h, c_state = (nm.index(out, (slice(None), k)) for k in (0, 1))

    if hyper.attention:
        a, ctx = attention_step(h, enc.H, enc.keys, cov if hyper.coverage else None, params)
        cov_next = nm.add_n([cov, a]) if cov is not None else None
    else:
        a, ctx, cov_next = None, enc.summary, cov

    p_cg, p_star = None, None
    if output:
        p_cg, p_star = _output_dist(h, ctx, x if hyper.copy else None, a, ext_ids, len(ev),
                                    params, hyper)
    return DecoderStep(state=(h, c_state), a=a, cov=cov, cov_next=cov_next,
                       context=ctx, p_cg=p_cg, p_star=p_star)


def _output_dist(h, ctx, x, a, ext_ids, ext_size, params, hyper):
    """(copy gate, distribution over the extended vocabulary) of decoder
    state rows ``h``, one per step or hypothesis, with context rows ``ctx``
    (or one context for every row), input embedding rows ``x`` and
    attention rows ``a``."""
    rows = nm.concat([h, ctx], axis=-1)
    if not hyper.copy:
        return None, nm.output_dist(rows, params["W_v"], params["b_v"], ext_size)
    p_cg = nm.sigmoid(nm.add_n([nm.matmul(ctx, params["w_c"]), nm.matmul(h, params["w_s"]),
                                nm.matmul(x, params["w_x"]), params["b_cg"]]))
    return p_cg, nm.output_dist(rows, params["W_v"], params["b_v"], ext_size, p_cg, a, ext_ids)


def _to_base(idx, vocab_size):
    return idx if idx < vocab_size else UNK


def sequence_loss(example, params, hyper, enc=None):
    """Teacher-forced loss for one encoded pair.

    Returns (loss Tensor, per-token log-probabilities as floats). The loss
    is mean negative log-likelihood of the extended distribution plus, in a
    coverage model (the only kind that carries coverage), lambda_cov / T
    times sum_t sum_i min(a_t,i, cov_t,i), one term per title. ``enc`` is
    the pair's EncoderOutput from ``encode_batch``; None encodes it alone.
    The decoder steps a row of one per target token; the output
    distributions of all steps come from one projection.
    """
    target = example.target_ids
    if not target:
        raise ValueError("sequence_loss: empty target")
    vocab_size = params["E"].data.shape[0]
    ext_size = vocab_size + len(example.ev.oov_tokens)
    for idx in target:
        if not 0 <= idx < ext_size:
            raise IndexError(f"target id {idx} outside extended range [0, {ext_size})")

    if enc is None:
        enc = encode(example.base_ids, params, hyper)
    state = tuple(nm.index(s, None) for s in enc.s0)
    cov = Tensor(np.zeros((1, len(example.base_ids)))) if hyper.coverage else None
    feed = [START] + [_to_base(y, vocab_size) for y in target[:-1]]

    hs, ctxs, attns, covs = [], [], [], []
    for y_prev in feed:
        step = decode_step([y_prev], state, enc, cov, example.ext_ids,
                           example.ev, params, hyper, output=False)
        hs.append(step.state[0])
        ctxs.append(step.context)
        attns.append(step.a)
        covs.append(step.cov)
        state, cov = step.state, step.cov_next

    t_len = len(target)
    _, p_star = _output_dist(nm.concat(hs), nm.concat(ctxs) if hyper.attention else enc.summary,
                             nm.index(params["E"], feed) if hyper.copy else None,
                             nm.concat(attns) if hyper.copy else None,
                             example.ext_ids, ext_size, params, hyper)
    logp = nm.log(nm.index(p_star, (np.arange(t_len), target)), LOGPROB_FLOOR)
    loss = nm.scale(nm.sum_all(logp), -1.0 / t_len)
    if hyper.coverage and hyper.lambda_cov > 0:
        penalty = nm.sum_all(nm.minimum(nm.concat(attns), nm.concat(covs)))
        loss = nm.add_n([loss, nm.scale(penalty, hyper.lambda_cov / t_len)])
    return loss, logp.data.tolist()


def encode_example(pair, vocab):
    """EncodedExample from a QCPair."""
    from .vocab import encode_source, encode_target
    base_ids, ext_ids, ev = encode_source(pair.code_tokens, vocab)
    target_ids = encode_target(pair.title_tokens, vocab, ev)
    return EncodedExample(id=pair.id, base_ids=base_ids, ext_ids=ext_ids,
                          ev=ev, target_ids=target_ids)
