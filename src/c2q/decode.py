"""Beam-search inference from code tokens to question titles. Every live
hypothesis is one row of a single decoder step; greedy decoding is beam
search with k=1, one row."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import LOGPROB_FLOOR, MAX_DECODE_LEN, decode_step, encode
from .numerics import Tensor
from .vocab import END, START, UNK, UNK_TOKEN, decode_ids, encode_source


@dataclass
class Hypothesis:
    token_ids: list            # extended ids emitted so far (no START)
    logprob: float
    state: object              # decoder (hidden, cell) rows
    cov: object                # coverage row; None without coverage
    finished: bool = False
    attn: list = field(default_factory=list)  # one np array per emitted token


@dataclass
class DecodedResult:
    tokens: list
    score: float               # length-normalized log-probability
    logprob: float
    token_ids: list
    attn: list


def _model_stepper(code_tokens, params, vocab, hyper):
    """(stepper, start state, start coverage, ev). The stepper runs every
    live hypothesis as one row of a single ``decode_step``."""
    base_ids, ext_ids, ev = encode_source(code_tokens, vocab)
    enc = encode(base_ids, params, hyper)
    vocab_size = len(vocab)
    cov0 = np.zeros(len(base_ids)) if hyper.coverage else None

    def stepper(prev_ext_ids, states, covs):
        prev = np.array(prev_ext_ids)
        prev[prev >= vocab_size] = UNK  # extended outputs are fed back as UNK
        # the parents' rows as fresh leaves, so no graph outlives a step
        state = tuple(Tensor(np.array(part)) for part in zip(*states))
        cov = Tensor(np.array(covs)) if hyper.coverage else None
        step = decode_step(prev, state, enc, cov, ext_ids, ev, params, hyper)
        logp = np.log(np.maximum(step.p_star.data.astype(np.float64), LOGPROB_FLOOR))
        none = [None] * len(prev)
        return (logp, list(zip(step.state[0].data, step.state[1].data)),
                none if cov is None else list(step.cov_next.data),
                none if step.a is None else list(step.a.data))

    stepper.rows = True
    return stepper, tuple(t.data for t in enc.s0), cov0, ev


def _by_row(stepper):
    """A row stepper from one that steps a single hypothesis per call."""
    def step_rows(prevs, states, covs):
        logps, states, covs, attns = zip(*map(stepper, prevs, states, covs))
        return np.stack(logps), states, covs, attns
    return step_rows


def _top_k(logp, k):
    """Indices of the k largest entries, ties to the lower index: the same
    as ``np.argsort(-logp, kind="stable")[:k]`` without sorting the rest."""
    neg = -logp
    if k >= neg.size:
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, k - 1)[k - 1]
    # ~(>) rather than <= keeps NaN entries, which sort last, when kth is NaN
    head = np.flatnonzero(~(neg > kth))
    return head[np.argsort(neg[head], kind="stable")[:k]]


def _rank_key(hyp):
    # higher logprob first; ties by lower first-differing token id
    return (-hyp.logprob, hyp.token_ids)


def _beam(stepper, start_state, start_cov, k, max_len):
    """Beam search from one start state. A row stepper (``stepper.rows``
    true) maps the live hypotheses' previous ids, states and coverages, as
    lists, to (logp rows, states, coverages, attention rows) in one call;
    any other stepper maps one hypothesis per call."""
    if not getattr(stepper, "rows", False):
        stepper = _by_row(stepper)
    live = [Hypothesis([], 0.0, start_state, start_cov)]
    completed = []
    for _ in range(max_len):
        if not live or len(completed) >= k:
            break
        logp, states, covs, attns = stepper(
            [hyp.token_ids[-1] if hyp.token_ids else START for hyp in live],
            [hyp.state for hyp in live], [hyp.cov for hyp in live])
        candidates = []
        for row, hyp in enumerate(live):
            for tid in _top_k(logp[row], k):
                tid = int(tid)
                candidates.append(Hypothesis(
                    token_ids=hyp.token_ids + [tid],
                    logprob=hyp.logprob + float(logp[row, tid]),
                    state=states[row], cov=covs[row],
                    finished=(tid == END),
                    attn=hyp.attn + [attns[row]]))
        candidates.sort(key=_rank_key)
        live = []
        for hyp in candidates[:k]:
            (completed if hyp.finished else live).append(hyp)
    pool = completed + live  # unterminated hypotheses kept, truncated
    pool.sort(key=lambda h: (-(h.logprob / max(1, len(h.token_ids))), h.token_ids))
    return pool


def beam_search(code_tokens, params, vocab, hyper, k=10, max_len=None):
    """Ranked decoded sequences; ranking by length-normalized log-probability.
    Empty ``code_tokens`` raise ValueError in ``encode_source``."""
    if k < 1:
        raise ValueError("beam size must be >= 1")
    if max_len is None:
        max_len = hyper.max_decode_len
    elif not 1 <= max_len <= MAX_DECODE_LEN:
        raise ValueError(f"max_len must be in 1..{MAX_DECODE_LEN}")
    stepper, s0, cov0, ev = _model_stepper(code_tokens, params, vocab, hyper)
    pool = _beam(stepper, s0, cov0, k, max_len)
    results = []
    for hyp in pool:
        tokens = decode_ids(hyp.token_ids, vocab, ev)
        results.append(DecodedResult(tokens=tokens,
                                     score=hyp.logprob / max(1, len(hyp.token_ids)),
                                     logprob=hyp.logprob,
                                     token_ids=list(hyp.token_ids),
                                     attn=list(hyp.attn)))
    return results


def greedy_decode_full(code_tokens, params, vocab, hyper, max_len=None):
    """(tokens, attention records, one per token): beam search with k=1."""
    best = beam_search(code_tokens, params, vocab, hyper, k=1, max_len=max_len)[0]
    return best.tokens, best.attn[:len(best.tokens)]


def greedy_decode(code_tokens, params, vocab, hyper, max_len=None):
    return greedy_decode_full(code_tokens, params, vocab, hyper, max_len)[0]


def resolve_unk(tokens, attn_records, source_tokens):
    """Replace each "<unk>" with the source token holding the most attention
    at that step; for no-copy ablations."""
    if len(attn_records) < len(tokens):
        raise ValueError("resolve_unk: need one attention record per token")
    out = []
    for tok, attn in zip(tokens, attn_records):
        if tok == UNK_TOKEN and attn is not None:
            out.append(source_tokens[int(np.argmax(attn))])
        else:
            out.append(tok)
    return out
