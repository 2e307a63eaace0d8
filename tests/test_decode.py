import math
import zlib

import numpy as np
import pytest

from c2q import decode
from c2q import numerics as nm
from c2q.decode import (Hypothesis, _beam, _rank_key, _top_k, beam_search,
                        greedy_decode, greedy_decode_full, resolve_unk)
from c2q.model import (ABLATION_PRESETS, LOGPROB_FLOOR, Hyperparams, decode_step,
                       encode, init_parameters)
from c2q.numerics import Rng, Tensor
from c2q.vocab import (END, START, UNK, UNK_TOKEN, Vocabulary, build_vocab,
                       encode_source)


def make_setup(seed, vocab_tokens=12, ablation="full"):
    tokens = [f"w{i}" for i in range(vocab_tokens)]
    vocab = build_vocab([tokens * 2], min_freq=0)
    hyper = Hyperparams(embed_dim=5, hidden=5,
                        ablation=ABLATION_PRESETS[ablation], max_decode_len=8)
    params = init_parameters(hyper, len(vocab), Rng(seed))
    return vocab, hyper, params


def forced_stepper(sequence, vocab_size):
    """A row stepper whose p_star is one-hot along ``sequence`` then END;
    each row's state is its step index."""
    logp_floor = math.log(1e-12)

    def stepper(prevs, states, covs):
        logp = np.full((len(states), vocab_size), logp_floor)
        for row, step_index in enumerate(states):
            logp[row, sequence[step_index] if step_index < len(sequence) else END] = 0.0
        return logp, [s + 1 for s in states], covs, [None] * len(states)

    stepper.rows = True
    return stepper


class HistoryStepper:
    """Row stepper whose state is the emitted-token history tuple."""

    rows = True

    def __init__(self, table, vocab_size):
        self.table = table
        self.vocab_size = vocab_size

    def __call__(self, prevs, states, covs):
        hists = [(state or ()) + ((prev,) if prev != START else ())
                 for prev, state in zip(prevs, states)]
        logp = np.full((len(hists), self.vocab_size), math.log(1e-12))
        for row, hist in enumerate(hists):
            for tid, prob in self.table[hist].items():
                logp[row, tid] = math.log(prob)
        return logp, hists, covs, [None] * len(hists)


def test_beam_empty_input_errors():
    vocab, hyper, params = make_setup(0)
    with pytest.raises(ValueError):
        beam_search([], params, vocab, hyper, k=2)


def test_forced_sequence_any_beam_width():
    seq = [5, 7, 4]
    stepper = forced_stepper(seq, 12)
    for k in (1, 2, 4, 10):
        pool = _beam(stepper, 0, None, k, max_len=8)
        assert pool[0].token_ids == seq + [END]
        assert pool[0].finished


def test_greedy_equals_beam_k1_on_random_models():
    for seed in range(100):
        vocab, hyper, params = make_setup(seed, ablation="full")
        rng = Rng(seed + 1000)
        tokens = [vocab.id_to_token[rng.integers(4, len(vocab))]
                  for _ in range(4)] + [f"rare{seed}"]
        greedy = greedy_decode(tokens, params, vocab, hyper)
        beam = beam_search(tokens, params, vocab, hyper, k=1)
        assert beam[0].tokens == greedy


def test_top_k_matches_stable_argsort():
    for seed in range(200):
        rng = Rng(seed)
        n = rng.integers(1, 40)
        # few distinct values, so most entries tie with another
        logp = np.floor(rng.uniform(0, 4, n)).astype(np.float64)
        if seed % 4 == 0:
            logp[[rng.integers(0, n), rng.integers(0, n)]] = np.nan
        for k in range(1, n + 3):
            assert np.array_equal(_top_k(logp, k),
                                  np.argsort(-logp, kind="stable")[:k]), (seed, k)


def test_greedy_returns_one_attention_record_per_token(monkeypatch):
    vocab, hyper, params = make_setup(0)
    source = ["w4", "w5", "w6", "w7"]
    seq = [5, 7, 4]
    forced = forced_stepper(seq, len(vocab))

    def model_stepper(code_tokens, params, vocab, hyper):
        def stepper(prevs, states, covs):
            logp, next_states, covs, _ = forced(prevs, states, covs)
            return logp, next_states, covs, [np.eye(len(code_tokens))[s] for s in states]
        stepper.rows = True
        return stepper, 0, None, encode_source(code_tokens, vocab)[2]

    monkeypatch.setattr(decode, "_model_stepper", model_stepper)
    # <end> after three tokens; cut off at three tokens; cut off at two
    for max_len, n in ((8, 3), (3, 3), (2, 2)):
        tokens, attns = greedy_decode_full(source, params, vocab, hyper, max_len)
        assert tokens == [vocab.id_to_token[t] for t in seq[:n]]
        assert [int(np.argmax(a)) for a in attns] == list(range(n))


def test_beam_rejects_max_len_below_one():
    vocab, hyper, params = make_setup(0)
    for max_len in (0, -1):
        with pytest.raises(ValueError):
            beam_search(["w4"], params, vocab, hyper, k=2, max_len=max_len)
        with pytest.raises(ValueError):
            greedy_decode_full(["w4"], params, vocab, hyper, max_len)


def test_beam_k2_prefers_globally_better_sequence():
    # step-1 {a: 0.6, b: 0.4}; after a: {END: 0.3, a: 0.7};
    # after b: {END: 0.9, a: 0.1} -> "b END" (0.36) beats "a END" (0.18)
    a, b = 4, 5
    table = {
        (): {a: 0.6, b: 0.4},
        (a,): {END: 0.3, a: 0.7},
        (b,): {END: 0.9, a: 0.1},
        (a, a): {END: 1.0},
        (b, a): {END: 1.0},
    }
    stepper = HistoryStepper(table, 8)
    pool = _beam(stepper, None, None, k=2, max_len=2)
    finished = [h for h in pool if h.finished]
    assert finished[0].token_ids == [b, END]
    assert math.exp(finished[0].logprob) == pytest.approx(0.36, abs=1e-6)
    # greedy (k=1) follows a -> a and never terminates within the budget,
    # so k=2 is needed to find any finished sequence at all here
    greedy_pool = _beam(stepper, None, None, k=1, max_len=2)
    assert greedy_pool[0].token_ids == [a, a]
    assert not greedy_pool[0].finished
    # best finished continuation of the greedy prefix would be "a END" (0.18),
    # strictly worse than the "b END" (0.36) that the wider beam keeps alive
    assert finished[0].logprob > math.log(0.18)


def test_beam_scores_nonincreasing():
    vocab, hyper, params = make_setup(3)
    tokens = ["w4", "w5", "w6", "w7"]
    results = beam_search(tokens, params, vocab, hyper, k=4)
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)


def test_beam_best_logprob_monotone_in_k():
    vocab, hyper, params = make_setup(5)
    tokens = ["w4", "w5", "w6"]
    best = -np.inf
    for k in (1, 2, 4, 10):
        results = beam_search(tokens, params, vocab, hyper, k=k)
        finished = [r for r in results if END in r.token_ids]
        if finished:
            top = max(r.logprob for r in finished)
            assert top >= best - 1e-9
            best = max(best, top)


def test_decoded_output_clean_and_capped():
    for seed in range(10):
        vocab, hyper, params = make_setup(seed)
        tokens = ["w4", "w5", "rare"]
        for r in beam_search(tokens, params, vocab, hyper, k=3):
            assert len(r.tokens) <= hyper.max_decode_len
            for special in ("<start>", "<end>", "<pad>"):
                assert special not in r.tokens


def test_greedy_respects_max_len():
    vocab, hyper, params = make_setup(8)
    out = greedy_decode(["w4", "w5"], params, vocab, hyper, max_len=1)
    assert len(out) <= 1


def test_resolve_unk_identity_without_unk():
    tokens = ["how", "to", "sort"]
    attn = [np.array([0.5, 0.5])] * 3
    assert resolve_unk(tokens, attn, ["a", "b"]) == tokens


def test_resolve_unk_replaces_with_attention_peak():
    tokens = ["use", UNK_TOKEN, "here"]
    attn = [np.array([0.9, 0.1]), np.array([0.2, 0.8]), np.array([0.6, 0.4])]
    assert resolve_unk(tokens, attn, ["foo", "win32gui"]) == \
        ["use", "win32gui", "here"]


def test_resolve_unk_multiple_independent():
    tokens = [UNK_TOKEN, UNK_TOKEN]
    attn = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert resolve_unk(tokens, attn, ["alpha", "beta"]) == ["alpha", "beta"]


def test_no_copy_model_can_only_say_unk_for_oov():
    vocab, hyper, params = make_setup(4, ablation="atten")
    tokens, attns = greedy_decode_full(["w4", "onlyhere", "w5"], params,
                                       vocab, hyper)
    assert "onlyhere" not in tokens
    resolved = resolve_unk(tokens, attns, ["w4", "onlyhere", "w5"])
    assert UNK_TOKEN not in resolved


def _reference_stepper(code_tokens, params, vocab, hyper):
    """The per-hypothesis model stepper: one single-row decode_step per
    hypothesis, carrying each hypothesis's graph-built state."""
    base_ids, ext_ids, ev = encode_source(code_tokens, vocab)
    enc = encode(base_ids, params, hyper)
    cov0 = Tensor(np.zeros(len(base_ids))) if hyper.attention else None

    def stepper(prev_ext_id, state, cov):
        prev_base = prev_ext_id if prev_ext_id < len(vocab) else UNK
        step = decode_step(prev_base, state, enc, cov, ext_ids, ev, params, hyper)
        logp = np.log(np.maximum(step.p_star.data.astype(np.float64), LOGPROB_FLOOR))
        attn = step.a.data.copy() if step.a is not None else None
        return logp, step.state, step.cov_next, attn

    return stepper, enc.s0, cov0


def _reference_beam(stepper, start_state, start_cov, k, max_len):
    """Beam search stepping one hypothesis per model call."""
    live = [Hypothesis([], 0.0, start_state, start_cov)]
    completed = []
    for _ in range(max_len):
        if not live or len(completed) >= k:
            break
        candidates = []
        for hyp in live:
            prev = hyp.token_ids[-1] if hyp.token_ids else START
            logp, state, cov, attn = stepper(prev, hyp.state, hyp.cov)
            for tid in _top_k(logp, k):
                tid = int(tid)
                candidates.append(Hypothesis(
                    token_ids=hyp.token_ids + [tid],
                    logprob=hyp.logprob + float(logp[tid]),
                    state=state, cov=cov,
                    finished=(tid == END),
                    attn=hyp.attn + [attn]))
        candidates.sort(key=_rank_key)
        live = []
        for hyp in candidates[:k]:
            (completed if hyp.finished else live).append(hyp)
    pool = completed + live
    pool.sort(key=lambda h: (-(h.logprob / max(1, len(h.token_ids))), h.token_ids))
    return pool


@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_batched_beam_matches_per_hypothesis_reference(ablation):
    # float64, so a k-row product and k matrix-vector products agree to
    # rounding far below any gap between candidates' log-probabilities
    with nm.use_dtype(np.float64):
        for seed in range(3):
            vocab, hyper, params = make_setup(40 + seed, vocab_tokens=20, ablation=ablation)
            rng = Rng(seed)
            source = [vocab.id_to_token[rng.integers(4, len(vocab))]
                      for _ in range(5)] + ["rare_a", "rare_b"]
            for k in (1, 2, 5, 10):
                stepper, s0, cov0 = _reference_stepper(source, params, vocab, hyper)
                want = _reference_beam(stepper, s0, cov0, k, hyper.max_decode_len)
                got = beam_search(source, params, vocab, hyper, k=k)
                assert [r.token_ids for r in got] == [h.token_ids for h in want]
                for r, h in zip(got, want):
                    assert r.logprob == pytest.approx(h.logprob, rel=1e-12, abs=0)
                    for a, b in zip(r.attn, h.attn):
                        if b is None:
                            assert a is None
                        else:
                            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


class _PrefixStepper:
    """Row stepper with history states; each row's log-probabilities are a
    fixed pseudo-random function of its history, and its attention row
    spells the history out (padded with -1)."""

    rows = True

    def __init__(self, vocab_size, width):
        self.vocab_size, self.width = vocab_size, width

    def __call__(self, prevs, states, covs):
        hists = [(state or ()) + ((prev,) if prev != START else ())
                 for prev, state in zip(prevs, states)]
        logp = np.empty((len(hists), self.vocab_size))
        for row, hist in enumerate(hists):
            seed = zlib.crc32(repr(hist).encode())
            logp[row] = np.log(np.random.default_rng(seed).dirichlet(np.ones(self.vocab_size)))
        attns = [np.array(hist + (-1,) * (self.width - len(hist)), dtype=float)
                 for hist in hists]
        return logp, hists, covs, attns


def test_attention_rows_follow_their_hypothesis(monkeypatch):
    # resolve_unk reads result.attn[t] as the attention that emitted token t;
    # gathering a row from the wrong parent would pair it with another prefix
    vocab, hyper, params = make_setup(0)
    width = hyper.max_decode_len

    def model_stepper(code_tokens, params, vocab, hyper):
        return _PrefixStepper(len(vocab), width), None, None, encode_source(code_tokens, vocab)[2]

    monkeypatch.setattr(decode, "_model_stepper", model_stepper)
    for k in (1, 2, 5):
        results = beam_search(["w4", "w5"], params, vocab, hyper, k=k)
        assert len({tuple(r.token_ids) for r in results}) == len(results) >= min(k, 2)
        for r in results:
            assert len(r.attn) == len(r.token_ids)
            for t, attn in enumerate(r.attn):
                assert list(attn[:t]) == r.token_ids[:t]
                assert (attn[t:] == -1).all()
