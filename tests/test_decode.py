import math

import numpy as np
import pytest

from c2q import decode
from c2q.decode import (_beam, _top_k, beam_search, greedy_decode,
                        greedy_decode_full, resolve_unk)
from c2q.model import ABLATION_PRESETS, Hyperparams, init_parameters
from c2q.numerics import Rng
from c2q.vocab import (END, START, UNK_TOKEN, Vocabulary, build_vocab,
                       encode_source)


def make_setup(seed, vocab_tokens=12, ablation="full"):
    tokens = [f"w{i}" for i in range(vocab_tokens)]
    vocab = build_vocab([tokens * 2], min_freq=0)
    hyper = Hyperparams(embed_dim=5, hidden=5,
                        ablation=ABLATION_PRESETS[ablation], max_decode_len=8)
    params = init_parameters(hyper, len(vocab), Rng(seed))
    return vocab, hyper, params


def forced_stepper(sequence, vocab_size):
    """A stepper whose p_star is one-hot along ``sequence`` then END."""
    logp_floor = math.log(1e-12)

    def stepper(prev, state, cov):
        step_index = state
        logp = np.full(vocab_size, logp_floor)
        tid = sequence[step_index] if step_index < len(sequence) else END
        logp[tid] = 0.0
        return logp, step_index + 1, cov, None

    return stepper


class HistoryStepper:
    """Stepper whose state is the emitted-token history tuple."""

    def __init__(self, table, vocab_size):
        self.table = table
        self.vocab_size = vocab_size

    def __call__(self, prev, state, cov):
        hist = state or ()
        if prev != START:
            hist = hist + (prev,)
        dist = self.table[hist]
        logp = np.full(self.vocab_size, math.log(1e-12))
        for tid, prob in dist.items():
            logp[tid] = math.log(prob)
        return logp, hist, cov, None


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
        def stepper(prev, state, cov):
            logp, next_state, cov, _ = forced(prev, state, cov)
            return logp, next_state, cov, np.eye(len(code_tokens))[state]
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
