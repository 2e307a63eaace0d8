import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2q.metrics import bleu, lcs_length, rouge_l, rouge_n, score_report
from c2q.numerics import Rng


def test_bleu_perfect_match():
    cand = [["how", "to", "sort", "a", "list"]]
    for n in range(1, 5):
        assert bleu(cand, cand, n) == pytest.approx(1.0)


def test_bleu_brevity_penalty_hand_example():
    score = bleu([["the", "cat"]], [["the", "cat", "sat"]], n=1)
    assert score == pytest.approx(math.exp(1 - 3 / 2), abs=1e-4)
    assert score == pytest.approx(0.6065, abs=1e-4)


def test_bleu_zero_overlap():
    assert bleu([["a", "b"]], [["c", "d"]], n=1) == 0.0


def test_bleu_empty_candidate_counts_in_brevity():
    # the empty candidate adds no matches but its reference still counts in
    # the brevity lengths: p1 = 1/1, BP = exp(1 - 2/1)
    assert bleu([[], ["a"]], [["a"], ["a"]], n=1) == pytest.approx(math.exp(-1))


def test_bleu_permutation_invariant():
    cands = [["a", "b"], ["c", "d", "e"], ["f"]]
    refs = [["a", "x"], ["c", "d", "y"], ["f", "g"]]
    forward = bleu(cands, refs, 2)
    backward = bleu(list(reversed(cands)), list(reversed(refs)), 2)
    assert forward == pytest.approx(backward)


def test_bleu_precision_monotone_in_n():
    cands = [["a", "b", "c", "d"], ["a", "b", "x", "c"]]
    refs = [["a", "b", "c", "d"], ["a", "b", "c", "d"]]
    scores = [bleu(cands, refs, n) for n in range(1, 5)]
    assert scores == sorted(scores, reverse=True)


def test_rouge_n_identical():
    cand = [["a", "b", "c"]]
    score = rouge_n(cand, cand, 1)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_1_half_overlap():
    score = rouge_n([["a", "b"]], [["a", "c"]], 1)
    assert score.precision == pytest.approx(0.5)
    assert score.recall == pytest.approx(0.5)
    assert score.f1 == pytest.approx(0.5)


def test_rouge_2_degenerate_candidate():
    score = rouge_n([["a"]], [["a", "b", "c"]], 2)
    assert score.precision == 0.0
    assert score.f1 == 0.0


def test_rouge_l_identical():
    cand = [["a", "b", "c"]]
    assert rouge_l(cand, cand).f1 == pytest.approx(1.0)


def test_rouge_l_hand_example():
    score = rouge_l([["a", "b", "c", "d"]], [["a", "c", "b", "d"]])
    assert score.precision == pytest.approx(0.75)
    assert score.recall == pytest.approx(0.75)
    assert score.f1 == pytest.approx(0.75)


def test_rouge_l_disjoint():
    assert rouge_l([["a", "b"]], [["x", "y"]]).f1 == 0.0


def _brute_force_lcs(a, b):
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                return r
    return best


def test_lcs_matches_brute_force_enumeration():
    rng = Rng(99)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(500):
        a = [alphabet[rng.integers(0, 4)] for _ in range(rng.integers(0, 9))]
        b = [alphabet[rng.integers(0, 4)] for _ in range(rng.integers(0, 9))]
        assert lcs_length(a, b) == _brute_force_lcs(a, b)


def test_scores_in_unit_interval():
    rng = Rng(7)
    alphabet = ["a", "b", "c", "d", "e"]
    cands, refs = [], []
    for _ in range(20):
        cands.append([alphabet[rng.integers(0, 5)] for _ in range(rng.integers(1, 10))])
        refs.append([alphabet[rng.integers(0, 5)] for _ in range(rng.integers(1, 10))])
    report = score_report(cands, refs)
    for key in ("bleu1", "bleu2", "bleu3", "bleu4"):
        assert 0.0 <= report[key] <= 1.0
    for key in ("rouge1", "rouge2", "rougeL"):
        for v in report[key].values():
            assert 0.0 <= v <= 1.0
    assert report["pairs"] == 20


def test_mismatched_corpus_sizes_error():
    with pytest.raises(ValueError):
        bleu([["a"]], [])


TITLES = st.lists(st.sampled_from(["a", "b", "c", "d", "<unk>"]), max_size=8)


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(TITLES, TITLES), min_size=1, max_size=6))
def test_every_score_in_unit_interval(pairs):
    cands, refs = map(list, zip(*pairs))
    report = score_report(cands, refs)
    scores = [report[f"bleu{n}"] for n in range(1, 5)]
    scores += [v for key in ("rouge1", "rouge2", "rougeL") for v in report[key].values()]
    assert all(0.0 <= v <= 1.0 for v in scores), report


@settings(max_examples=200)
@given(refs=st.lists(TITLES, min_size=1, max_size=6), n=st.integers(1, 4))
def test_bleu_is_one_on_identical_titles(refs, n):
    refs = [r for r in refs if len(r) >= n] or [["a"] * n]
    assert bleu([list(r) for r in refs], refs, n) == 1.0


# The per-order BLEU and ROUGE-N code that the shared n-gram tally replaced,
# kept as the reference: the tally must give the same floats, bit for bit.
def _ref_ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _ref_bp(cand_len, ref_len):
    return 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(1, cand_len))


def _ref_bleu(candidates, references, n):
    cand_len = ref_len = 0
    matches, totals = [0] * n, [0] * n
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for k in range(1, n + 1):
            cgrams, rgrams = _ref_ngrams(cand, k), _ref_ngrams(ref, k)
            matches[k - 1] += sum(min(c, rgrams[g]) for g, c in cgrams.items())
            totals[k - 1] += sum(cgrams.values())
    precisions = []
    for k in range(n):
        if totals[k] == 0 or matches[k] == 0:
            return 0.0
        precisions.append(matches[k] / totals[k])
    return math.exp(sum(math.log(p) for p in precisions) / n) * _ref_bp(cand_len, ref_len)


def _ref_rouge_n(candidates, references, n):
    match = cand_total = ref_total = 0
    for cand, ref in zip(candidates, references):
        cgrams, rgrams = _ref_ngrams(cand, n), _ref_ngrams(ref, n)
        match += sum(min(c, rgrams[g]) for g, c in cgrams.items())
        cand_total += sum(cgrams.values())
        ref_total += sum(rgrams.values())
    p = match / cand_total if cand_total else 0.0
    r = match / ref_total if ref_total else 0.0
    return {"p": p, "r": r, "f": 2 * p * r / (p + r) if (p + r) else 0.0}


@settings(max_examples=400)
@given(pairs=st.lists(st.tuples(TITLES, TITLES), min_size=1, max_size=6),
       n=st.integers(1, 10))
def test_shared_tally_equals_per_order_reference(pairs, n):
    # TITLES draws empty titles, and n runs past the longest title
    cands, refs = map(list, zip(*pairs))
    report = score_report(cands, refs)
    assert report == {**{f"bleu{k}": _ref_bleu(cands, refs, k) for k in range(1, 5)},
                      "rouge1": _ref_rouge_n(cands, refs, 1),
                      "rouge2": _ref_rouge_n(cands, refs, 2),
                      "rougeL": rouge_l(cands, refs).as_dict(), "pairs": len(cands)}
    assert bleu(cands, refs, n) == _ref_bleu(cands, refs, n)
    assert rouge_n(cands, refs, n).as_dict() == _ref_rouge_n(cands, refs, n)
