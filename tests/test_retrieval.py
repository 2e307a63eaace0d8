import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2q.corpus import QCPair
from c2q.numerics import Rng
from c2q.retrieval import (CodeEmbedding, EmbeddedCorpus, TfidfIndex,
                           code_similarity, dedup_testset, embed_code,
                           embed_corpus, ir_baseline, topk_similar)
from c2q.vocab import build_vocab


def pair(pid, code, title=None):
    return QCPair(id=pid, lang="python", code_tokens=code,
                  title_tokens=title or ["how", "to", str(pid), "?"])


def small_vocab():
    return build_vocab([["a", "b", "c", "d", "e", "f"] * 2], min_freq=0)


def test_ir_self_retrieval():
    docs = [(1, ["a", "b", "c"], ["t1"]), (2, ["d", "e"], ["t2"])]
    index = TfidfIndex(docs)
    result = ir_baseline(["a", "b", "c"], index)
    assert result.matched and result.doc_id == 1
    assert result.score == pytest.approx(1.0)


def test_ir_two_document_hand_example():
    index = TfidfIndex([(1, ["a", "b"], ["t1"]), (2, ["c", "d"], ["t2"])])
    result = ir_baseline(["a"], index)
    assert result.doc_id == 1
    assert result.title == ["t1"]


def test_ir_unseen_tokens_no_match():
    index = TfidfIndex([(1, ["a", "b"], ["t1"])])
    result = ir_baseline(["zzz"], index)
    assert not result.matched


def test_ir_bag_of_words_order_invariant():
    index = TfidfIndex([(1, ["a", "b", "c"], ["t1"]), (2, ["b", "d"], ["t2"])])
    r1 = ir_baseline(["a", "b", "b"], index)
    r2 = ir_baseline(["b", "a", "b"], index)
    assert (r1.doc_id, r1.score) == (r2.doc_id, r2.score)


def test_embed_single_token_is_normalized_row():
    vocab = small_vocab()
    E = Rng(0).uniform(-1, 1, (len(vocab), 8))
    emb = embed_code(["a"], E, vocab)
    row = E[vocab.id_of("a")]
    assert np.allclose(emb.vector, row / np.linalg.norm(row), atol=1e-6)


def test_embed_repeated_token_same_direction():
    vocab = small_vocab()
    E = Rng(0).uniform(-1, 1, (len(vocab), 8))
    one = embed_code(["a"], E, vocab)
    two = embed_code(["a", "a"], E, vocab)
    assert np.allclose(one.vector, two.vector, atol=1e-6)


def test_embed_all_oov_zero_flag():
    vocab = small_vocab()
    E = Rng(0).uniform(-1, 1, (len(vocab), 8))
    assert embed_code(["zzz", "qqq"], E, vocab).zero


def test_similarity_identical_is_one():
    vocab = small_vocab()
    E = Rng(1).uniform(-1, 1, (len(vocab), 8))
    e1 = embed_code(["a", "b"], E, vocab)
    e2 = embed_code(["a", "b"], E, vocab)
    assert code_similarity(e1, e2) == pytest.approx(1.0)


def test_similarity_orthogonal_unit_vectors():
    e1 = CodeEmbedding(np.array([1.0, 0.0]), zero=False)
    e2 = CodeEmbedding(np.array([0.0, 1.0]), zero=False)
    assert code_similarity(e1, e2) == pytest.approx(1 - math.sqrt(2), abs=1e-6)


def test_similarity_antipodal():
    e1 = CodeEmbedding(np.array([1.0, 0.0]), zero=False)
    e2 = CodeEmbedding(np.array([-1.0, 0.0]), zero=False)
    assert code_similarity(e1, e2) == pytest.approx(-1.0)


def test_similarity_zero_flag_errors():
    good = CodeEmbedding(np.array([1.0, 0.0]), zero=False)
    bad = CodeEmbedding(np.zeros(2), zero=True)
    with pytest.raises(ValueError, match="zero-flag"):
        code_similarity(good, bad)


def test_similarity_symmetric():
    vocab = small_vocab()
    E = Rng(2).uniform(-1, 1, (len(vocab), 8))
    e1 = embed_code(["a", "b"], E, vocab)
    e2 = embed_code(["c", "d"], E, vocab)
    assert code_similarity(e1, e2) == pytest.approx(code_similarity(e2, e1))


def test_dedup_removes_exact_duplicate():
    vocab = small_vocab()
    E = Rng(3).uniform(-1, 1, (len(vocab), 8))
    train = [pair(1, ["a", "b", "c"]), pair(2, ["d", "e"])]
    test = [pair(10, ["a", "b", "c"]), pair(11, ["f", "f", "e"])]
    clean, removed, report = dedup_testset(train, test, E, vocab, delta=0.8)
    assert [p.id for p in removed] == [10]
    assert report.removed == 1
    assert report.kept == 1
    assert sum(report.buckets.values()) == len(test)
    assert {p.id for p in clean} | {p.id for p in removed} == {10, 11}


def test_dedup_strict_threshold_boundary():
    vocab = small_vocab()
    E = Rng(4).uniform(-1, 1, (len(vocab), 8))
    train = [pair(1, ["a", "b"])]
    test = [pair(10, ["a", "b", "c"])]
    sim = code_similarity(embed_code(["a", "b"], E, vocab),
                          embed_code(["a", "b", "c"], E, vocab))
    assert sim < 1.0
    clean, removed, _ = dedup_testset(train, test, E, vocab, delta=1.0)
    assert removed == []
    assert len(clean) == 1


def test_dedup_empty_train_keeps_all():
    vocab = small_vocab()
    E = Rng(5).uniform(-1, 1, (len(vocab), 8))
    test = [pair(10, ["a"]), pair(11, ["b"])]
    clean, removed, report = dedup_testset([], test, E, vocab, delta=0.8)
    assert len(clean) == 2 and removed == []
    assert sum(report.buckets.values()) == 0


def test_topk_self_query_first():
    vocab = small_vocab()
    E = Rng(6).uniform(-1, 1, (len(vocab), 8))
    corpus_pairs = [pair(1, ["a", "b"]), pair(2, ["c", "d"]), pair(3, ["e", "f"])]
    results = topk_similar(["a", "b"], corpus_pairs, E, vocab, k=1)
    assert len(results) == 1
    title, sim, doc_id = results[0]
    assert doc_id == 1
    assert sim == pytest.approx(1.0)


def test_topk_larger_than_corpus():
    vocab = small_vocab()
    E = Rng(7).uniform(-1, 1, (len(vocab), 8))
    corpus_pairs = [pair(1, ["a"]), pair(2, ["b"])]
    results = topk_similar(["a"], corpus_pairs, E, vocab, k=10)
    assert len(results) == 2
    assert results[0][1] >= results[1][1]


def test_topk_matches_hand_ranking():
    vocab = small_vocab()
    E = Rng(8).uniform(-1, 1, (len(vocab), 8))
    corpus_pairs = [pair(1, ["a", "b"]), pair(2, ["c", "d"]), pair(3, ["a", "c"])]
    query = ["a", "b"]
    qe = embed_code(query, E, vocab)
    expected = sorted(
        [(code_similarity(qe, embed_code(p.code_tokens, E, vocab)), p.id)
         for p in corpus_pairs], key=lambda t: (-t[0], t[1]))
    results = topk_similar(query, corpus_pairs, E, vocab, k=3)
    assert [(r[2]) for r in results] == [pid for _, pid in expected]
    for r, (sim, _) in zip(results, expected):
        assert r[1] == pytest.approx(sim)


# Property tests. "zzz" is indexed by TF-IDF but is not in small_vocab().
TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "f", "zzz"])


@st.composite
def corpora(draw):
    """(id, code, title) documents listed in descending id order, some of
    them repeated under a lower id, so ties must go to the lower id."""
    codes = draw(st.lists(st.lists(TOKENS, max_size=8), min_size=1, max_size=12))
    codes += [codes[i] for i in draw(st.lists(st.integers(0, len(codes) - 1),
                                              max_size=4))]
    return [(len(codes) - i, code, [f"t{i}"]) for i, code in enumerate(codes)]


def _scan(index, docs, tokens):
    """(doc_id, score) by scoring every document vector in turn: the oracle."""
    qvec = index._vectorize(tokens)
    best_id, best_score = None, -1.0
    for doc_id, code, _ in docs:
        vec = index._vectorize(code)
        score = sum(w * vec.get(t, 0.0) for t, w in qvec.items())
        if score > best_score or (score == best_score and
                                  (best_id is None or doc_id < best_id)):
            best_id, best_score = doc_id, score
    return best_id, best_score


@settings(max_examples=200, deadline=None)
@given(docs=corpora(), query=st.lists(TOKENS, max_size=8))
def test_tfidf_query_matches_per_document_scan(docs, query):
    index = TfidfIndex(docs)
    result = index.query(query)
    assert result.matched == bool(index._vectorize(query))
    if result.matched:
        assert (result.doc_id, result.score) == _scan(index, docs, query)
        assert result.title == dict((d[0], d[2]) for d in docs)[result.doc_id]


# Snippets are sorted sets of tokens, so two snippets with equal
# similarities have bit-identical embeddings. Equal multisets summed in
# different orders can differ in the last bit, and the two distance forms
# compared here may then order them differently.
SNIPPETS = st.sets(TOKENS, min_size=1, max_size=5).map(sorted)


@settings(max_examples=100, deadline=None)
@given(codes=st.lists(SNIPPETS, min_size=1, max_size=10), dups=st.integers(0, 3),
       query=SNIPPETS, k=st.integers(1, 14), seed=st.integers(0, 1000),
       normalize=st.booleans())
def test_topk_ids_match_sorting_by_code_similarity(codes, dups, query, k, seed,
                                                   normalize):
    vocab = small_vocab()
    E = Rng(seed).uniform(-1, 1, (len(vocab), 8))
    codes = codes + codes[:dups]
    corpus_pairs = [pair(len(codes) - i, code) for i, code in enumerate(codes)]
    qe = embed_code(query, E, vocab, normalize)
    if qe.zero:
        with pytest.raises(ValueError):
            topk_similar(query, corpus_pairs, E, vocab, k, normalize)
        return
    expected = sorted((-code_similarity(qe, emb), p.id) for p in corpus_pairs
                      if not (emb := embed_code(p.code_tokens, E, vocab, normalize)).zero)
    results = topk_similar(query, corpus_pairs, E, vocab, k, normalize)
    assert [doc_id for _, _, doc_id in results] == [pid for _, pid in expected[:k]]
    assert topk_similar(query, embed_corpus(corpus_pairs, E, vocab, normalize),
                        E, vocab, k, normalize) == results
    for (_, sim, _), (neg_sim, _) in zip(results, expected):
        assert abs(sim + neg_sim) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(codes=st.lists(st.lists(st.sampled_from(["zzz", "qqq"]), max_size=4), max_size=6),
       k=st.integers(1, 5))
def test_topk_corpus_without_embeddings_is_empty(codes, k):
    vocab = small_vocab()
    E = Rng(9).uniform(-1, 1, (len(vocab), 8))
    corpus_pairs = [pair(i, code) for i, code in enumerate(codes)]
    assert topk_similar(["a"], corpus_pairs, E, vocab, k) == []


def test_corpus_similarities_equal_numpy_norm_bitwise():
    rng = Rng(4)
    M = rng.uniform(-1, 1, (500, 37)).astype(np.float64)
    q = CodeEmbedding(rng.uniform(-1, 1, 37).astype(np.float64), zero=False)
    sims = EmbeddedCorpus([], M).similarities(q)
    assert np.array_equal(sims, 1.0 - np.linalg.norm(M - q.vector, axis=1))
