import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2q.corpus import QCPair
from c2q.numerics import Rng, use_dtype
from c2q.retrieval import (BUCKET_LABELS, CodeEmbedding, EmbeddedCorpus,
                           TfidfIndex, _bucket, _nearest, code_similarity,
                           dedup_testset,
                           embed_code, embed_corpus, topk_similar)
from c2q.vocab import build_vocab


def pair(pid, code, title=None):
    return QCPair(id=pid, lang="python", code_tokens=code,
                  title_tokens=title or ["how", "to", str(pid), "?"])


def small_vocab():
    return build_vocab([["a", "b", "c", "d", "e", "f"] * 2], min_freq=0)


def test_ir_self_retrieval():
    docs = [(1, ["a", "b", "c"], ["t1"]), (2, ["d", "e"], ["t2"])]
    index = TfidfIndex(docs)
    result = index.query(["a", "b", "c"])
    assert result.matched and result.doc_id == 1
    assert result.score == pytest.approx(1.0)


def test_ir_two_document_hand_example():
    index = TfidfIndex([(1, ["a", "b"], ["t1"]), (2, ["c", "d"], ["t2"])])
    result = index.query(["a"])
    assert result.doc_id == 1
    assert result.title == ["t1"]


def test_ir_unseen_tokens_no_match():
    index = TfidfIndex([(1, ["a", "b"], ["t1"])])
    result = index.query(["zzz"])
    assert not result.matched


def test_ir_bag_of_words_order_invariant():
    index = TfidfIndex([(1, ["a", "b", "c"], ["t1"]), (2, ["b", "d"], ["t2"])])
    r1 = index.query(["a", "b", "b"])
    r2 = index.query(["b", "a", "b"])
    assert (r1.doc_id, r1.score) == (r2.doc_id, r2.score)


def test_embed_single_token_is_normalized_row():
    vocab = small_vocab()
    E = Rng(0).uniform(-1, 1, (len(vocab), 8))
    emb = embed_code(["a"], E, vocab)
    row = E[vocab.token_to_id["a"]]
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
    results = topk_similar(["a", "b"], embed_corpus(corpus_pairs, E, vocab), k=1)
    assert len(results) == 1
    title, sim, doc_id = results[0]
    assert doc_id == 1
    assert sim == pytest.approx(1.0)


def test_topk_larger_than_corpus():
    vocab = small_vocab()
    E = Rng(7).uniform(-1, 1, (len(vocab), 8))
    corpus_pairs = [pair(1, ["a"]), pair(2, ["b"])]
    results = topk_similar(["a"], embed_corpus(corpus_pairs, E, vocab), k=10)
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
    results = topk_similar(query, embed_corpus(corpus_pairs, E, vocab), k=3)
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
    corpus = embed_corpus(corpus_pairs, E, vocab, normalize)
    if qe.zero:
        with pytest.raises(ValueError):
            topk_similar(query, corpus, k)
        return
    expected = sorted((-code_similarity(qe, emb), p.id) for p in corpus_pairs
                      if not (emb := embed_code(p.code_tokens, E, vocab, normalize)).zero)
    results = topk_similar(query, corpus, k)
    assert [doc_id for _, _, doc_id in results] == [pid for _, pid in expected[:k]]
    for (_, sim, _), (neg_sim, _) in zip(results, expected):
        assert abs(sim + neg_sim) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(codes=st.lists(st.lists(st.sampled_from(["zzz", "qqq"]), max_size=4), max_size=6),
       k=st.integers(1, 5))
def test_topk_corpus_without_embeddings_is_empty(codes, k):
    vocab = small_vocab()
    E = Rng(9).uniform(-1, 1, (len(vocab), 8))
    corpus_pairs = [pair(i, code) for i, code in enumerate(codes)]
    assert topk_similar(["a"], embed_corpus(corpus_pairs, E, vocab), k) == []


def test_corpus_similarities_equal_numpy_norm_bitwise():
    rng = Rng(4)
    M = rng.uniform(-1, 1, (500, 37)).astype(np.float64)
    q = CodeEmbedding(rng.uniform(-1, 1, 37).astype(np.float64), zero=False)
    sims = EmbeddedCorpus([], M, None, None, True).similarities(q.vector)
    assert np.array_equal(sims, 1.0 - np.linalg.norm(M - q.vector, axis=1))


@pytest.mark.parametrize("d", [8, 37, 300])
def test_code_similarity_equals_corpus_similarities_bitwise(d):
    # unit and raw vectors alike: one formula scores a pair and a corpus row
    rng = np.random.default_rng(d)
    M = rng.standard_normal((500, d)) * rng.uniform(0.01, 10.0, (500, 1))
    M[:250] /= np.linalg.norm(M[:250], axis=1, keepdims=True)
    q = M[-1] + rng.standard_normal(d) * 0.1
    sims = EmbeddedCorpus([], M, None, None, True).similarities(q)
    query = CodeEmbedding(q, zero=False)
    got = [code_similarity(CodeEmbedding(row, zero=False), query) for row in M]
    assert np.array(got).tobytes() == sims.tobytes()
    assert [code_similarity(query, CodeEmbedding(row, zero=False)) for row in M] == got


def test_duplicate_ids_keep_their_own_titles():
    index = TfidfIndex([(5, ["a", "b"], ["first"]), (5, ["c", "d"], ["second"])])
    assert index.query(["a", "b"]).title == ["first"]
    assert index.query(["c", "d"]).title == ["second"]


def _assert_postings_match_vectorize(index, docs):
    """Every posting weight equals _vectorize of its document, bit for bit,
    and each term's rows are exactly the documents holding it, ascending."""
    assert index.indptr[-1] == len(index.rows) == len(index.weights)
    vecs = [index._vectorize(code) for _, code, _ in sorted(docs, key=lambda d: d[0])]
    for t, j in index.term_ids.items():
        a, b = index.indptr[j], index.indptr[j + 1]
        rows = index.rows[a:b].tolist()
        assert rows == [r for r, vec in enumerate(vecs) if t in vec], t
        assert index.weights[a:b].tolist() == [vecs[r][t] for r in rows], t
    assert sum(map(len, vecs)) == len(index.rows)


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(st.tuples(st.integers(-3, 3),
                               st.lists(st.sampled_from("abcdefghijklmnopqrst"), max_size=40),
                               st.just(["t"])), min_size=1, max_size=12))
def test_postings_equal_vectorize(docs):
    _assert_postings_match_vectorize(TfidfIndex(docs), docs)


def _zipf_docs(n_docs, length, pool, seed):
    p = 1.0 / np.arange(1, pool + 1)
    tokens = np.random.default_rng(seed).choice(pool, size=(n_docs, length), p=p / p.sum())
    return [(i, [f"w{t}" for t in row], [f"t{i}"]) for i, row in enumerate(tokens.tolist())]


@pytest.mark.parametrize("docs", [
    [(1, [], ["t1"]), (2, [], ["t2"])],
    [(1, ["x"] * 50, ["t1"]), (2, ["x", "y"], ["t2"])],
    [(9 - i, list("abcdefghij"[i:] + "abcdefghij"[:i]) * (i + 1), [f"t{i}"])
     for i in range(10)],
    _zipf_docs(200, 60, 400, seed=3),
], ids=["empty", "one-token", "descending-ids", "zipf"])
def test_postings_equal_vectorize_cases(docs):
    index = TfidfIndex(docs)
    _assert_postings_match_vectorize(index, docs)
    assert index.query(["zzz"]).matched is False


# The corpus fast paths against per-pair references. "zzz" is out of
# vocabulary; -0.0 entries in E would show a sum that starts from +0.0.
CODES = st.lists(TOKENS, max_size=8)


def _embedding_matrix(seed, dtype, scale=1.0):
    # drawn in float64: float32 entries sum exactly in float64, in any order
    with use_dtype(np.float64):
        E = Rng(seed).uniform(-1, 1, (len(small_vocab()), 8)) * scale
    E[E < -0.9 * scale] = -0.0
    return E.astype(dtype)


@settings(max_examples=100, deadline=None)
@given(codes=st.lists(CODES, min_size=1, max_size=12), tile=st.booleans(),
       seed=st.integers(0, 1000), normalize=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_embed_corpus_rows_equal_embed_code_bitwise(codes, tile, seed, normalize, dtype):
    if tile:  # more pairs than one chunk of the corpus pass
        codes = codes * (1 + 1100 // len(codes))
    vocab, E = small_vocab(), _embedding_matrix(seed, dtype)
    pairs = [pair(i, code) for i, code in enumerate(codes)]
    embs = [embed_code(p.code_tokens, E, vocab, normalize) for p in pairs]
    corpus = embed_corpus(pairs, E, vocab, normalize)
    assert [p.id for p in corpus.pairs] == [p.id for p, e in zip(pairs, embs) if not e.zero]
    assert corpus.matrix.shape == (len(corpus.pairs), 8)
    assert corpus.matrix.tobytes() == b"".join(e.vector.tobytes() for e in embs if not e.zero)


def _dedup_scan(train, test, E, vocab, delta, normalize):
    """(clean ids, removed ids, report dict, max similarities) from every
    training embedding, scanned for each test pair: the reference."""
    rows = [e.vector for p in train
            if not (e := embed_code(p.code_tokens, E, vocab, normalize)).zero]
    buckets = {label: 0 for label in BUCKET_LABELS}
    clean, removed, sims, unembeddable = [], [], [], 0
    for p in test:
        q = embed_code(p.code_tokens, E, vocab, normalize)
        if not rows or q.zero:  # unembeddable only against a non-empty corpus
            unembeddable += bool(rows)
            clean.append(p.id)
            continue
        max_sim = float(np.max(1.0 - np.linalg.norm(np.array(rows) - q.vector, axis=1)))
        sims.append(max_sim)
        buckets[_bucket(max_sim)] += 1
        (removed if max_sim >= delta else clean).append(p.id)
    report = {"buckets": buckets, "removed": len(removed), "kept": len(clean),
              "delta": delta, "unembeddable": unembeddable}
    return clean, removed, report, sims


@st.composite
def dedup_cases(draw):
    """Training snippets, some of them reordered copies of others (sums
    equal up to rounding), and test snippets that are new, exact copies of
    a training snippet, or its tokens reordered."""
    # three tokens or more, or every order of a snippet sums alike
    train = draw(st.lists(st.one_of(CODES, st.lists(TOKENS, min_size=3, max_size=8)),
                          min_size=1, max_size=12))
    copied = st.sampled_from(train)
    train += draw(st.lists(copied.flatmap(st.permutations), max_size=6))
    test = draw(st.lists(st.one_of(CODES, copied, copied.flatmap(st.permutations)),
                         min_size=1, max_size=10))
    if draw(st.booleans()):  # more test pairs than one product block
        test = test * (1 + 70 // len(test))
    return train, test


@settings(max_examples=150, deadline=None)
@given(case=dedup_cases(), seed=st.integers(0, 1000), normalize=st.booleans(),
       scale=st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]),
       dtype=st.sampled_from([np.float32, np.float64]),
       delta=st.one_of(st.floats(0.0, 1.2), st.integers(0, 100)))
def test_dedup_matches_per_query_scan(case, seed, normalize, scale, dtype, delta):
    vocab, E = small_vocab(), _embedding_matrix(seed, dtype, scale)
    train = [pair(i, code) for i, code in enumerate(case[0])]
    test = [pair(100 + i, code) for i, code in enumerate(case[1])]
    if isinstance(delta, int):  # a reference max_sim: removed, as >= delta
        sims = _dedup_scan(train, test, E, vocab, 0.8, normalize)[3]
        delta = sims[delta % len(sims)] if sims else 0.8
    clean, removed, report = dedup_testset(train, test, E, vocab, delta, normalize)
    want_clean, want_removed, want_report, want_sims = _dedup_scan(train, test, E, vocab,
                                                                   delta, normalize)
    assert [p.id for p in clean] == want_clean
    assert [p.id for p in removed] == want_removed
    assert dataclasses.asdict(report) == want_report
    # the maxima themselves, bit for bit, not only as buckets and removals
    queries = [e for p in test if not (e := embed_code(p.code_tokens, E, vocab, normalize)).zero]
    corpus = embed_corpus(train, E, vocab, normalize)
    if corpus.pairs:
        found = _nearest(corpus, np.array([q.vector for q in queries]), 1)
        assert [float(sims[0]) for _, sims in found] == want_sims


def _topk_scan(corpus_pairs, query, k):
    """(rows, similarities) of the k best corpus rows for one query vector,
    from the row formula 1 − √Σ(m − q)² over every row, ranked by
    (−similarity, id, corpus order): the reference."""
    M = np.array([vector for _, vector in corpus_pairs])
    sims = 1.0 - np.sqrt(((M - query) ** 2).sum(axis=1))
    rows = np.lexsort(([p.id for p, _ in corpus_pairs], -sims))[:k]
    return rows.tolist(), sims[rows].tolist()


@st.composite
def neighbour_cases(draw):
    """Corpus pairs, some of them reordered copies of others (sums equal up
    to rounding) and some exact copies under another id or under the same
    id, and queries that are new, exact copies of a corpus snippet, or its
    tokens reordered. Ids are drawn, so corpus order is not id order."""
    codes = draw(st.lists(st.one_of(CODES, st.lists(TOKENS, min_size=3, max_size=8)),
                          min_size=1, max_size=12))
    copied = st.sampled_from(codes)
    codes += draw(st.lists(st.one_of(copied, copied.flatmap(st.permutations)), max_size=8))
    ids = draw(st.lists(st.integers(0, len(codes)), min_size=len(codes), max_size=len(codes)))
    docs = list(zip(ids, codes))
    docs += draw(st.lists(st.sampled_from(docs), max_size=3))  # same id, same code
    docs = draw(st.permutations(docs))
    queries = draw(st.lists(st.one_of(CODES, copied, copied.flatmap(st.permutations)),
                            min_size=1, max_size=6))
    return [pair(pid, code, [f"t{i}"]) for i, (pid, code) in enumerate(docs)], queries


@settings(max_examples=200, deadline=None)
@given(case=neighbour_cases(), seed=st.integers(0, 1000), normalize=st.booleans(),
       scale=st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]),
       dtype=st.sampled_from([np.float32, np.float64]),
       k=st.integers(1, 30), many=st.booleans())
def test_topk_matches_a_full_row_formula_scan(case, seed, normalize, scale, dtype, k, many):
    corpus_pairs, queries = case
    vocab, E = small_vocab(), _embedding_matrix(seed, dtype, scale)
    embedded = [(p, e.vector) for p in corpus_pairs
                if not (e := embed_code(p.code_tokens, E, vocab, normalize)).zero]
    queries = [(q, e.vector) for q in queries
               if not (e := embed_code(q, E, vocab, normalize)).zero]
    if not embedded or not queries:
        return
    corpus = embed_corpus(corpus_pairs, E, vocab, normalize)
    for q, vector in queries:
        rows, sims = _topk_scan(embedded, vector, k)
        want = [(embedded[i][0].title_tokens, sim, embedded[i][0].id)
                for i, sim in zip(rows, sims)]
        assert topk_similar(q, corpus, k) == want
    vectors = [vector for _, vector in queries]
    if many:  # more queries than one 64-row product block
        vectors = vectors * (1 + 130 // len(vectors))
    found = _nearest(corpus, np.array(vectors), k)
    assert len(found) == len(vectors)
    for (rows, sims), vector in zip(found, vectors):
        assert (rows.tolist(), sims.tolist()) == _topk_scan(embedded, vector, k)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4))
def test_nearest_keeps_rows_whose_similarities_round_alike(seed, k):
    # Rows within about 1e-13 of each other, relative to their norm of
    # 1e-4, and a query at a distance like that norm: distances that the
    # bound tells apart give the same similarity once 1 − √r is rounded, so
    # the lowest id among them must still be found.
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1e-4, 1e-4, 8)
    M = base + rng.uniform(-1e-4, 1e-4, (12, 8)) * 10.0 ** rng.uniform(-14, -11, (12, 1))
    query = base + rng.uniform(-1e-4, 1e-4, 8)
    corpus_pairs = [pair(12 - i, ["a"], [f"t{i}"]) for i in range(12)]
    rows, sims = _nearest(EmbeddedCorpus(corpus_pairs, M, None, None, True), query[None], k)[0]
    assert (rows.tolist(), sims.tolist()) == _topk_scan(list(zip(corpus_pairs, M)), query, k)
