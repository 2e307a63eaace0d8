"""TF-IDF retrieval baseline, embedding-sum code similarity, clone-detection
dedup of the test set, and top-k similar-question lookup."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

BUCKET_LABELS = ("[0.0,0.2)", "[0.2,0.4)", "[0.4,0.6)", "[0.6,0.8)", "[0.8,1.0]")


@dataclass
class RetrievedTitle:
    matched: bool
    doc_id: int | None = None
    title: list | None = None
    score: float = 0.0


class TfidfIndex:
    """Bag-of-words index over code tokens with smoothed idf
    (ln((N+1)/(df+1)) + 1) and L2-normalized vectors, kept as postings: term
    j occurs in rows[a:b] with weights[a:b], where a, b = indptr[j:j + 2]."""

    def __init__(self, docs):
        """``docs`` is a list of (id, code_tokens, title_tokens). Rows are in
        id order; documents with equal ids keep their given order."""
        if not docs:
            raise ValueError("TfidfIndex: no documents")
        docs = sorted(docs, key=lambda doc: doc[0])
        self.n_docs = n = len(docs)
        self.doc_ids = [doc_id for doc_id, _, _ in docs]
        self.titles = [title for _, _, title in docs]
        codes = [code for _, code, _ in docs]
        self.term_ids = {t: j for j, t in enumerate(dict.fromkeys(chain.from_iterable(codes)))}
        n_terms = len(self.term_ids)
        lengths = np.fromiter(map(len, codes), np.intp, n)
        terms = np.fromiter(map(self.term_ids.__getitem__, chain.from_iterable(codes)),
                            np.intp, int(lengths.sum()))
        # one entry per (term, row) pair, in postings order (by term, then
        # row), with its term frequency
        keys, tf = np.unique(terms * n + np.repeat(np.arange(n), lengths), return_counts=True)
        term, row = np.divmod(keys, n)
        df = np.bincount(term, minlength=n_terms)
        self.idf = {t: math.log((n + 1) / (c + 1)) + 1.0
                    for t, c in zip(self.term_ids, df.tolist())}
        w = tf * np.fromiter(self.idf.values(), np.float64, n_terms)[term]
        self.rows = row
        # bincount adds in input order, so each row's squares add by ascending term id
        self.weights = w / np.sqrt(np.bincount(row, w * w, minlength=n))[row]
        self.indptr = np.concatenate(([0], np.cumsum(df)))

    def _vectorize(self, tokens):
        tf = Counter(t for t in tokens if t in self.idf)
        vec = {t: c * self.idf[t] for t, c in tf.items()}
        norm = 0.0
        # by term id, as the index's bincount adds; sum() compensates on 3.12+
        for t in sorted(vec, key=self.term_ids.__getitem__):
            norm += vec[t] * vec[t]
        norm = math.sqrt(norm)
        return {t: w / norm for t, w in vec.items()}

    def query(self, tokens):
        """Title of the nearest document by TF-IDF cosine; ties go to the
        lowest document id; no-match when no query token is indexed."""
        qvec = self._vectorize(tokens)
        if not qvec:
            return RetrievedTitle(matched=False)
        scores = np.zeros(self.n_docs)
        for t, w in qvec.items():
            j = self.term_ids[t]
            s = slice(self.indptr[j], self.indptr[j + 1])
            scores[self.rows[s]] += w * self.weights[s]
        best = int(np.argmax(scores))  # the first of equal scores: the lowest id
        return RetrievedTitle(matched=True, doc_id=self.doc_ids[best],
                              title=self.titles[best], score=float(scores[best]))


@dataclass
class CodeEmbedding:
    vector: np.ndarray
    zero: bool  # all tokens OOV / zero-sum: similarity undefined


def _embed_into(row, rows, normalize):
    """Sum ``rows`` (a snippet's embedding rows, in token order) into the
    float64 ``row``, normalized unless the norm is 0; returns the norm."""
    np.add.reduce(rows, axis=0, out=row)
    norm = math.sqrt(row.dot(row))
    if normalize and norm != 0.0:
        row /= norm
    return norm


def embed_code(code_tokens, E, vocab, normalize=True):
    """Sum of embedding rows for in-vocab tokens, L2-normalized by default."""
    ids = [i for i in map(vocab.token_to_id.get, code_tokens) if i is not None]
    E = np.asarray(E)
    row = np.empty(E.shape[1])
    return CodeEmbedding(row, zero=_embed_into(row, E.take(ids, axis=0), normalize) == 0.0)


def _similarities(rows, vector):
    """1 − the Euclidean distance of ``vector`` to each of ``rows``."""
    d = rows - vector
    np.multiply(d, d, out=d)
    return 1.0 - np.sqrt(d.sum(axis=1))


def code_similarity(c1, c2):
    """1 - Euclidean distance of the two embeddings, as a corpus row's."""
    if c1.zero or c2.zero:
        raise ValueError("code_similarity: zero-flagged embedding (all tokens OOV)")
    return float(_similarities(c1.vector[None], c2.vector)[0])


@dataclass
class DedupReport:
    buckets: dict
    removed: int
    kept: int
    delta: float
    unembeddable: int = 0


def _bucket(sim):
    # negatives (possible on the unit sphere) clamp into the first bucket
    s = max(0.0, sim)
    if s >= 0.8:
        return BUCKET_LABELS[4]
    return BUCKET_LABELS[int(s / 0.2)]


@dataclass
class EmbeddedCorpus:
    """The pairs of a corpus that have an embedding, their embeddings kept as
    the rows of one matrix, with each row's squared norm and each pair's id,
    for many queries, and the ``E``, ``vocab`` and ``normalize`` it was built with."""
    pairs: list
    matrix: np.ndarray
    E: np.ndarray
    vocab: object
    normalize: bool
    sq: np.ndarray = field(init=False)
    ids: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sq = np.einsum("ij,ij->i", self.matrix, self.matrix)
        self.ids = np.array([p.id for p in self.pairs])

    def similarities(self, vector, rows=slice(None)):
        """code_similarity of a query embedding vector to each pair, by rows
        (or to the pairs at ``rows``: a row's value does not depend on which
        other rows are scored)."""
        return _similarities(self.matrix[rows], vector)


def embed_corpus(pairs, E, vocab, normalize=True):
    """EmbeddedCorpus of ``pairs``; each row is bit for bit embed_code's
    vector, summed and normalized in place in the corpus matrix."""
    E64 = np.asarray(E, dtype=np.float64)
    M = np.empty((len(pairs), E64.shape[1]))
    kept = []
    for start in range(0, len(pairs), 1000):
        chunk = pairs[start:start + 1000]
        ids = np.fromiter(map(vocab.token_to_id.get,  # -1 for an OOV token
                              chain.from_iterable(p.code_tokens for p in chunk), repeat(-1)),
                          np.intp)
        ends = np.cumsum([len(p.code_tokens) for p in chunk]).tolist()
        for pair, begin, end in zip(chunk, [0] + ends, ends):
            seg = ids[begin:end]
            # a pair with a zero sum is overwritten by the next
            if _embed_into(M[len(kept)], E64.take(seg[seg >= 0], axis=0), normalize) != 0.0:
                kept.append(pair)
    return EmbeddedCorpus(kept, M[:len(kept)], E, vocab, normalize)


def _nearest(corpus, queries, k):
    """(rows, sims) of the k best corpus rows for each query row, by
    (-similarity, id, corpus order), as ``corpus.similarities`` scores them.
    A product gives D = ‖m‖² + ‖q‖² − 2·m·q, within β = 2γ(‖m‖ + ‖q‖)² of
    the row formula (γ = nu/(1 − nu), n = d + 3, u = 2⁻⁵³; 2β is used), so a
    similarity lies in [1 − √(D + β), 1 − √(D − β)]. Only rows whose upper
    end reaches the k-th largest lower end are rescored; NaN rows are kept."""
    M, sq = corpus.matrix, corpus.sq
    norms = np.sqrt(sq)
    nu = (M.shape[1] + 3) * 2.0 ** -53
    scale = 4.0 * nu / (1.0 - nu)
    kth = -min(k, len(M))
    found = []
    for start in range(0, len(queries), 64):  # a (64, N) product at most
        block = queries[start:start + 64]
        for q, dot in zip(block, block @ M.T):
            qq = q.dot(q)
            dist = sq + qq - 2.0 * dot
            beta = norms + math.sqrt(qq)
            beta *= beta
            beta *= scale
            low = 1.0 - np.sqrt(dist + beta)
            high = 1.0 - np.sqrt(np.maximum(dist - beta, 0.0))
            rows = np.flatnonzero(~(high < np.partition(low, kth)[kth]))
            sims = corpus.similarities(q, rows)
            order = np.lexsort((corpus.ids[rows], -sims))[:k]  # stable: corpus order
            found.append((rows[order], sims[order]))
    return found


def dedup_testset(train_pairs, test_pairs, E, vocab, delta=0.8, normalize=True):
    """Remove test snippets whose max similarity to any training snippet is
    >= delta. Returns (clean_test, removed, report)."""
    buckets = {label: 0 for label in BUCKET_LABELS}
    corpus = embed_corpus(train_pairs, E, vocab, normalize)
    if not corpus.pairs:  # nothing to compare with: every test pair stays
        return list(test_pairs), [], DedupReport(buckets, 0, len(test_pairs), delta)
    test = embed_corpus(test_pairs, E, vocab, normalize)
    max_sims = (float(sims[0]) for _, sims in _nearest(corpus, test.matrix, 1))
    embedded = set(map(id, test.pairs))
    clean, removed, unembeddable = [], [], 0
    for pair in test_pairs:
        if id(pair) not in embedded:
            unembeddable += 1
            clean.append(pair)
            continue
        max_sim = next(max_sims)
        buckets[_bucket(max_sim)] += 1
        (removed if max_sim >= delta else clean).append(pair)
    return clean, removed, DedupReport(buckets=buckets, removed=len(removed), kept=len(clean),
                                       delta=delta, unembeddable=unembeddable)


def topk_similar(query_code_tokens, corpus, k):
    """k (title, similarity, id) triples, descending similarity, ties by
    lowest id, from an EmbeddedCorpus made by ``embed_corpus``; the query
    is embedded as the corpus rows were."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = embed_code(query_code_tokens, corpus.E, corpus.vocab, corpus.normalize)
    if query.zero:
        raise ValueError("topk_similar: query has no in-vocabulary tokens")
    if not corpus.pairs:
        return []
    rows, sims = _nearest(corpus, query.vector[None], k)[0]
    return [(corpus.pairs[i].title_tokens, sim, corpus.pairs[i].id)
            for i, sim in zip(rows.tolist(), sims.tolist())]
