"""TF-IDF retrieval baseline, embedding-sum code similarity, clone-detection
dedup of the test set, and top-k similar-question lookup."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

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


def ir_baseline(query_code_tokens, index):
    """Title of the nearest training snippet by TF-IDF cosine; ties go to the
    lowest document id; no-match when no query token is indexed."""
    return index.query(query_code_tokens)


@dataclass
class CodeEmbedding:
    vector: np.ndarray
    zero: bool  # all tokens OOV / zero-sum: similarity undefined


def embed_code(code_tokens, E, vocab, normalize=True):
    """Sum of embedding rows for in-vocab tokens, L2-normalized by default."""
    ids = [i for i in map(vocab.token_to_id.get, code_tokens) if i is not None]
    total = np.asarray(E)[ids].astype(np.float64).sum(axis=0)  # rows in token order
    norm = float(np.linalg.norm(total))
    if norm == 0.0:
        return CodeEmbedding(total, zero=True)
    return CodeEmbedding(total / norm if normalize else total, zero=False)


def code_similarity(c1, c2):
    """1 - Euclidean distance of the two embeddings."""
    if c1.zero or c2.zero:
        raise ValueError("code_similarity: zero-flagged embedding (all tokens OOV)")
    return 1.0 - float(np.linalg.norm(c1.vector - c2.vector))


@dataclass
class DedupReport:
    buckets: dict
    removed: int
    kept: int
    delta: float
    unembeddable: int = 0

    def as_dict(self):
        return {"buckets": dict(self.buckets), "removed": self.removed,
                "kept": self.kept, "delta": self.delta,
                "unembeddable": self.unembeddable}


def _bucket(sim):
    # negatives (possible on the unit sphere) clamp into the first bucket
    s = max(0.0, sim)
    if s >= 0.8:
        return BUCKET_LABELS[4]
    return BUCKET_LABELS[int(s / 0.2)]


@dataclass
class EmbeddedCorpus:
    """The pairs of a corpus that have an embedding, their embeddings kept as
    the rows of one matrix, for many queries."""
    pairs: list
    matrix: np.ndarray

    def similarities(self, query):
        """code_similarity of a query embedding to each pair, by rows."""
        d = self.matrix - query.vector
        np.multiply(d, d, out=d)
        return 1.0 - np.sqrt(d.sum(axis=1))  # the row norms, as np.linalg.norm


def embed_corpus(pairs, E, vocab, normalize=True):
    """EmbeddedCorpus of ``pairs``, each embedded once by embed_code."""
    M = np.empty((len(pairs), np.shape(E)[1]))
    kept = []
    for pair in pairs:
        emb = embed_code(pair.code_tokens, E, vocab, normalize)
        if not emb.zero:
            M[len(kept)] = emb.vector
            kept.append(pair)
    return EmbeddedCorpus(kept, M[:len(kept)])


def dedup_testset(train_pairs, test_pairs, E, vocab, delta=0.8, normalize=True):
    """Remove test snippets whose max similarity to any training snippet is
    >= delta. Returns (clean_test, removed, report)."""
    buckets = {label: 0 for label in BUCKET_LABELS}
    corpus = embed_corpus(train_pairs, E, vocab, normalize)
    if not corpus.pairs:  # nothing to compare with: every test pair stays
        return list(test_pairs), [], DedupReport(buckets, 0, len(test_pairs), delta)
    clean, removed, unembeddable = [], [], 0
    for pair in test_pairs:
        emb = embed_code(pair.code_tokens, E, vocab, normalize)
        if emb.zero:
            unembeddable += 1
            clean.append(pair)
            continue
        max_sim = float(corpus.similarities(emb).max())
        buckets[_bucket(max_sim)] += 1
        (removed if max_sim >= delta else clean).append(pair)
    return clean, removed, DedupReport(buckets=buckets, removed=len(removed), kept=len(clean),
                                       delta=delta, unembeddable=unembeddable)


def topk_similar(query_code_tokens, corpus_pairs, E, vocab, k, normalize=True):
    """k (title, similarity, id) triples, descending similarity, ties by
    lowest id. ``corpus_pairs`` may also be an EmbeddedCorpus made by
    ``embed_corpus`` with the same E, vocab and normalize."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = embed_code(query_code_tokens, E, vocab, normalize)
    if query.zero:
        raise ValueError("topk_similar: query has no in-vocabulary tokens")
    corpus = (corpus_pairs if isinstance(corpus_pairs, EmbeddedCorpus)
              else embed_corpus(corpus_pairs, E, vocab, normalize))
    sims = corpus.similarities(query)
    order = np.lexsort(([p.id for p in corpus.pairs], -sims))[:k]
    return [(corpus.pairs[i].title_tokens, float(sims[i]), corpus.pairs[i].id)
            for i in order]
