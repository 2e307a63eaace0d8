"""TF-IDF retrieval baseline, embedding-sum code similarity, clone-detection
dedup of the test set, and top-k similar-question lookup."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

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
        """``docs`` is a list of (id, code_tokens, title_tokens)."""
        if not docs:
            raise ValueError("TfidfIndex: no documents")
        self.n_docs = len(docs)
        df = Counter()
        for _, code, _ in docs:
            df.update(set(code))
        self.idf = {t: math.log((self.n_docs + 1) / (c + 1)) + 1.0 for t, c in df.items()}
        self.term_ids = {t: j for j, t in enumerate(self.idf)}
        docs = sorted(docs, key=lambda doc: doc[0])  # row order is id order
        self.doc_ids = [doc_id for doc_id, _, _ in docs]
        self.titles = {doc_id: title for doc_id, _, title in docs}
        vecs = [self._vectorize(code) for _, code, _ in docs]
        terms = np.fromiter((self.term_ids[t] for v in vecs for t in v), np.intp)
        order = np.argsort(terms, kind="stable")
        self.rows = np.repeat(np.arange(len(vecs)), [len(v) for v in vecs])[order]
        self.weights = np.fromiter((w for v in vecs for w in v.values()), np.float64)[order]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(terms, minlength=len(self.idf)))))

    def _vectorize(self, tokens):
        tf = Counter(t for t in tokens if t in self.idf)
        vec = {t: c * self.idf[t] for t, c in tf.items()}
        norm = math.sqrt(sum(w * w for w in vec.values()))
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
                              title=self.titles[self.doc_ids[best]], score=float(scores[best]))


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


def _embed_pairs(pairs, E, vocab, normalize):
    """(pairs with an embedding, a function giving the code_similarity of a
    query embedding to each of them), the embeddings kept as matrix rows."""
    M = np.empty((len(pairs), np.shape(E)[1]))
    kept = []
    for pair in pairs:
        emb = embed_code(pair.code_tokens, E, vocab, normalize)
        if not emb.zero:
            M[len(kept)] = emb.vector
            kept.append(pair)
    M = M[:len(kept)]
    return kept, lambda query: 1.0 - np.linalg.norm(M - query.vector, axis=1)


def dedup_testset(train_pairs, test_pairs, E, vocab, delta=0.8, normalize=True):
    """Remove test snippets whose max similarity to any training snippet is
    >= delta. Returns (clean_test, removed, report)."""
    buckets = {label: 0 for label in BUCKET_LABELS}
    embedded, similarities = _embed_pairs(train_pairs, E, vocab, normalize)
    if not embedded:  # nothing to compare with: every test pair stays
        return list(test_pairs), [], DedupReport(buckets, 0, len(test_pairs), delta)
    clean, removed, unembeddable = [], [], 0
    for pair in test_pairs:
        emb = embed_code(pair.code_tokens, E, vocab, normalize)
        if emb.zero:
            unembeddable += 1
            clean.append(pair)
            continue
        max_sim = float(similarities(emb).max())
        buckets[_bucket(max_sim)] += 1
        (removed if max_sim >= delta else clean).append(pair)
    return clean, removed, DedupReport(buckets=buckets, removed=len(removed), kept=len(clean),
                                       delta=delta, unembeddable=unembeddable)


def topk_similar(query_code_tokens, corpus_pairs, E, vocab, k, normalize=True):
    """k (title, similarity, id) triples, descending similarity, ties by
    lowest id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = embed_code(query_code_tokens, E, vocab, normalize)
    if query.zero:
        raise ValueError("topk_similar: query has no in-vocabulary tokens")
    embedded, similarities = _embed_pairs(corpus_pairs, E, vocab, normalize)
    sims = similarities(query)
    order = np.lexsort(([p.id for p in embedded], -sims))[:k]
    return [(embedded[i].title_tokens, float(sims[i]), embedded[i].id) for i in order]
