"""Corpus-level BLEU-1..4 and ROUGE-1/2/L over tokenized titles."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


@dataclass
class PRF:
    precision: float
    recall: float
    f1: float

    def as_dict(self):
        return {"p": self.precision, "r": self.recall, "f": self.f1}


def _check_corpus(candidates, references):
    if len(candidates) != len(references) or not candidates:
        raise ValueError("candidates and references must be equal-length, nonempty")


def _overlaps(candidates, references, n):
    """For each order k = 1..n, [clipped k-gram matches, candidate k-grams,
    reference k-grams] pooled over the pairs (BLEU and ROUGE-N share them)."""
    tallies = [[0, 0, 0] for _ in range(n)]
    for cand, ref in zip(candidates, references):
        for k, tally in enumerate(tallies, 1):
            cgrams = Counter(tuple(cand[i:i + k]) for i in range(len(cand) - k + 1))
            rgrams = Counter(tuple(ref[i:i + k]) for i in range(len(ref) - k + 1))
            tally[0] += sum(min(c, rgrams[g]) for g, c in cgrams.items())
            tally[1] += max(0, len(cand) - k + 1)
            tally[2] += max(0, len(ref) - k + 1)
    return tallies


def _bleu(tallies):
    """BLEU over the orders in ``tallies``; 0 if any precision is 0."""
    logs = []
    for match, total, _ in tallies:
        if match == 0:
            return 0.0
        logs.append(math.log(match / total))
    geo = math.exp(sum(logs) / len(tallies))
    _, cand_len, ref_len = tallies[0]
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(1, cand_len))
    return geo * bp


def bleu(candidates, references, n=4):
    """Corpus BLEU: clipped n-gram precisions pooled over the corpus,
    geometric mean of p_1..p_n, times brevity penalty exp(1 - r/c) when
    the candidate corpus is shorter. 0 if any pooled precision is 0."""
    _check_corpus(candidates, references)
    return _bleu(_overlaps(candidates, references, n))


def _prf(match, cand_total, ref_total):
    p = match / cand_total if cand_total else 0.0
    r = match / ref_total if ref_total else 0.0
    f = 2 * p * r / (p + r) if (p + r) else 0.0
    return PRF(p, r, f)


def rouge_n(candidates, references, n):
    """Corpus-pooled clipped n-gram overlap precision/recall/F1."""
    _check_corpus(candidates, references)
    return _prf(*_overlaps(candidates, references, n)[n - 1])


def lcs_length(a, b):
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidates, references):
    """Mean per-pair LCS F1 (beta = 1), with pooled-mean P and R alongside."""
    _check_corpus(candidates, references)
    ps, rs, fs = [], [], []
    for cand, ref in zip(candidates, references):
        ell = lcs_length(cand, ref)
        score = _prf(ell, len(cand), len(ref))
        ps.append(score.precision)
        rs.append(score.recall)
        fs.append(score.f1)
    n = len(fs)
    return PRF(sum(ps) / n, sum(rs) / n, sum(fs) / n)


def score_report(candidates, references):
    """Full evaluation report, JSON-serializable."""
    _check_corpus(candidates, references)
    tallies = _overlaps(candidates, references, 4)
    return {
        "bleu1": _bleu(tallies[:1]),
        "bleu2": _bleu(tallies[:2]),
        "bleu3": _bleu(tallies[:3]),
        "bleu4": _bleu(tallies),
        "rouge1": _prf(*tallies[0]).as_dict(),
        "rouge2": _prf(*tallies[1]).as_dict(),
        "rougeL": rouge_l(candidates, references).as_dict(),
        "pairs": len(candidates),
    }
