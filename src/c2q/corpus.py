"""Mining <code snippet, question title> pairs from raw post records.

Raw posts arrive as JSONL; code blocks inside a post body are delimited by
lines containing exactly ``<code>`` and ``</code>``. Tokenization strips
comments per language and normalizes numeric/string literals to NUMBER and
STRING placeholder tokens.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .numerics import Rng

LANGS = ("python", "java", "javascript", "csharp", "sql")

INTERROGATIVES = {"how", "what", "why", "which", "when"}

CODE_MIN, CODE_MAX = 16, 128
TITLE_MIN, TITLE_MAX = 4, 16


class DataError(ValueError):
    """Malformed input data (bad JSONL, unknown language, bad markers)."""


@dataclass
class RawPost:
    id: int
    lang: str
    title: str
    body: str
    score: int


@dataclass
class Candidate:
    """An untokenized pair straight out of extraction."""
    id: int
    lang: str
    title: str
    code: str


@dataclass
class QCPair:
    id: int
    lang: str
    code_tokens: list
    title_tokens: list


@dataclass
class SplitSpec:
    val_count: int
    test_count: int
    seed: int


@dataclass
class SkipReport:
    low_score: int = 0
    no_code: int = 0
    empty_title: int = 0
    malformed_markers: int = 0
    skipped_ids: list = field(default_factory=list)

    @property
    def total(self):
        return self.low_score + self.no_code + self.empty_title + self.malformed_markers


def extract_pairs(posts, min_score=1):
    """Pull one candidate per post with score >= min_score and >= 1 code block.

    Multiple code blocks are concatenated in document order, newline
    separated. Returns (candidates, skip_report).
    """
    candidates, report = [], SkipReport()
    for post in posts:
        if post.score < min_score:
            report.low_score += 1
            report.skipped_ids.append(post.id)
            continue
        if not post.title.strip():
            report.empty_title += 1
            report.skipped_ids.append(post.id)
            continue
        try:
            blocks = _code_blocks(post.body)
        except DataError:
            report.malformed_markers += 1
            report.skipped_ids.append(post.id)
            continue
        if not blocks:
            report.no_code += 1
            report.skipped_ids.append(post.id)
            continue
        candidates.append(Candidate(post.id, post.lang, post.title, "\n".join(blocks)))
    return candidates, report


def _code_blocks(body):
    blocks, current = [], None
    for line in body.split("\n"):
        stripped = line.strip()
        if stripped == "<code>":
            if current is not None:
                raise DataError("nested <code> marker")
            current = []
        elif stripped == "</code>":
            if current is None:
                raise DataError("unmatched </code> marker")
            blocks.append("\n".join(current))
            current = None
        elif current is not None:
            current.append(line)
    if current is not None:
        raise DataError("unterminated <code> block")
    return blocks


# ---------------------------------------------------------------------------
# code tokenizer

@dataclass(frozen=True)
class _LangSyntax:
    line_comments: tuple
    block_comments: tuple
    string_delims: tuple  # longest first
    escape_char: str = "\\"
    doubled_quote_escape: bool = False


_SYNTAX = {
    "python": _LangSyntax(("#",), (), ('"""', "'''", '"', "'")),
    "java": _LangSyntax(("//",), (("/*", "*/"),), ('"', "'")),
    "javascript": _LangSyntax(("//",), (("/*", "*/"),), ('"', "'", "`")),
    "csharp": _LangSyntax(("//",), (("/*", "*/"),), ('"', "'")),
    "sql": _LangSyntax(("--",), (("/*", "*/"),), ("'",), escape_char="",
                       doubled_quote_escape=True),
}

_IDENT_START = re.compile(r"[A-Za-z_]")
_IDENT = re.compile(r"[A-Za-z0-9_]")
_NUMBER = re.compile(r"(?:0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)[A-Za-z]*")


def tokenize_code(text, lang, warnings=None):
    """Comment-stripped, literal-normalized token sequence for a snippet.

    Numeric literals become NUMBER, string literals STRING; the remainder
    splits into identifiers and single punctuation characters. An
    unterminated string swallows the rest of its line as STRING and records
    a warning (when a ``warnings`` list is supplied).
    """
    if lang not in _SYNTAX:
        raise DataError(f"unsupported language: {lang!r}")
    syn = _SYNTAX[lang]
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        lc = _match_any(text, i, syn.line_comments)
        if lc:
            i = _line_end(text, i)
            continue
        matched_block = False
        for open_mark, close_mark in syn.block_comments:
            if text.startswith(open_mark, i):
                end = text.find(close_mark, i + len(open_mark))
                if end < 0:
                    if warnings is not None:
                        warnings.append(f"unterminated block comment at offset {i}")
                    i = n
                else:
                    i = end + len(close_mark)
                matched_block = True
                break
        if matched_block:
            continue
        delim = _match_any(text, i, syn.string_delims)
        if delim:
            i = _scan_string(text, i, delim, syn, warnings)
            tokens.append("STRING")
            continue
        # str.isdigit also accepts digits such as "²" that \d does not match
        m = _NUMBER.match(text, i) if ch.isdigit() else None
        if m:
            tokens.append("NUMBER")
            i = m.end()
            continue
        if _IDENT_START.match(ch):
            j = i + 1
            while j < n and _IDENT.match(text[j]):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        tokens.append(ch)
        i += 1
    return tokens


def _match_any(text, i, marks):
    for mark in marks:
        if text.startswith(mark, i):
            return mark
    return None


def _line_end(text, i):
    end = text.find("\n", i)
    return len(text) if end < 0 else end


def _scan_string(text, i, delim, syn, warnings):
    j = i + len(delim)
    n = len(text)
    while j < n:
        if syn.escape_char and text[j] == syn.escape_char:
            j += 2
            continue
        if text.startswith(delim, j):
            if syn.doubled_quote_escape and text.startswith(delim * 2, j):
                j += 2 * len(delim)
                continue
            return j + len(delim)
        if text[j] == "\n" and len(delim) == 1:
            break
        j += 1
    if warnings is not None:
        warnings.append(f"unterminated string literal at offset {i}")
    return _line_end(text, i)


_TITLE_TOKEN = re.compile(r"\w+|[^\w\s]")


def tokenize_title(text):
    """Lowercased words plus standalone punctuation tokens."""
    return _TITLE_TOKEN.findall(text.lower())


def make_pair(candidate, warnings=None):
    return QCPair(
        id=candidate.id,
        lang=candidate.lang,
        code_tokens=tokenize_code(candidate.code, candidate.lang, warnings),
        title_tokens=tokenize_title(candidate.title),
    )


def filter_pairs(pairs):
    """Keep pairs with an interrogative keyword and in-range lengths.

    Returns (kept, rejection_counts) where counts record the first failing
    check per rejected pair.
    """
    kept = []
    rejected = {"no_keyword": 0, "code_too_short": 0, "code_too_long": 0,
                "title_too_short": 0, "title_too_long": 0}
    for pair in pairs:
        title_lower = {t.lower() for t in pair.title_tokens}
        if not title_lower & INTERROGATIVES:
            rejected["no_keyword"] += 1
        elif len(pair.code_tokens) < CODE_MIN:
            rejected["code_too_short"] += 1
        elif len(pair.code_tokens) > CODE_MAX:
            rejected["code_too_long"] += 1
        elif len(pair.title_tokens) < TITLE_MIN:
            rejected["title_too_short"] += 1
        elif len(pair.title_tokens) > TITLE_MAX:
            rejected["title_too_long"] += 1
        else:
            kept.append(pair)
    return kept, rejected


def split_dataset(pairs, split):
    """Seeded disjoint (train, val, test) split; deterministic per seed."""
    n = len(pairs)
    needed = split.val_count + split.test_count + 1
    if n < needed:
        raise ValueError(f"split needs at least {needed} pairs, got {n}")
    perm = Rng(split.seed).permutation(n)
    val_idx = set(perm[:split.val_count].tolist())
    test_idx = set(perm[split.val_count:split.val_count + split.test_count].tolist())
    train, val, test = [], [], []
    for i, pair in enumerate(pairs):
        if i in val_idx:
            val.append(pair)
        elif i in test_idx:
            test.append(pair)
        else:
            train.append(pair)
    return train, val, test


# ---------------------------------------------------------------------------
# JSONL I/O


def read_posts(path):
    posts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not all(isinstance(obj[k], str) for k in ("lang", "title", "body")):
                    raise TypeError("lang, title and body must be strings")
                posts.append(RawPost(id=int(obj["id"]), lang=obj["lang"],
                                     title=obj["title"], body=obj["body"],
                                     score=int(obj["score"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad post record: {exc}") from exc
    return posts


def token_list(value, field):
    """``value`` checked to be a JSON list of non-empty strings."""
    if isinstance(value, list) and all(value):
        try:
            "".join(value)  # rejects any non-string, at C speed
            return value
        except TypeError:
            pass
    raise DataError(f"{field} must be a list of non-empty strings")


def write_pairs(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({"id": p.id, "lang": p.lang,
                                 "code_tokens": p.code_tokens,
                                 "title_tokens": p.title_tokens}) + "\n")


def read_pairs(path):
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                pairs.append(QCPair(
                    id=int(obj["id"]), lang=obj["lang"],
                    code_tokens=token_list(obj["code_tokens"], "code_tokens"),
                    title_tokens=token_list(obj["title_tokens"], "title_tokens")))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad pair record: {exc}") from exc
    return pairs
