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

from .files import replace_atomically
from .numerics import Rng
from .vocab import SPECIALS

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

_NUMBER = r"(?:0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)[A-Za-z]*"


def _string_patterns(delim, syn):
    """(closed, unterminated) patterns of one string delimiter: the closed
    one ends at the first closing delimiter that is not escaped, and the
    unterminated one runs to the end of the opening line."""
    d, esc = re.escape(delim), re.escape(syn.escape_char)
    body = [esc + "."] if syn.escape_char else []
    if syn.doubled_quote_escape:
        body.append(d + d)
    newline = r"\n" if len(delim) == 1 else ""
    body.append(f"[^{esc}{re.escape(delim[0])}{newline}]")
    if len(delim) > 1:
        body.append(f"{re.escape(delim[0])}(?!{re.escape(delim[1:])})")
    close = d + (f"(?!{d})" if syn.doubled_quote_escape else "")
    return f"{d}(?:{'|'.join(body)})*{close}", d + r"[^\n]*"


def _lexer(syn):
    """One compiled pattern for a language, plus the (token, warning) of each
    alternative by group number: token None drops the match, "" keeps its
    text. At each position the first alternative that matches wins."""
    alts = [(r"\s+", None, None)]
    alts += [(re.escape(mark) + r"[^\n]*", None, None) for mark in syn.line_comments]
    for open_mark, close_mark in syn.block_comments:
        o, c = re.escape(open_mark), re.escape(close_mark)
        alts += [(f"{o}.*?{c}", None, None), (f"{o}.*", None, "unterminated block comment")]
    for delim in syn.string_delims:
        closed, open_ = _string_patterns(delim, syn)
        alts += [(closed, "STRING", None), (open_, "STRING", "unterminated string literal")]
    alts += [(_NUMBER, "NUMBER", None), (r"[A-Za-z_][A-Za-z0-9_]*|.", "", None)]
    pattern = re.compile("|".join(f"({a})" for a, _, _ in alts), re.DOTALL)
    return pattern, (None,) + tuple((token, warning) for _, token, warning in alts)


_LEXERS = {lang: _lexer(syn) for lang, syn in _SYNTAX.items()}


def tokenize_code(text, lang, warnings=None):
    """Comment-stripped, literal-normalized token sequence for a snippet.

    Numeric literals become NUMBER, string literals STRING; the remainder
    splits into identifiers and single punctuation characters. An
    unterminated string swallows the rest of its line as STRING, and an
    unterminated block comment the rest of the text; each records a warning
    (when a ``warnings`` list is supplied).
    """
    if lang not in _LEXERS:
        raise DataError(f"unsupported language: {lang!r}")
    pattern, actions = _LEXERS[lang]
    tokens = []
    for m in pattern.finditer(text):
        token, warning = actions[m.lastindex]
        if warning and warnings is not None:
            warnings.append(f"{warning} at offset {m.start()}")
        if token is not None:
            tokens.append(token or m.group())
    return tokens


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
                if not all(is_utf8(obj[k]) for k in ("lang", "title", "body")):
                    raise TypeError("lang, title and body must be UTF-8 strings")
                posts.append(RawPost(id=_json_int(obj, "id"), lang=obj["lang"],
                                     title=obj["title"], body=obj["body"],
                                     score=_json_int(obj, "score")))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad post record: {exc}") from exc
    return posts


def _json_int(obj, key):
    """``obj[key]`` if it is a JSON integer: not a bool, a float or a string."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


_MARKER = re.compile("|".join(map(re.escape, SPECIALS)))
_SPECIALS = frozenset(SPECIALS)
_SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


def is_utf8(value):
    """Whether ``value`` is a string that UTF-8 can encode."""
    return isinstance(value, str) and (value.isascii() or not _SURROGATE.search(value))


def token_list(value, field):
    """``value`` checked to be a JSON list of tokens: non-empty strings with
    no whitespace that UTF-8 can encode, none of them a special marker such
    as ``<end>``."""
    try:
        joined = "".join(value) if isinstance(value, list) and all(value) else None
    except TypeError:  # an item that is not a string
        joined = None
    # split gives back [joined] only when joined holds no whitespace, faster
    # than a regex; a marker found in joined may span tokens ("<", "end",
    # ">"), so the set test decides
    if (joined is not None and (not joined or joined.split(None, 1) == [joined])
            and not (_MARKER.search(joined) and not _SPECIALS.isdisjoint(value))
            and is_utf8(joined)):
        return value
    raise DataError(f"{field} must be a list of non-empty, whitespace-free UTF-8 strings "
                    f"other than {', '.join(SPECIALS)}")


def write_pairs(pairs, path):
    with replace_atomically(path, "w") as fh:
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
                    id=_json_int(obj, "id"), lang=obj["lang"],
                    code_tokens=token_list(obj["code_tokens"], "code_tokens"),
                    title_tokens=token_list(obj["title_tokens"], "title_tokens")))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad pair record: {exc}") from exc
    return pairs
