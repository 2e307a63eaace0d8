"""Seeded synthetic raw posts for the c2q benchmark.

Every post is a raw-post JSONL record (``id``, ``lang``, ``title``, ``body``,
``score``) whose single ``<code>`` block tokenizes to an exact, planned number
of code tokens and whose title tokenizes to an exact number of title tokens.
Lengths come from fixed quantiles rather than random draws, so every seed
gives each role the same multiset of source and title lengths (and hence the
same amount of model work); the seed only changes the content and order.

Code mixes per-language keywords, punctuation, NUMBER and STRING literals and
identifiers drawn from a Zipfian pool much larger than the vocabulary cap, so
a share of source tokens are out of vocabulary and reach the copy path.
Titles copy some identifiers from their snippet. The ``test`` role of a
retrieval corpus plants exact duplicates (same code and title as a
background post) and near duplicates (a few in-vocabulary tokens changed).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

LANGS = ("python", "java", "javascript", "csharp", "sql")

KEYWORDS = {
    "python": ["def", "return", "for", "in", "if", "else", "import", "from",
               "class", "self", "None", "True", "while", "with", "as", "not",
               "and", "or", "print", "len", "range", "try", "except", "yield"],
    "java": ["public", "private", "static", "void", "int", "new", "return",
             "for", "if", "else", "class", "this", "null", "final", "String",
             "List", "try", "catch", "throw", "import", "boolean", "long"],
    "javascript": ["function", "const", "let", "var", "return", "for", "of",
                   "if", "else", "this", "null", "new", "await", "async",
                   "import", "export", "class", "typeof", "undefined",
                   "console", "map", "filter"],
    "csharp": ["public", "private", "static", "void", "int", "var", "new",
               "return", "foreach", "in", "if", "else", "class", "this",
               "null", "string", "using", "namespace", "List", "await",
               "async", "bool"],
    "sql": ["SELECT", "FROM", "WHERE", "JOIN", "ON", "GROUP", "BY", "ORDER",
            "HAVING", "AS", "AND", "OR", "NOT", "IN", "COUNT", "SUM", "LIMIT",
            "INSERT", "UPDATE", "SET", "DISTINCT", "LEFT"],
}
# Single-character tokens that start no comment or string in any language,
# rendered space-separated so each stays one token.
PUNCT = list("()[]{}=+*,.;:<>!&|%^~?@$")
COMMENT = {"python": "# {}", "java": "// {}", "javascript": "/* {} */",
           "csharp": "// {}", "sql": "-- {}"}
QUOTE = {"python": '"', "java": '"', "javascript": "'", "csharp": '"', "sql": "'"}

STEMS = ["data", "result", "items", "value", "config", "buffer", "record",
         "index", "parser", "handler", "cursor", "payload", "temp", "node",
         "rows", "cache", "token", "queue", "entry", "field", "list", "map",
         "stream", "table", "column", "query", "object", "file", "json", "key"]
INTERROGATIVES = ["how", "what", "why", "which", "when"]
TITLE_WORDS = ["to", "a", "the", "in", "is", "my", "does", "not", "of", "with",
               "can", "i", "do", "from", "an", "for", "on", "using", "get",
               "remove", "sort", "parse", "merge", "convert", "filter", "split",
               "read", "update", "count", "group", "join", "format", "validate",
               "dictionary", "string", "array", "dataframe", "values", "nested",
               "error", "loop", "function", "method", "class", "null", "empty"]

KIND_SHARES = (("keyword", 0.25), ("punct", 0.35), ("ident", 0.30),
               ("number", 0.05), ("string", 0.05))
ZIPF_EXPONENT = 1.05
IDENT_POOL = 100_000     # identifier names, far above the 5,000-token vocabulary cap
CODE_LENGTHS = (16, 64, 128)   # min, median, max code tokens (the preprocess filter)
TITLE_LENGTHS = (4, 10, 16)    # min, median, max title tokens
TITLE_COPY_SHARE = 0.3   # exact share of a title's middle words copied from its code


@dataclass
class Corpus:
    """Generated posts plus the id lists of each role."""
    posts: list
    roles: dict                               # role -> list of post ids
    exact_dups: dict = field(default_factory=dict)   # test id -> background id
    near_dups: dict = field(default_factory=dict)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for post in self.posts:
                fh.write(json.dumps(post) + "\n")


def quantile_lengths(n, lo, mid, hi):
    """n lengths spanning [lo, hi] with median mid, the same for every seed:
    the u-quantiles of a two-piece uniform distribution at u = (i+0.5)/n."""
    out = []
    for i in range(n):
        u = (i + 0.5) / n
        x = lo + (mid - lo) * 2 * u if u < 0.5 else mid + (hi - mid) * (2 * u - 1)
        out.append(int(round(x)))
    return out


class _Writer:
    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        ranks = np.arange(1, IDENT_POOL + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        self.ident_cdf = np.cumsum(weights / weights.sum())
        self.idents = [f"{STEMS[k % len(STEMS)]}_{k}" for k in range(IDENT_POOL)]
        self.kind_cdf = np.cumsum([s for _, s in KIND_SHARES])

    def code_tokens(self, lang, length, unique):
        """(rendered token strings, identifiers used), exactly ``length``
        code tokens after c2q's tokenizer. The first token is ``unique``, an
        identifier no other post uses: it stays out of the vocabulary, so
        every snippet has an out-of-vocabulary token and the extended
        vocabulary (and with it the model's work) never collapses."""
        rng, keywords, quote = self.rng, KEYWORDS[lang], QUOTE[lang]
        kinds = np.searchsorted(self.kind_cdf, rng.random(length - 1))
        ranks = np.minimum(np.searchsorted(self.ident_cdf, rng.random(length - 1)),
                           len(self.idents) - 1)
        picks = rng.integers(0, 1000, length - 1)
        words, idents = [unique], []
        for kind, rank, pick in zip(kinds.tolist(), ranks.tolist(), picks.tolist()):
            if kind == 0:
                words.append(keywords[pick % len(keywords)])
            elif kind == 1:
                words.append(PUNCT[pick % len(PUNCT)])
            elif kind == 2:
                words.append(self.idents[rank])
                idents.append(words[-1])
            elif kind == 3:
                words.append(str(pick))
            else:
                words.append(quote + STEMS[pick % len(STEMS)] + quote)
        return words, idents

    def title(self, length, idents):
        """Title of exactly ``length`` title tokens: an interrogative, words
        (some copied identifiers), and a closing question mark."""
        copied = [False] * (length - 2)
        for i in self.rng.permutation(length - 2)[:round(TITLE_COPY_SHARE * (length - 2))]:
            copied[i] = True
        # copy identifiers that occur once in the code where there are any,
        # so the copy probability of a title token varies little by seed
        counts = Counter(idents)
        pool = [t for t, c in counts.items() if c == 1] or list(counts)
        picks = self.rng.integers(0, 1 << 30, length - 1).tolist()
        words = [INTERROGATIVES[picks[0] % len(INTERROGATIVES)].capitalize()]
        for use_ident, pick in zip(copied, picks[1:]):
            if use_ident and pool:
                words.append(pool[pick % len(pool)])
            else:
                words.append(TITLE_WORDS[pick % len(TITLE_WORDS)])
        return " ".join(words) + " ?"

    def comment(self, lang):
        picks = self.rng.integers(0, len(TITLE_WORDS), 4).tolist()
        return COMMENT[lang].format(" ".join(TITLE_WORDS[i] for i in picks))


def render_code(words, lang, comment):
    lines = [comment]
    for start in range(0, len(words), 8):
        lines.append("    " + " ".join(words[start:start + 8]))
    return "\n".join(lines)


def _post(pid, lang, title, code, score):
    body = f"I tried this:\n<code>\n{code}\n</code>\nbut it does not work."
    return {"id": pid, "lang": lang, "title": title, "body": body, "score": score}


def make_corpus(seed, background, roles, exact_dups=0, near_dups=0):
    """Posts for ``background`` documents plus each ``roles`` entry
    (name -> count). The ``test`` role starts with ``exact_dups`` exact and
    ``near_dups`` near duplicates of background posts of the planned length.
    """
    w = _Writer(seed)
    posts, role_ids = [], {}
    by_length = {}
    pid = 0

    def plan(n):
        # Source and title lengths are paired by a permutation fixed for all
        # seeds (attention work per title token grows with source length);
        # the seed only shuffles the pairs.
        titles = quantile_lengths(n, *TITLE_LENGTHS)
        pairing = np.random.Generator(np.random.PCG64(n)).permutation(n).tolist()
        pairs = [(c, titles[j]) for c, j in zip(quantile_lengths(n, *CODE_LENGTHS), pairing)]
        return [pairs[i] for i in w.rng.permutation(n).tolist()]

    def fresh(code_len, title_len):
        nonlocal pid
        pid += 1
        lang = LANGS[pid % len(LANGS)]
        words, idents = w.code_tokens(lang, code_len, f"{STEMS[pid % len(STEMS)]}_x{pid}")
        post = _post(pid, lang, w.title(title_len, idents),
                     render_code(words, lang, w.comment(lang)),
                     int(w.rng.integers(1, 50)))
        return post, words

    for code_len, title_len in plan(background):
        post, words = fresh(code_len, title_len)
        posts.append(post)
        by_length.setdefault(code_len, []).append((post, words))
    role_ids["background"] = [p["id"] for p in posts]

    corpus = Corpus(posts=posts, roles=role_ids)
    for role, count in roles.items():
        ids = []
        for i, (code_len, title_len) in enumerate(plan(count)):
            is_exact = role == "test" and i < exact_dups
            is_near = role == "test" and exact_dups <= i < exact_dups + near_dups
            if is_exact or is_near:
                src, words = by_length[code_len][int(w.rng.integers(len(by_length[code_len])))]
                pid += 1
                lang = src["lang"]
                code_words = list(words) if is_exact else _perturb(w, words, lang)
                post = _post(pid, lang, src["title"],
                             render_code(code_words, lang, w.comment(lang)),
                             int(w.rng.integers(1, 50)))
                (corpus.exact_dups if is_exact else corpus.near_dups)[pid] = src["id"]
            else:
                post, _ = fresh(code_len, title_len)
            posts.append(post)
            ids.append(post["id"])
        role_ids[role] = ids
    return corpus


def _perturb(w, words, lang, changes=2):
    """Copy of ``words`` with ``changes`` keyword/punctuation tokens swapped
    for different ones. Both kinds are always in the vocabulary, so the
    embedding changes and the near duplicate scores below 1.0."""
    out = list(words)
    swappable = [i for i, t in enumerate(out) if t in PUNCT or t in KEYWORDS[lang]]
    for i in w.rng.permutation(swappable)[:changes]:
        pool = PUNCT if out[i] in PUNCT else KEYWORDS[lang]
        choices = [t for t in pool if t != out[i]]
        out[i] = choices[int(w.rng.integers(len(choices)))]
    return out
