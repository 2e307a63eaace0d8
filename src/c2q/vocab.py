"""Fixed vocabulary with frequency thresholding, plus per-example extended
vocabularies so the copy mechanism can emit source-only tokens."""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

from .files import replace_atomically

PAD, UNK, START, END = 0, 1, 2, 3
SPECIALS = ("<pad>", "<unk>", "<start>", "<end>")
UNK_TOKEN = "<unk>"

VOCAB_HEADER_PREFIX = "C2Q-VOCAB v1 count="


_SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


def is_utf8(value):
    """Whether ``value`` is a string that UTF-8 can encode."""
    return isinstance(value, str) and (value.isascii() or not _SURROGATE.search(value))


class VocabFormatError(ValueError):
    pass


@dataclass
class Vocabulary:
    id_to_token: list
    token_to_id: dict = field(init=False)

    def __post_init__(self):
        if tuple(self.id_to_token[:4]) != SPECIALS:
            raise ValueError("vocabulary must start with the four special tokens")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def content_hash(self):
        h = hashlib.sha256()
        for t in self.id_to_token:
            h.update(t.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def save(self, path):
        """Write ``path`` + ".tmp", then move it into place: a failed write
        leaves any earlier file untouched."""
        body = self.id_to_token[4:]
        with replace_atomically(path, "w") as fh:
            fh.write(f"{VOCAB_HEADER_PREFIX}{len(body)}\n")
            for t in body:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            header, *tokens = [line.rstrip("\n") for line in fh] or [""]
        for lineno, line in enumerate([header] + tokens, 1):
            if not is_utf8(line):
                raise VocabFormatError(f"{path}:{lineno}: bytes that are not UTF-8")
        if not header.startswith(VOCAB_HEADER_PREFIX):
            raise VocabFormatError(f"bad vocab header: {header!r}")
        try:
            count = int(header[len(VOCAB_HEADER_PREFIX):])
        except ValueError as exc:
            raise VocabFormatError(f"bad vocab header count: {header!r}") from exc
        if len(tokens) != count:
            raise VocabFormatError(f"vocab file lists {len(tokens)} tokens, header says {count}")
        seen = set(SPECIALS)
        for lineno, token in enumerate(tokens, 2):
            if token.split() != [token]:  # as the pair readers require
                raise VocabFormatError(f"{path}:{lineno}: token {token!r} is empty or holds "
                                       "whitespace")
            if token in seen:
                raise VocabFormatError(f"{path}:{lineno}: token {token!r} repeats a special "
                                       "marker or an earlier line")
            seen.add(token)
        return cls(list(SPECIALS) + tokens)


@dataclass
class ExtendedVocab:
    """One snippet's extended vocabulary, the only code that knows the copy
    mechanism's two id rules. (1) A base token keeps its id, and each of the
    snippet's out-of-vocabulary (OOV) tokens takes ``len(base)`` plus its rank
    of first occurrence. (2) The model is fed an extended id as UNK
    (``to_base``; ``add_source`` gives a snippet's base ids in its one pass)."""
    base: Vocabulary
    oov_tokens: list = field(default_factory=list)  # in order of first occurrence
    oov_ids: dict = field(init=False, repr=False)

    def __post_init__(self):
        tokens, self.oov_tokens, self.oov_ids = self.oov_tokens, [], {}
        if tokens:  # encode_source builds an empty one and adds its snippet
            self.add_source(tokens)

    def __len__(self):
        return len(self.base) + len(self.oov_tokens)

    def add_source(self, tokens):
        """(base ids, extended ids) of the snippet's own tokens; an OOV token
        met for the first time joins ``oov_tokens``."""
        known, oov_ids, oov_tokens = self.base.token_to_id, self.oov_ids, self.oov_tokens
        start = len(self.base)
        base_ids, ext_ids = [], []
        for tok in tokens:  # no Python call per token: every snippet runs this
            idx = known.get(tok)
            if idx is None:
                idx = oov_ids.get(tok)
                if idx is None:
                    idx = oov_ids[tok] = start + len(oov_tokens)
                    oov_tokens.append(tok)
                base_ids.append(UNK)
            else:
                base_ids.append(idx)
            ext_ids.append(idx)
        return base_ids, ext_ids

    def ids(self, tokens):
        """Extended ids of other tokens, such as a title's: a token neither
        in the base nor among the snippet's OOV tokens is UNK."""
        known, oov_ids = self.base.token_to_id, self.oov_ids
        return [known[t] if t in known else oov_ids.get(t, UNK) for t in tokens]

    def to_base(self, ids):
        """The base ids the decoder is fed for extended ids ``ids``."""
        size = len(self.base)
        return [idx if idx < size else UNK for idx in ids]


def build_vocab(token_streams, min_freq=1, max_size=None):
    """Vocabulary of tokens with count > min_freq (threshold t keeps tokens
    seen at least t+1 times), most frequent first, lexicographic tie-break.

    ``max_size`` caps the total vocabulary size including the 4 specials.
    """
    if min_freq < 0:
        raise ValueError("min_freq must be >= 0")
    if max_size is not None and max_size < len(SPECIALS):
        raise ValueError(f"max_size must be >= {len(SPECIALS)}, the specials included")
    counts = Counter()
    for stream in token_streams:
        counts.update(stream)
    eligible = [t for t, c in counts.items() if c > min_freq and t not in SPECIALS]
    eligible.sort(key=lambda t: (-counts[t], t))
    if max_size is not None:
        eligible = eligible[:max_size - len(SPECIALS)]
    return Vocabulary(list(SPECIALS) + eligible)


def encode_source(code_tokens, vocab):
    """(base_ids, extended_ids, ExtendedVocab) for one source snippet."""
    if not code_tokens:
        raise ValueError("encode_source: empty token sequence")
    ev = ExtendedVocab(vocab)
    base_ids, ext_ids = ev.add_source(code_tokens)
    return base_ids, ext_ids, ev


def encode_target(title_tokens, ev):
    """Extended-id sequence for the title, END appended."""
    return ev.ids(title_tokens) + [END]


def decode_ids(ids, ev):
    """Tokens for a sequence of extended ids; stops before END. UNK renders
    as the literal "<unk>" string, its token in every vocabulary."""
    tokens, size, limit = ev.base.id_to_token, len(ev.base), len(ev)
    out = []
    for idx in ids:
        if not 0 <= idx < limit:
            raise IndexError(f"id {idx} out of range [0, {limit})")
        if idx == END:
            break
        out.append(tokens[idx] if idx < size else ev.oov_tokens[idx - size])
    return out
