"""Fixed vocabulary with frequency thresholding, plus per-example extended
vocabularies so the copy mechanism can emit source-only tokens."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from .files import replace_atomically

PAD, UNK, START, END = 0, 1, 2, 3
SPECIALS = ("<pad>", "<unk>", "<start>", "<end>")
UNK_TOKEN = "<unk>"

VOCAB_HEADER_PREFIX = "C2Q-VOCAB v1 count="


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
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def id_of(self, token):
        return self.token_to_id.get(token, UNK)

    def token_of(self, idx):
        return self.id_to_token[idx]

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
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith(VOCAB_HEADER_PREFIX):
                raise VocabFormatError(f"bad vocab header: {header!r}")
            try:
                count = int(header[len(VOCAB_HEADER_PREFIX):])
            except ValueError as exc:
                raise VocabFormatError(f"bad vocab header count: {header!r}") from exc
            tokens = [line.rstrip("\n") for line in fh]
        if len(tokens) != count:
            raise VocabFormatError(f"vocab file lists {len(tokens)} tokens, header says {count}")
        return cls(list(SPECIALS) + tokens)


@dataclass
class ExtendedVocab:
    base: Vocabulary
    oov_tokens: list

    def __len__(self):
        return len(self.base) + len(self.oov_tokens)

    def ext_id(self, token):
        """Extended id of a source OOV token, or None."""
        try:
            return len(self.base) + self.oov_tokens.index(token)
        except ValueError:
            return None


def build_vocab(token_streams, min_freq=1, max_size=None):
    """Vocabulary of tokens with count > min_freq (threshold t keeps tokens
    seen at least t+1 times), most frequent first, lexicographic tie-break.

    ``max_size`` caps the total vocabulary size including the 4 specials.
    """
    if min_freq < 0:
        raise ValueError("min_freq must be >= 0")
    counts = Counter()
    for stream in token_streams:
        counts.update(stream)
    eligible = [t for t, c in counts.items() if c > min_freq and t not in SPECIALS]
    eligible.sort(key=lambda t: (-counts[t], t))
    if max_size is not None:
        eligible = eligible[:max(0, max_size - len(SPECIALS))]
    return Vocabulary(list(SPECIALS) + eligible)


def encode_source(code_tokens, vocab):
    """(base_ids, extended_ids, ExtendedVocab) for one source snippet."""
    if not code_tokens:
        raise ValueError("encode_source: empty token sequence")
    base_ids, ext_ids, oov = [], [], []
    for tok in code_tokens:
        idx = vocab.token_to_id.get(tok)
        if idx is None:
            base_ids.append(UNK)
            if tok not in oov:
                oov.append(tok)
            ext_ids.append(len(vocab) + oov.index(tok))
        else:
            base_ids.append(idx)
            ext_ids.append(idx)
    return base_ids, ext_ids, ExtendedVocab(vocab, oov)


def encode_target(title_tokens, vocab, ev):
    """Extended-id sequence for the title, END appended."""
    ids = []
    for tok in title_tokens:
        idx = vocab.token_to_id.get(tok)
        if idx is not None:
            ids.append(idx)
            continue
        ext = ev.ext_id(tok)
        ids.append(UNK if ext is None else ext)
    ids.append(END)
    return ids


def decode_ids(ids, vocab, ev=None):
    """Tokens for a sequence of extended ids; stops before END, UNK renders
    as the literal "<unk>" string."""
    n_oov = len(ev.oov_tokens) if ev is not None else 0
    limit = len(vocab) + n_oov
    out = []
    for idx in ids:
        if not 0 <= idx < limit:
            raise IndexError(f"id {idx} out of range [0, {limit})")
        if idx == END:
            break
        if idx == UNK:
            out.append(UNK_TOKEN)
        elif idx < len(vocab):
            out.append(vocab.id_to_token[idx])
        else:
            out.append(ev.oov_tokens[idx - len(vocab)])
    return out
