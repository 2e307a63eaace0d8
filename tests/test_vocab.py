import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2q.corpus import DataError, token_list
from c2q.numerics import Rng
from c2q.vocab import (END, PAD, SPECIALS, START, UNK, ExtendedVocab, Vocabulary,
                       VocabFormatError, build_vocab, decode_ids,
                       encode_source, encode_target)


def test_build_vocab_min_freq_threshold():
    # threshold 1 means "appeared at least twice"
    vocab = build_vocab([["a", "a", "a", "b"]], min_freq=1)
    assert "a" in vocab
    assert "b" not in vocab
    assert len(vocab) == 5


def test_build_vocab_max_size_lexicographic_tie():
    vocab = build_vocab([["a"] * 3 + ["b"] * 3], min_freq=0, max_size=5)
    assert len(vocab) == 5
    assert "a" in vocab
    assert "b" not in vocab


def test_build_vocab_max_size_below_the_specials_is_an_error():
    assert len(build_vocab([["a", "b"]], min_freq=0, max_size=len(SPECIALS))) == len(SPECIALS)
    with pytest.raises(ValueError, match="max_size"):
        build_vocab([["a", "b"]], min_freq=0, max_size=len(SPECIALS) - 1)


def test_build_vocab_empty_input():
    assert len(build_vocab([], min_freq=1)) == 4


def test_build_vocab_specials_fixed():
    vocab = build_vocab([["x", "x"]], min_freq=0)
    assert (PAD, UNK, START, END) == (0, 1, 2, 3)
    assert vocab.id_to_token[:4] == list(("<pad>", "<unk>", "<start>", "<end>"))


def test_build_vocab_size_monotone_in_min_freq():
    stream = [["a"] * 5 + ["b"] * 3 + ["c"] * 2 + ["d"]]
    sizes = [len(build_vocab(stream, min_freq=t)) for t in (0, 1, 2, 3, 5)]
    assert sizes == sorted(sizes, reverse=True)


def test_build_vocab_negative_min_freq():
    with pytest.raises(ValueError):
        build_vocab([], min_freq=-1)


def test_encode_source_oov_handling():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    base, ext, ev = encode_source(["a", "z", "a"], vocab)
    assert base == [vocab.token_to_id["a"], UNK, vocab.token_to_id["a"]]
    assert ext == [vocab.token_to_id["a"], len(vocab), vocab.token_to_id["a"]]
    assert ev.oov_tokens == ["z"]


def test_encode_source_all_in_vocab():
    vocab = build_vocab([["a", "a", "b", "b"]], min_freq=0)
    base, ext, ev = encode_source(["a", "b"], vocab)
    assert base == ext
    assert ev.oov_tokens == []


def test_encode_source_dedups_oov():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    base, ext, ev = encode_source(["z", "z"], vocab)
    assert ev.oov_tokens == ["z"]
    assert ext == [len(vocab), len(vocab)]
    assert base == [UNK, UNK]


def test_encode_source_empty_errors():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    with pytest.raises(ValueError):
        encode_source([], vocab)


def test_extended_ids_never_collide_with_base():
    vocab = build_vocab([["a", "a", "b", "b"]], min_freq=0)
    _, ext, ev = encode_source(["a", "q", "b", "r"], vocab)
    base_range = set(range(len(vocab)))
    for tok in ev.oov_tokens:
        assert ev.ext_id(tok) not in base_range


def test_encode_target_in_vocab():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    ev = ExtendedVocab(vocab, [])
    assert encode_target(["a"], vocab, ev) == [vocab.token_to_id["a"], END]


def test_encode_target_copyable_rare_token():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    _, _, ev = encode_source(["a", "setUpClass"], vocab)
    ids = encode_target(["setUpClass"], vocab, ev)
    assert ids == [len(vocab), END]


def test_encode_target_true_oov_is_unk():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    _, _, ev = encode_source(["a"], vocab)
    assert encode_target(["qqq"], vocab, ev) == [UNK, END]


def test_decode_ids_roundtrip_identity():
    vocab = build_vocab([["a", "a", "b", "b"]], min_freq=0)
    ev = ExtendedVocab(vocab, [])
    tokens = ["a", "b", "a"]
    assert decode_ids(encode_target(tokens, vocab, ev), vocab, ev) == tokens


def test_decode_ids_extended_lookup():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    ev = ExtendedVocab(vocab, ["z"])
    assert decode_ids([len(vocab), END], vocab, ev) == ["z"]


def test_decode_ids_out_of_range():
    vocab = build_vocab([["a", "a"]], min_freq=0)
    ev = ExtendedVocab(vocab, ["z"])
    with pytest.raises(IndexError, match=str(len(vocab) + 1)):
        decode_ids([len(vocab) + 1], vocab, ev)


def test_roundtrip_randomized():
    rng = Rng(42)
    alphabet = [f"tok{i}" for i in range(30)]
    vocab = build_vocab([alphabet * 2], min_freq=0)
    extra = [f"rare{i}" for i in range(10)]
    for _ in range(100):
        src_len = rng.integers(1, 12)
        source = [(alphabet + extra)[rng.integers(0, 40)] for _ in range(src_len)]
        _, _, ev = encode_source(source, vocab)
        tgt_len = rng.integers(1, 8)
        pool = alphabet + ev.oov_tokens
        title = [pool[rng.integers(0, len(pool))] for _ in range(tgt_len)]
        assert decode_ids(encode_target(title, vocab, ev), vocab, ev) == title


def test_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab([["beta", "beta", "alpha", "alpha", "alpha"]], min_freq=0)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    first = path.read_text().splitlines()[0]
    assert first == "C2Q-VOCAB v1 count=2"
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.content_hash() == vocab.content_hash()


def test_vocab_file_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("WRONG\n")
    with pytest.raises(VocabFormatError):
        Vocabulary.load(path)


@pytest.mark.parametrize("token", ["", "bar baz", "tab\there", " lead", "\u2028"],
                         ids=["empty", "space", "tab", "leading-space", "line-separator"])
def test_vocab_file_bad_token_line(tmp_path, token):
    # no input token can ever match an empty or whitespace-holding entry
    path = tmp_path / "vocab.txt"
    path.write_text(f"C2Q-VOCAB v1 count=3\nfoo\n{token}\nbar\n", encoding="utf-8")
    with pytest.raises(VocabFormatError, match=re.escape(f"{path}:3: ")):
        Vocabulary.load(path)


# Arbitrary unicode tokens; titles also draw the special markers. The
# property covers exactly the token lists that the pair and snippet readers
# accept, and holds trivially for the ones they reject.
TOKEN = st.text(min_size=1, max_size=4)


@settings(max_examples=200)
@given(code=st.lists(TOKEN, min_size=1, max_size=8),
       title=st.lists(st.one_of(TOKEN, st.sampled_from(SPECIALS)), max_size=6),
       min_freq=st.integers(0, 2))
def test_vocab_roundtrip_over_accepted_tokens(code, title, min_freq):
    try:
        token_list(code, "code_tokens")
        token_list(title, "title_tokens")
    except DataError:
        return
    vocab = build_vocab([code, title], min_freq=min_freq)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vocab.txt")
        vocab.save(path)
        loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.content_hash() == vocab.content_hash()
    _, ext_ids, ev = encode_source(code, loaded)
    assert decode_ids(ext_ids, loaded, ev) == code
    copyable = set(loaded.id_to_token) | set(ev.oov_tokens)
    assert decode_ids(encode_target(title, loaded, ev), loaded, ev) == \
        [t if t in copyable else "<unk>" for t in title]


def test_failed_save_keeps_earlier_file(tmp_path):
    path = tmp_path / "vocab.txt"
    Vocabulary(list(SPECIALS) + ["a"]).save(str(path))
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        Vocabulary(list(SPECIALS) + ["a", "b", "\ud800"]).save(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["vocab.txt"]
