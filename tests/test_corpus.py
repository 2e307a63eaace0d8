import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2q import corpus
from c2q.corpus import (QCPair, RawPost, SplitSpec, extract_pairs,
                        filter_pairs, make_pair, split_dataset,
                        tokenize_code, tokenize_title)


def post(pid, score=1, title="How to do x?", body="<code>\nx = 1\n</code>",
         lang="python"):
    return RawPost(id=pid, lang=lang, title=title, body=body, score=score)


def test_extract_excludes_low_score():
    cands, report = extract_pairs([post(1, score=0)])
    assert cands == []
    assert report.low_score == 1


def test_extract_minimal_passing_case():
    cands, report = extract_pairs([post(1, score=1)])
    assert len(cands) == 1
    assert cands[0].code == "x = 1"
    assert report.total == 0


def test_extract_counts_missing_code_blocks():
    posts = [post(i) for i in range(7)] + \
            [post(i, body="plain text") for i in range(7, 10)]
    cands, report = extract_pairs(posts)
    assert len(cands) == 7
    assert report.no_code == 3


def test_extract_concatenates_blocks_in_order():
    body = "a\n<code>\nfirst\n</code>\nmid\n<code>\nsecond\n</code>"
    cands, _ = extract_pairs([post(1, body=body)])
    assert cands[0].code == "first\nsecond"


def test_extract_skips_empty_title_and_malformed():
    posts = [post(1, title="  "), post(2, body="<code>\nx\n")]
    cands, report = extract_pairs(posts)
    assert cands == []
    assert report.empty_title == 1
    assert report.malformed_markers == 1
    assert report.skipped_ids == [1, 2]


@pytest.mark.parametrize("text,lang,expected", [
    ("x = 42  # answer", "python", ["x", "=", "NUMBER"]),
    ('print("hi")', "python", ["print", "(", "STRING", ")"]),
    ("int a=1; /*c*/ int b=2;", "java",
     ["int", "a", "=", "NUMBER", ";", "int", "b", "=", "NUMBER", ";"]),
    ("let s = `tpl`; // done", "javascript", ["let", "s", "=", "STRING", ";"]),
    ("SELECT 'a''b' -- note\nFROM t", "sql", ["SELECT", "STRING", "FROM", "t"]),
    ('s = """multi\nline"""', "python", ["s", "=", "STRING"]),
    ("y = 3.14e-2f + 0xFF", "java", ["y", "=", "NUMBER", "+", "NUMBER"]),
])
def test_tokenize_code_examples(text, lang, expected):
    assert tokenize_code(text, lang) == expected


def test_tokenize_code_unterminated_string():
    warnings = []
    tokens = tokenize_code('x = "oops\ny = 1', "python", warnings)
    assert tokens == ["x", "=", "STRING", "y", "=", "NUMBER"]
    assert len(warnings) == 1


def test_tokenize_code_unsupported_language():
    with pytest.raises(corpus.DataError):
        tokenize_code("x", "fortran")


def test_tokenize_code_idempotent():
    samples = [
        ("def f(a):\n    return a + 1  # inc", "python"),
        ('if (x>0) { s = "neg"; } /* b */', "java"),
        ("SELECT a, 'lit' FROM t WHERE x > 10;", "sql"),
    ]
    for text, lang in samples:
        tokens = tokenize_code(text, lang)
        assert tokenize_code(" ".join(tokens), lang) == tokens


def test_tokens_nonempty_and_whitespace_free():
    cands, _ = extract_pairs([post(1, body="<code>\nfor i in range(3):\n"
                                            "    print(i)\n</code>")])
    pair = make_pair(cands[0])
    for tok in pair.code_tokens + pair.title_tokens:
        assert tok and not any(ch.isspace() for ch in tok)


@pytest.mark.parametrize("text,expected", [
    ("How to remove a key?", ["how", "to", "remove", "a", "key", "?"]),
    ("C# vs. Java", ["c", "#", "vs", ".", "java"]),
    ("", []),
    ("   ", []),
])
def test_tokenize_title(text, expected):
    assert tokenize_title(text) == expected


def qc(pid, title_tokens, code_len):
    return QCPair(id=pid, lang="python", code_tokens=["t"] * code_len,
                  title_tokens=title_tokens)


def test_filter_keeps_valid_pair():
    kept, _ = filter_pairs([qc(1, ["how", "to", "sort", "list"], 50)])
    assert len(kept) == 1


def test_filter_rejects_no_keyword():
    kept, rejected = filter_pairs([qc(1, ["sorting", "lists"], 50)])
    assert kept == []
    assert rejected["no_keyword"] == 1


def test_filter_rejects_code_too_long():
    kept, rejected = filter_pairs([qc(1, ["how", "to", "x", "y"], 129)])
    assert kept == []
    assert rejected["code_too_long"] == 1


def test_filter_bounds_exact():
    pairs = [qc(1, ["how", "a", "b", "c"], 16), qc(2, ["how", "a", "b", "c"], 128),
             qc(3, ["how", "a", "b", "c"], 15), qc(4, ["how", "a", "b", "c"], 129)]
    kept, _ = filter_pairs(pairs)
    assert [p.id for p in kept] == [1, 2]
    for p in kept:
        assert 16 <= len(p.code_tokens) <= 128
        assert 4 <= len(p.title_tokens) <= 16
        assert {t.lower() for t in p.title_tokens} & corpus.INTERROGATIVES


def _pairs(n):
    return [qc(i, ["how", "a", "b", "c"], 20) for i in range(n)]


def test_split_deterministic_partition():
    pairs = _pairs(100)
    split = SplitSpec(val_count=10, test_count=10, seed=7)
    train, val, test = split_dataset(pairs, split)
    train2, val2, test2 = split_dataset(pairs, split)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    assert [p.id for p in train] == [p.id for p in train2]
    assert [p.id for p in val] == [p.id for p in val2]
    assert [p.id for p in test] == [p.id for p in test2]
    ids = {p.id for p in train} | {p.id for p in val} | {p.id for p in test}
    assert ids == {p.id for p in pairs}
    assert not ({p.id for p in train} & {p.id for p in val})
    assert not ({p.id for p in train} & {p.id for p in test})
    assert not ({p.id for p in val} & {p.id for p in test})


def test_split_too_few_pairs_errors():
    with pytest.raises(ValueError, match="at least 21"):
        split_dataset(_pairs(20), SplitSpec(val_count=10, test_count=10, seed=1))


def test_split_seed_changes_membership():
    pairs = _pairs(100)
    _, _, test7 = split_dataset(pairs, SplitSpec(10, 10, seed=7))
    _, _, test8 = split_dataset(pairs, SplitSpec(10, 10, seed=8))
    assert {p.id for p in test7} != {p.id for p in test8}


def test_pairs_jsonl_roundtrip(tmp_path):
    pairs = [qc(1, ["how", "a", "b", "c"], 20), qc(2, ["what", "x", "y", "?"], 30)]
    path = tmp_path / "pairs.jsonl"
    corpus.write_pairs(pairs, path)
    loaded = corpus.read_pairs(path)
    assert [(p.id, p.code_tokens, p.title_tokens) for p in loaded] == \
           [(p.id, p.code_tokens, p.title_tokens) for p in pairs]


def test_failed_write_pairs_keeps_earlier_file(tmp_path):
    path = tmp_path / "pairs.jsonl"
    corpus.write_pairs([qc(1, ["how", "a", "b", "c"], 20)], path)
    before = path.read_bytes()
    # the second record cannot be serialized, after the first was written
    broken = [qc(2, ["what", "x", "y", "?"], 30), qc(3, ["how", "z"], 20)]
    broken[1].title_tokens = [object()]
    with pytest.raises(TypeError):
        corpus.write_pairs(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["pairs.jsonl"]  # no temp file left


@pytest.mark.parametrize("field,value", [
    ("code_tokens", "abc"), ("code_tokens", ["a", ""]), ("code_tokens", [1, 2]),
    ("title_tokens", "how"), ("title_tokens", None),
    # tokens hold no whitespace and are no special marker
    ("code_tokens", ["a\nb"]), ("code_tokens", ["c\rd"]), ("code_tokens", ["x", "a b"]),
    ("code_tokens", ["\u2028"]), ("code_tokens", ["<unk>"]), ("title_tokens", ["how", "<end>"]),
    ("title_tokens", ["<pad>"]), ("title_tokens", ["<start>", "x"]),
])
def test_read_pairs_requires_lists_of_nonempty_strings(tmp_path, field, value):
    record = {"id": 1, "lang": "python", "code_tokens": ["x"],
              "title_tokens": ["how"], field: value}
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(corpus.DataError, match=field):
        corpus.read_pairs(path)


def test_token_list_accepts_marker_text_spread_over_tokens():
    # tokenize_code("a<end>b") is a valid token list that joins to "a<end>b"
    tokens = tokenize_code("a<end>b", "java")
    assert corpus.token_list(tokens, "code_tokens") == ["a", "<", "end", ">", "b"]
    assert corpus.token_list([], "title_tokens") == []


_POST = '"lang": "python", "title": "How?", "body": "<code>\\nx\\n</code>"'
_PAIR = '"lang": "python", "code_tokens": ["x"], "title_tokens": ["how"]'


@pytest.mark.parametrize("reader,line", [
    (corpus.read_posts, '{"id": 1e400, "score": 1, %s}' % _POST),
    (corpus.read_posts, '{"id": 1, "score": -1e400, %s}' % _POST),
    (corpus.read_posts, '{"id": 1, "score": Infinity, %s}' % _POST),
    (corpus.read_pairs, '{"id": 1e400, %s}' % _PAIR),
], ids=["post-id", "post-score", "post-score-infinity", "pair-id"])
def test_readers_reject_overflowing_numbers(tmp_path, reader, line):
    path = tmp_path / "records.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(corpus.DataError, match=f"{path}:1:"):
        reader(path)


@pytest.mark.parametrize("value", ["1.9", "true", '"1"'], ids=["float", "bool", "string"])
@pytest.mark.parametrize("reader,template", [
    (corpus.read_posts, '{"id": %s, "score": 1, ' + _POST + '}'),
    (corpus.read_posts, '{"id": 1, "score": %s, ' + _POST + '}'),
    (corpus.read_pairs, '{"id": %s, ' + _PAIR + '}'),
], ids=["post-id", "post-score", "pair-id"])
def test_readers_require_json_integers(tmp_path, reader, template, value):
    # int() would read all three as 1, so distinct records could share an id
    path = tmp_path / "records.jsonl"
    path.write_text(template.replace("%s", "7") + "\n" + template.replace("%s", value) + "\n")
    with pytest.raises(corpus.DataError, match=f"{path}:2:.*integer"):
        reader(path)


@pytest.mark.parametrize("lang", corpus.LANGS)
def test_tokenize_code_unicode_digits(lang):
    # str.isdigit accepts superscripts and circled digits, \d only decimals
    tokens = tokenize_code("x = 2\u00b2 + \u00b3 + \u0663 + \u2460 + 7", lang)
    assert tokens == ["x", "=", "NUMBER", "\u00b2", "+", "\u00b3", "+", "NUMBER",
                      "+", "\u2460", "+", "NUMBER"]


def test_read_posts_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 1}\n')
    with pytest.raises(corpus.DataError):
        corpus.read_posts(path)


@pytest.mark.parametrize("field,value", [
    ("title", 5), ("body", ["a"]), ("lang", None),
])
def test_read_posts_rejects_non_string_fields(tmp_path, field, value):
    record = {"id": 1, "lang": "python", "title": "How to sort?",
              "body": "<pre><code>x = 1</code></pre>", "score": 3, field: value}
    path = tmp_path / "posts.jsonl"
    path.write_text("\n" + json.dumps(record) + "\n")
    with pytest.raises(corpus.DataError, match=f"{path}:2:"):
        corpus.read_posts(path)


# Comment, string and number openers of the five languages, so arbitrary
# text also reaches every branch of the scanner.
CODE_FRAGMENTS = st.sampled_from(["#", "//", "--", "/*", "*/", "'", '"', "`", '"""',
                                  "@\"", "\\", "\n", "0x", "1e", "9.", "_a"])


@settings(max_examples=300)
@given(text=st.lists(st.one_of(st.text(), CODE_FRAGMENTS)).map("".join),
       lang=st.sampled_from(corpus.LANGS))
def test_tokenize_code_total_over_unicode(text, lang):
    tokens = tokenize_code(text, lang, warnings=[])
    assert all(isinstance(tok, str) and tok for tok in tokens)
    assert not any(ch.isspace() for tok in tokens for ch in tok)


def _scanned_tokenize_code(text, lang, warnings):
    """The per-character scanner that ``tokenize_code`` replaced, kept as
    the reference its single pattern per language must match."""
    syn = corpus._SYNTAX[lang]
    number = re.compile(corpus._NUMBER)
    ident_start, ident = re.compile(r"[A-Za-z_]"), re.compile(r"[A-Za-z0-9_]")

    def match_any(i, marks):
        return next((mark for mark in marks if text.startswith(mark, i)), None)

    def line_end(i):
        end = text.find("\n", i)
        return len(text) if end < 0 else end

    def scan_string(i, delim):
        j = i + len(delim)
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
        warnings.append(f"unterminated string literal at offset {i}")
        return line_end(i)

    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if match_any(i, syn.line_comments):
            i = line_end(i)
            continue
        block = next((b for b in syn.block_comments if text.startswith(b[0], i)), None)
        if block:
            end = text.find(block[1], i + len(block[0]))
            if end < 0:
                warnings.append(f"unterminated block comment at offset {i}")
                i = n
            else:
                i = end + len(block[1])
            continue
        delim = match_any(i, syn.string_delims)
        if delim:
            i = scan_string(i, delim)
            tokens.append("STRING")
            continue
        m = number.match(text, i) if ch.isdigit() else None
        if m:
            tokens.append("NUMBER")
            i = m.end()
            continue
        if ident_start.match(ch):
            j = i + 1
            while j < n and ident.match(text[j]):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        tokens.append(ch)
        i += 1
    return tokens


@settings(max_examples=400)
@given(text=st.lists(st.one_of(st.text(), CODE_FRAGMENTS,
                               st.sampled_from(["'''", "''", "\\\n", "\r\n", "/*/", "0xZ"])))
       .map("".join))
def test_tokenize_code_matches_scanner(text):
    for lang in corpus.LANGS:
        expected_warnings, warnings = [], []
        expected = _scanned_tokenize_code(text, lang, expected_warnings)
        assert tokenize_code(text, lang, warnings) == expected, lang
        assert warnings == expected_warnings, lang
