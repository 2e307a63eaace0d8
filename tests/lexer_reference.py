"""The one-pattern-per-language tokenizer that ``corpus.tokenize_code``
replaced, as it stood before each match skipped the whitespace in front of
it: whitespace was an alternative of its own, and identifiers shared the
last alternative with single characters. Tests compare the two, tokens and
warnings alike.
"""

import re

from c2q import corpus


def _lexer(syn):
    alts = [(r"\s+", None, None)]
    alts += [(re.escape(mark) + r"[^\n]*", None, None) for mark in syn.line_comments]
    for open_mark, close_mark in syn.block_comments:
        o, c = re.escape(open_mark), re.escape(close_mark)
        alts += [(f"{o}.*?{c}", None, None), (f"{o}.*", None, "unterminated block comment")]
    for delim in syn.string_delims:
        closed, open_ = corpus._string_patterns(delim, syn)
        alts += [(closed, "STRING", None), (open_, "STRING", "unterminated string literal")]
    alts += [(corpus._NUMBER, "NUMBER", None), (r"[A-Za-z_][A-Za-z0-9_]*|.", "", None)]
    pattern = re.compile("|".join(f"({a})" for a, _, _ in alts), re.DOTALL)
    return pattern, (None,) + tuple((token, warning) for _, token, warning in alts)


_LEXERS = {lang: _lexer(syn) for lang, syn in corpus._SYNTAX.items()}


def tokenize_code(text, lang, warnings=None):
    pattern, actions = _LEXERS[lang]
    tokens = []
    for m in pattern.finditer(text):
        token, warning = actions[m.lastindex]
        if warning and warnings is not None:
            warnings.append(f"{warning} at offset {m.start()}")
        if token is not None:
            tokens.append(token or m.group())
    return tokens
