from __future__ import annotations

import string
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anticopypaster.errors import LexError
from anticopypaster.lexer import (
    JAVA_KEYWORDS,
    PUNCTUATION_LEXEMES,
    WORD_LITERALS,
    Token,
    TokenKind,
    match_delimiters,
    normalize_newlines,
    token_bag,
    token_texts,
    tokenize,
)


def kinds_and_texts(tokens: list[Token]) -> list[tuple[str, str]]:
    return [(t.kind.value, t.text) for t in tokens]


def test_simple_statement_token_stream():
    assert kinds_and_texts(tokenize("int x=0;")) == [
        ("keyword", "int"),
        ("identifier", "x"),
        ("operator", "="),
        ("literal", "0"),
        ("punctuation", ";"),
    ]


def test_empty_input_yields_no_tokens():
    assert tokenize("") == []


def test_comments_are_stripped():
    assert token_texts(tokenize("/*c*/ a")) == ("a",)
    assert token_texts(tokenize("a // trailing\nb")) == ("a", "b")
    assert token_texts(tokenize("x /* multi\nline */ y")) == ("x", "y")


def test_keyword_set_is_the_fifty_reserved_words():
    assert len(JAVA_KEYWORDS) == 50
    assert "goto" in JAVA_KEYWORDS and "const" in JAVA_KEYWORDS
    # true/false/null are literals, not keywords
    for word in ("true", "false", "null"):
        assert word not in JAVA_KEYWORDS
        (tok,) = tokenize(word)
        assert tok.kind is TokenKind.LITERAL


def test_positions_are_one_based():
    tokens = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


def test_crlf_and_lf_agree_on_positions():
    assert tokenize("a\r\nb") == tokenize("a\nb")


def test_string_and_char_literals_are_single_tokens():
    tokens = tokenize('say("he;llo { }", \'x\');')
    literals = [t for t in tokens if t.kind is TokenKind.LITERAL]
    assert [t.text for t in literals] == ['"he;llo { }"', "'x'"]


def test_escaped_quote_stays_inside_literal():
    (tok, _) = tokenize(r'"a\"b";')
    assert tok.text == r'"a\"b"'


def test_unterminated_string_reports_line():
    with pytest.raises(LexError) as err:
        tokenize('a\n"open')
    assert err.value.line == 2


def test_text_block_is_one_literal_spanning_its_lines():
    tokens = tokenize('String s = """\n  hi "q"\n  """;\nx')
    assert kinds_and_texts(tokens[3:]) == [
        ("literal", '"""\n  hi "q"\n  """'),
        ("punctuation", ";"),
        ("identifier", "x"),
    ]
    assert (tokens[3].line, tokens[4].line, tokens[5].line) == (1, 3, 4)


def test_escaped_quotes_stay_inside_a_text_block():
    (tok, semi) = tokenize('"""\n a \\""" b \\\\\n""";')
    assert tok.text == '"""\n a \\""" b \\\\\n"""'
    assert semi.text == ";"


def test_unterminated_text_block_reports_its_opening_line():
    with pytest.raises(LexError) as err:
        tokenize('a\nb = """\n never closed ""\n')
    assert err.value.line == 2
    assert "text block" in str(err.value)


def test_unterminated_block_comment_is_an_error():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_maximal_munch_for_compound_operators():
    assert token_texts(tokenize("a>>>=b")) == ("a", ">>>=", "b")
    assert token_texts(tokenize("a>>>b")) == ("a", ">>>", "b")
    assert token_texts(tokenize("x->y")) == ("x", "->", "y")
    assert token_texts(tokenize("List::of")) == ("List", "::", "of")


def test_varargs_ellipsis_is_one_token():
    tokens = tokenize("f(int... xs)")
    assert ("punctuation", "...") in kinds_and_texts(tokens)


def test_numeric_literal_shapes():
    for source in ("0x1F", "0b1010", "3.14", "2.5e-3", "10L", "1_000", ".5f"):
        (tok,) = tokenize(source)
        assert tok.kind is TokenKind.LITERAL, source
        assert tok.text == source


def test_annotation_lexes_as_punctuation_plus_identifier():
    tokens = tokenize("@Override")
    assert kinds_and_texts(tokens) == [("punctuation", "@"), ("identifier", "Override")]


_WORDS = st.sampled_from(["a", "bee", "if", "while", "x1", "0", "42", "sum"])


@given(st.lists(_WORDS, min_size=1, max_size=8), st.sampled_from([" ", "  ", "\t", "\n"]))
def test_tokenization_is_whitespace_insensitive(words, sep):
    tight = " ".join(words)
    loose = sep.join(words)
    assert token_texts(tokenize(tight)) == token_texts(tokenize(loose))


def test_operator_spacing_does_not_change_texts():
    assert token_texts(tokenize("a+b")) == token_texts(tokenize("a + b"))


_LEXER_PROBES = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("\"'/*\\\n\r\x00 0123456789.eExXbBlLfF_+-<>=!&|^~?:;,(){}[]@")),
        st.characters(),
    ),
    max_size=40,
)


@given(_LEXER_PROBES)
@example("a ² b")
@example("1.٣")
def test_tokenize_raises_only_lex_errors(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert all(tok.text for tok in tokens)


def _offset(lines: list[str], tok: Token) -> int:
    return sum(len(line) + 1 for line in lines[: tok.line - 1]) + tok.column - 1


@given(_LEXER_PROBES)
@example('a /* c\n */ "x\\\ny" """\n t\n""" b')
@example("x\x85y \u2028 z")
def test_tokens_sit_at_their_positions_and_gaps_lex_to_nothing(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    source = normalize_newlines(text)
    lines = source.split("\n")
    end = 0
    for tok in tokens:
        start = _offset(lines, tok)
        assert source[start : start + len(tok.text)] == tok.text
        assert tokenize(source[end:start]) == []
        end = start + len(tok.text)
    assert tokenize(source[end:]) == []


@given(_LEXER_PROBES)
@example('0x1F .5f 1e 1.e3 ... >>>= a\u00b2 """\n"""')
def test_each_token_lexes_alone_to_itself(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    for tok in tokens:
        (alone,) = tokenize(tok.text)
        assert (alone.kind, alone.text) == (tok.kind, tok.text)


def _per_kind_depth_partners(texts: list[str]) -> list[int]:
    closer_of = {"(": ")", "[": "]", "{": "}"}
    partner = [-1] * len(texts)
    for i, opener in enumerate(texts):
        if opener not in closer_of:
            continue
        depth = 0
        for j in range(i, len(texts)):
            if texts[j] == opener:
                depth += 1
            elif texts[j] == closer_of[opener]:
                depth -= 1
                if depth == 0:
                    partner[i] = j
                    partner[j] = i
                    break
    return partner


@given(st.lists(st.sampled_from(list("(){}[]") + ["x", ";", "+"]), max_size=30))
def test_match_delimiters_agrees_with_a_per_kind_depth_scan(texts):
    tokens = [Token(TokenKind.PUNCTUATION, text, 1, i + 1) for i, text in enumerate(texts)]
    assert match_delimiters(tokens) == _per_kind_depth_partners(texts)


def test_match_delimiters_pairs_each_kind_on_its_own():
    assert match_delimiters(tokenize("( { ) } ]")) == [2, 3, 0, 1, -1]


# --- token values and fingerprints ---------------------------------------------

def test_token_is_its_field_tuple_and_keeps_its_repr():
    tok = tokenize("\n  total")[0]
    assert tok == (TokenKind.IDENTIFIER, "total", 2, 3)
    assert (tok.kind, tok.text, tok.line, tok.column) == tok
    assert repr(tok) == "identifier('total'@2:3)"
    assert repr(tokenize('s = "a;"')) == "[identifier('s'@1:1), operator('='@1:3), literal('\"a;\"'@1:5)]"


# Words repeat, so the same lexeme comes out of several matches.
_WORDY_PROBES = st.lists(
    st.sampled_from(["total", "count", "if", "null", "x1", "$v", "_", " ", "\n", "(", ";", "+=", "\"s\""]),
    max_size=40,
).map("".join)


@given(_WORDY_PROBES)
@example("total = total + count; if (count) total++;")
def test_equal_words_within_one_call_are_one_string_object(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    first: dict[str, str] = {}
    for tok in tokens:
        if tok.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD) or tok.text in WORD_LITERALS:
            assert tok.text is first.setdefault(tok.text, tok.text)


@given(st.one_of(_LEXER_PROBES, _WORDY_PROBES))
@example("f(a, b); int[] xs = {1, 2}; g(...); @A x = y;")
def test_fingerprints_agree_with_their_per_token_definitions(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert token_texts(tokens) == tuple(t.text for t in tokens)
    bag = token_bag(tokens)
    expected = Counter(t.text for t in tokens if t.kind != TokenKind.PUNCTUATION)
    assert bag == expected
    assert list(bag) == list(expected)  # first-appearance order
    for tok in tokens:
        assert (tok.kind is TokenKind.PUNCTUATION) == (tok.text in PUNCTUATION_LEXEMES)


def test_punctuation_lexemes_are_what_the_punctuation_group_emits():
    emitted = set()
    for size in (1, 2, 3):
        for chars in product(string.punctuation, repeat=size):
            try:
                tokens = tokenize("".join(chars))
            except LexError:
                continue
            emitted.update(t.text for t in tokens if t.kind is TokenKind.PUNCTUATION)
    assert emitted == PUNCTUATION_LEXEMES
    for text in PUNCTUATION_LEXEMES:
        assert tokenize(text) == [(TokenKind.PUNCTUATION, text, 1, 1)]
