from __future__ import annotations

import json
import string
import time
from array import array
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
    Tokens,
    match_delimiters,
    normalize_newlines,
    token_bag,
    tokenize,
)

from helpers import CORPUS_DIR, FIXTURES_DIR, SCENARIOS_DIR, reference_tokenize


def kinds_and_texts(tokens) -> list[tuple[str, str]]:
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
    assert list(tokenize("")) == []


def test_comments_are_stripped():
    assert tokenize("/*c*/ a").texts == ("a",)
    assert tokenize("a // trailing\nb").texts == ("a", "b")
    assert tokenize("x /* multi\nline */ y").texts == ("x", "y")


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
    assert kinds_and_texts(list(tokens)[3:]) == [
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
    assert tokenize("a>>>=b").texts == ("a", ">>>=", "b")
    assert tokenize("a>>>b").texts == ("a", ">>>", "b")
    assert tokenize("x->y").texts == ("x", "->", "y")
    assert tokenize("List::of").texts == ("List", "::", "of")


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
    assert tokenize(tight).texts == tokenize(loose).texts


def test_operator_spacing_does_not_change_texts():
    assert tokenize("a+b").texts == tokenize("a + b").texts


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
# Blanks after a lexeme: before a newline, at the end, around other whitespace.
@example("a \t \nb \x0b c\u2028 d;\t ")
@example("a\x0b; \u2028 ; \x0b\tb")
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
        assert len(tokenize(source[end:start])) == 0
        end = start + len(tok.text)
    assert len(tokenize(source[end:])) == 0


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
    partners = _per_kind_depth_partners(texts)
    table, _, nested = match_delimiters(tuple(texts))
    assert table.tolist() == [p - i if p >= 0 else 0 for i, p in enumerate(partners)]
    # Pairs said to nest never cross: a pair opened inside another closes inside it.
    pairs = [(i, p) for i, p in enumerate(partners) if i < p]
    assert not nested or not any(a < c < b < d for a, b in pairs for c, d in pairs)


def test_match_delimiters_pairs_each_kind_on_its_own():
    tokens = tokenize("( { ) } ]")
    assert match_delimiters(tokens.texts) == (array("i", [2, 2, -2, -2, 0]), True, False)
    assert match_delimiters(tokenize("( { } ) ]").texts) == (array("i", [3, 1, -1, -3, 0]), True, True)
    # A revision pairs its delimiters once, on first read, and keeps the table.
    assert tokens.pairs == match_delimiters(tokens.texts)
    assert tokens.pairs is tokens.pairs


# --- token values and fingerprints ---------------------------------------------

def test_token_is_its_field_tuple_and_keeps_its_repr():
    tok = tokenize("\n  total")[0]
    assert tok == (TokenKind.IDENTIFIER, "total", 2, 3)
    assert (tok.kind, tok.text, tok.line, tok.column) == tok
    assert repr(tok) == "identifier('total'@2:3)"
    assert repr(list(tokenize('s = "a;"'))) == "[identifier('s'@1:1), operator('='@1:3), literal('\"a;\"'@1:5)]"


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
    assert tokens.texts == tuple(t.text for t in tokens)
    bag = token_bag(tokens.texts)
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
        assert list(tokenize(text)) == [(TokenKind.PUNCTUATION, text, 1, 1)]


# --- the columns against the per-token reference lexer -------------------------

def _outcome(lex, text):
    """What a lexer makes of the text: its tokens as tuples, or its LexError's message and line."""
    try:
        return [tuple(tok) for tok in lex(text)]
    except LexError as exc:
        return str(exc), exc.line


def _assert_columns_match_the_reference(text: str) -> None:
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


def _repository_texts() -> list[str]:
    """Every corpus, fixture and scenario source file, and every fragment a scenario pastes."""
    paths = [*CORPUS_DIR.rglob("*.java"), *FIXTURES_DIR.rglob("*.java"), *SCENARIOS_DIR.rglob("*.java")]
    texts = [path.read_text(encoding="utf-8") for path in sorted(paths)]
    for path in sorted(SCENARIOS_DIR.glob("*.json")):
        events = json.loads(path.read_text(encoding="utf-8")).get("events", [])
        texts += [event["fragment"] for event in events if "fragment" in event]
    return texts


def test_columns_match_the_reference_lexer_on_every_repository_source():
    texts = _repository_texts()
    assert len(texts) >= 30
    for text in texts:
        _assert_columns_match_the_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "a; // trailing",
        "a; /* trailing */",
        "a; \t ",
        "a;\n",
        "a;\n\n",
        "",
        "a /* never closed",
        'a;\nb = """\n never closed\n',
        "a;\n'",
        "x = '\\n",
        'String s = """\n  one\n  "two"\n  """;\nint n;',
        's = "a\\\nb"; t',
        "int ²x = 1;",
        "a ² b",
        "a\r\n  b\r\n\r\nc",
        "a\r\n/* x\r\n */ b\rc",
        "x\x85y \u2028 z",
        "a # b",
    ],
)
def test_columns_match_the_reference_lexer_on_edge_cases(text):
    _assert_columns_match_the_reference(text)


@given(st.one_of(_LEXER_PROBES, _WORDY_PROBES, st.text(max_size=60)))
def test_columns_match_the_reference_lexer_on_random_text(text):
    _assert_columns_match_the_reference(text)


def test_a_long_run_of_blanks_lexes_in_bounded_time():
    """The gap's nested `(?: \\s+ | ...)*` must never backtrack through the blanks it took."""
    for text in (" " * 100_000, " " * 100_000 + "a", "a" + " \n" * 50_000 + "/"):
        started = time.perf_counter()
        tokens = tokenize(text)
        assert time.perf_counter() - started < 1.0
        assert tokens.texts == tuple(text.split())


# --- splicing an edit into the previous revision's tokens -------------------

_JAVA_SOURCES = [
    path.read_text(encoding="utf-8")
    for path in sorted(CORPUS_DIR.rglob("*.java")) + sorted(FIXTURES_DIR.rglob("*.java"))
]

# Lexemes that open, close or extend a token, so an edit moves a boundary.
_SPLICE_INSERTS = ['"', "'", '"""', "/*", "*/", "//", "\\", "\r", "\n", "\u00b2", ">>", ".", "e", *string.digits]


@st.composite
def _edited(draw, text: str) -> str:
    """`text` after one to three random replacements of a short span."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        insert = "".join(draw(st.lists(st.sampled_from(_SPLICE_INSERTS), max_size=3)))
        text = text[:at] + insert + text[at + cut :]
    return text


def _lex_outcome(text: str, previous=None):
    try:
        return tokenize(text, previous)
    except LexError as exc:
        return str(exc), exc.line


def _assert_splice_is_a_full_lex(old: str, new: str) -> None:
    """All four columns and the gaps, or the first LexError, equal a full lex's."""
    try:
        old_tokens = tokenize(old)
    except LexError:
        return
    spliced = _lex_outcome(new, old_tokens)
    assert spliced == _lex_outcome(new)
    if isinstance(spliced, Tokens):
        assert [tuple(tok) for tok in spliced] == _outcome(reference_tokenize, new)


@given(
    st.sampled_from(_JAVA_SOURCES).flatmap(
        lambda old: st.tuples(st.just(old), _edited(old)).flatmap(lambda pair: st.tuples(st.just(pair), _edited(pair[1])))
    )
)
def test_splicing_a_spliced_revision_gives_a_full_lex(revisions):
    """The spliced columns, and the pair table spliced with them, serve as the previous revision of the next save."""
    (old, middle), new = revisions
    try:
        old_tokens = tokenize(old)
        old_tokens.pairs
        middle_tokens = tokenize(middle, old_tokens)
    except LexError:
        return
    assert middle_tokens.pairs == match_delimiters(middle_tokens.texts)
    spliced = _lex_outcome(new, middle_tokens)
    assert spliced == _lex_outcome(new)
    if isinstance(spliced, Tokens):
        assert spliced.pairs == match_delimiters(spliced.texts)


def test_a_splice_pairs_only_a_paired_revision_and_keeps_none_alive():
    old = tokenize("class A {\n    void f() { g(1); }\n    void h() { }\n}\n")
    assert "pairs" not in tokenize(old.text.replace("g(1)", "g(2)"), old).__dict__
    old.pairs
    new = tokenize(old.text.replace("g(1);", "g(1); k(2, (3));"), old)
    assert new.__dict__["pairs"] == match_delimiters(new.texts)
    assert new.window[1:] == (3, 14, 23)  # line 2, `void` to `}`, lexed again
    revision = new.window[0]
    del old
    assert revision() is None


@given(st.sampled_from(_JAVA_SOURCES).flatmap(lambda old: st.tuples(st.just(old), _edited(old))))
def test_splicing_an_edited_source_gives_a_full_lex(revisions):
    _assert_splice_is_a_full_lex(*revisions)


@given(_LEXER_PROBES.flatmap(lambda old: st.tuples(st.just(old), st.one_of(_edited(old), _LEXER_PROBES))))
# The match ahead of a change reads up to three characters past its end.
@example(("x = 1+5;", "x = 1e+5;"))
@example(("a /b", "a /*b"))
@example(('s = ""; t', 's = """; t'))
# Lines moved, so the same line and column in the old text hold another token.
@example(("a\nb\n", "a\nc\nb\n"))
@example(("a\nb c\n", "a\nb\nc\n"))
# Edits inside the blanks that a match takes after its lexeme.
@example(("a ;", "a  ;"))
@example(("a ;", "a;"))
@example(("a ;\t ", "a ; "))
@example(("a \t\nb", "a \nb"))
# The window ends inside a comment or text block that the edit opened or closed.
@example(("a\nb\nc\nd\n", "a\n/*b\nc\nd\n"))
@example(("a\n/*b\nc*/\nd\n", "a\nb\nc*/\nd\n"))
@example(('a\nb\n"""\nc\n"""\nd', 'a\nb\n"""\nc\n""";\nd'))
@example(("x\n/* a\n b */ y\n", "x\n/* a\n c */ y\n"))
def test_splicing_a_short_edit_gives_a_full_lex(revisions):
    _assert_splice_is_a_full_lex(*revisions)
