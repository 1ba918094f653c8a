"""Java lexer.

Turns source text into a flat token stream with 1-based positions, by
one pass of a compiled master regex whose named groups are the lexeme
classes (the "Writing a Tokenizer" recipe of the `re` docs). Whitespace
and comments never produce tokens; string and character literals, text
blocks included, are emitted as single literal tokens with their quotes.
Line endings are normalized to LF before scanning, so positions are
stable across CRLF and LF inputs; only LF starts a new line.

A `Token` is a `NamedTuple` `(kind, text, line, column)`, so it equals
the plain tuple of its fields. Within one `tokenize` call, equal words
share one `str` object.

Given the previous revision of the same file, `tokenize` lexes only
from a token boundary just ahead of the first changed character until
it is back in the unchanged tail, and reuses the old tokens from there
(the incremental scheme of Wagner & Graham, PLDI 1997). A save then
costs what it changed, with the same tokens a full lex gives.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import LexError


class TokenKind(str, Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    LITERAL = "literal"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.text!r}@{self.line}:{self.column})"


# The 50 reserved Java words. true/false/null are literals, not keywords.
JAVA_KEYWORDS = frozenset(
    {
        "abstract", "assert", "boolean", "break", "byte", "case", "catch",
        "char", "class", "const", "continue", "default", "do", "double",
        "else", "enum", "extends", "final", "finally", "float", "for",
        "goto", "if", "implements", "import", "instanceof", "int",
        "interface", "long", "native", "new", "package", "private",
        "protected", "public", "return", "short", "static", "strictfp",
        "super", "switch", "synchronized", "this", "throw", "throws",
        "transient", "try", "void", "volatile", "while",
    }
)

WORD_LITERALS = frozenset({"true", "false", "null"})

# One compiled alternation, tried left to right: the first alternative
# that matches wins, not the longest. So each closed form precedes its
# unclosed opener, `"""` is tried before `""`, and operators run longest
# first. Numbers start only at ASCII digits. Each match also takes the
# spaces and tabs after it, so most tokens need no `skip` match between them.
_TOKEN = re.compile(
    r'''
    (?:
      (?P<skip> \s+ | //[^\n]* | /\*[\s\S]*?\*/ )
    | (?P<literal>
          "{3} (?: [^"\\] | \\[\s\S] | "(?!"") )* "{3}
        | "(?!"") (?: [^"\\\n] | \\[\s\S] )* "
        | ' (?: [^'\\\n] | \\[\s\S] )* '
        | 0[xX][0-9a-fA-F_]* [lLfFdD]?
        | 0[bB][01_]* [lLfFdD]?
        | (?: [0-9][0-9_]* (?: \.[0-9][0-9_]* )? | \.[0-9][0-9_]* )
          (?: [eE][+-]?[0-9][0-9_]* )? [lLfFdD]?
      )
    | (?P<unclosed> /\* | "{3} | ["'] )
    | (?P<word> [\w$]+ )
    | (?P<punctuation> \.\.\. | [;,(){}\[\]@] )
    | (?P<operator>
          >>>= | >>> | <<= | >>= | [-+*/%&|^=!<>]= | && | \|\| | \+\+ | --
        | << | >> | -> | :: | [-+*/%=<>!&|^~?:.]
      )
    | (?P<other> [\s\S] )
    ) [ \t]*
    ''',
    re.VERBOSE,
)

# Every lexeme the `punctuation` group above can match.
PUNCTUATION_LEXEMES = frozenset({"...", ";", ",", "(", ")", "{", "}", "[", "]", "@"})

_GROUP_KINDS = {
    "literal": TokenKind.LITERAL,
    "punctuation": TokenKind.PUNCTUATION,
    "operator": TokenKind.OPERATOR,
}
_WORD_KINDS = {
    **dict.fromkeys(JAVA_KEYWORDS, TokenKind.KEYWORD),
    **dict.fromkeys(WORD_LITERALS, TokenKind.LITERAL),
}
_UNCLOSED = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated string literal",
}


def normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


# No match reads more than three characters past its end, trailing blanks
# included (`1e+x` ends at `1` after reading `e+x`), so a match that ends
# this far ahead of a change read only unchanged text.
_LOOKAHEAD = 3

_position = itemgetter(2, 3)


def tokenize(text: str, previous: tuple[str, list[Token]] | None = None) -> list[Token]:
    """Lex arbitrary UTF-8 source text into tokens.

    Raises LexError with the starting line for unterminated block
    comments, string/char literals and text blocks, and for a character
    that starts no token.

    `previous`, an earlier revision's `(text, tokenize(text))`, lets the
    call lex only what changed: it keeps the old tokens ahead of the first
    changed character, restarts at the last of them that begins at least
    `_LOOKAHEAD` characters before it, and once the lexer is back in the
    unchanged tail at a spot where an old token began, reuses the old
    tokens from there with their lines shifted. The result, and the first
    LexError, are those of `tokenize(text)`.
    """
    text = normalize_newlines(text)
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    # A line that starts past `resync_after` lies in the unchanged tail;
    # without a previous revision, none does.
    resync_after = len(text)
    old_tokens, kept, shift = tokens, 0, 0
    if previous is not None:
        old, old_tokens = previous
        old = normalize_newlines(old)
        prefix = _common_prefix(old, text)
        # The suffix may not overlap the prefix in either text.
        suffix = min(_common_prefix(old[::-1], text[::-1]), min(len(old), len(text)) - prefix)
        kept, pos, line, line_start = _restart(old, old_tokens, prefix - _LOOKAHEAD)
        tokens = old_tokens[:kept]
        resync_after = len(text) - suffix
        # Old line minus new line, for any position in the tail.
        shift = old.count("\n", prefix, len(old) - suffix) - text.count("\n", prefix, resync_after)
    append = tokens.append
    new_token = tuple.__new__
    # Equal words share one str, which wins back the memory a tuple token
    # costs over a slotted object. Per call, not sys.intern: interned strings
    # can outlive every token that held them.
    same_word = {}.setdefault
    word_kind = _WORD_KINDS.get
    identifier, literal = TokenKind.IDENTIFIER, TokenKind.LITERAL
    for m in _TOKEN.finditer(text, pos):
        group = m.lastgroup
        lexeme = m[group]
        # Only `\n` ends a line; `\x85` or `\u2028` is whitespace within one.
        # Of the lexemes that make tokens, only literals can span lines.
        if group == "skip":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rindex("\n") + 1
                if line_start > resync_after:
                    # The text from here on is the old text's from here on.
                    # Where an old token began, the old lex matched the same.
                    at = (line + shift, m.end() - line_start + 1)
                    j = bisect_left(old_tokens, at, kept, key=_position)
                    if j < len(old_tokens) and _position(old_tokens[j]) == at:
                        rest = old_tokens[j:]
                        if shift:
                            rest = [new_token(Token, (k, t, n - shift, c)) for k, t, n, c in rest]
                        tokens += rest
                        return tokens
            continue
        if group == "word":
            # `[\w$]` also starts at `²`, `½` or `Ⅻ`; identifiers start
            # only where str.isalpha holds.
            if not (lexeme[0].isalpha() or lexeme[0] in "_$"):
                raise LexError(f"unexpected character {lexeme[0]!r}", line)
            lexeme = same_word(lexeme, lexeme)
            kind = word_kind(lexeme, identifier)
        elif group in _GROUP_KINDS:
            kind = _GROUP_KINDS[group]
        else:
            raise LexError(_UNCLOSED.get(lexeme, f"unexpected character {lexeme!r}"), line)
        start = m.start()
        append(new_token(Token, (kind, lexeme, line, start - line_start + 1)))
        if kind is literal and "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = start + lexeme.rindex("\n") + 1
    return tokens


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, by bisecting on slice equality."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _restart(old: str, old_tokens: list[Token], before: int) -> tuple[int, int, int, int]:
    """Where to resume lexing: the last old token that begins at or before `before`.

    Returns its index, its offset, its line and the offset where that line
    starts; the start of the text when no token begins that early.
    """
    if before < 0:
        return 0, 0, 1, 0
    line = old.count("\n", 0, before) + 1
    line_start = old.rfind("\n", 0, before) + 1
    k = bisect_right(old_tokens, (line, before - line_start + 1), key=_position) - 1
    if k < 0:
        return 0, 0, 1, 0
    _, _, token_line, column = old_tokens[k]
    for _ in range(line - token_line):
        line_start = old.rfind("\n", 0, line_start - 1) + 1
    return k, line_start + column - 1, token_line, line_start


_text_of = attrgetter("text")


def token_texts(tokens: list[Token]) -> tuple[str, ...]:
    """Normalized token sequence: verbatim lexemes, positions dropped."""
    return tuple(map(_text_of, tokens))


def find_run(
    tokens: list[Token], texts: tuple[str, ...], first: tuple[int, int], stop: tuple[int, int]
) -> int:
    """Index of the first token in [first, stop) that starts a run equal to `texts`, or -1.

    `first` and `stop` are (line, column) positions, in the tokens' order.
    """
    start = bisect_left(tokens, first, key=_position)
    for i in range(start, bisect_left(tokens, stop, start, key=_position)):
        if token_texts(tokens[i : i + len(texts)]) == texts:
            return i
    return -1


def token_bag(tokens: list[Token]) -> Counter[str]:
    """Multiset of token texts, punctuation excluded.

    Keys keep the order of their first appearance in `tokens`, so the
    duplicate scan breaks ties between equally rare words the same way
    on every run.
    """
    bag = Counter(map(_text_of, tokens))
    for text in PUNCTUATION_LEXEMES:
        bag.pop(text, None)
    return bag


_OPENER_OF = {")": "(", "]": "[", "}": "{"}


def match_delimiters(tokens: list[Token]) -> list[int]:
    """Index of each delimiter's partner token, -1 where there is none.

    `(`, `[` and `{` are each matched by their own depth, so a stray
    token of one kind never shifts the pairs of another: in `( { ) }`
    the parens pair and the braces pair. Unmatched delimiters and all
    other tokens map to -1.
    """
    return _pair(tokens)[0]


def _pair(tokens: list[Token]) -> tuple[list[int], bool]:
    """`match_delimiters(tokens)`, and whether every brace found its partner."""
    match = [-1] * len(tokens)
    pending: dict[str, list[int]] = {"(": [], "[": [], "{": []}
    braces_paired = True
    for i, text in enumerate(map(_text_of, tokens)):
        if text in pending:
            pending[text].append(i)
        elif text in _OPENER_OF:
            stack = pending[_OPENER_OF[text]]
            if stack:
                j = stack.pop()
                match[i] = j
                match[j] = i
            elif text == "}":
                braces_paired = False
    return match, braces_paired and not pending["{"]
