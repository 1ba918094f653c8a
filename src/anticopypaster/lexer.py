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
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from operator import attrgetter
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
# first. Numbers start only at ASCII digits.
_TOKEN = re.compile(
    r'''
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


def tokenize(text: str) -> list[Token]:
    """Lex arbitrary UTF-8 source text into tokens.

    Raises LexError with the starting line for unterminated block
    comments, string/char literals and text blocks, and for a character
    that starts no token.
    """
    tokens: list[Token] = []
    append = tokens.append
    new_token = tuple.__new__
    # Equal words share one str, which wins back the memory a tuple token
    # costs over a slotted object. Per call, not sys.intern: interned strings
    # can outlive every token that held them.
    same_word = {}.setdefault
    word_kind = _WORD_KINDS.get
    identifier, literal = TokenKind.IDENTIFIER, TokenKind.LITERAL
    line, line_start = 1, 0
    for m in _TOKEN.finditer(normalize_newlines(text)):
        group, lexeme = m.lastgroup, m.group()
        # Only `\n` ends a line; `\x85` or `\u2028` is whitespace within one.
        # Of the lexemes that make tokens, only literals can span lines.
        if group == "skip":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rindex("\n") + 1
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


_text_of = attrgetter("text")


def token_texts(tokens: list[Token]) -> tuple[str, ...]:
    """Normalized token sequence: verbatim lexemes, positions dropped."""
    return tuple(map(_text_of, tokens))


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
    match = [-1] * len(tokens)
    pending: dict[str, list[int]] = {"(": [], "[": [], "{": []}
    for i, tok in enumerate(tokens):
        text = tok.text
        if text in pending:
            pending[text].append(i)
        elif text in _OPENER_OF:
            stack = pending[_OPENER_OF[text]]
            if stack:
                j = stack.pop()
                match[i] = j
                match[j] = i
    return match
