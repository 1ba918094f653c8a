"""Java lexer.

Turns source text into a flat token stream with 1-based positions.
Whitespace and comments never produce tokens; string and character
literals are emitted as single literal tokens with their quotes.
Line endings are normalized to LF before scanning, so positions are
stable across CRLF and LF inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import LexError


class TokenKind(str, Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    LITERAL = "literal"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"


@dataclass(frozen=True)
class Token:
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

# Multi-character lexemes, longest first for maximal munch.
_MULTI = (
    (">>>=", TokenKind.OPERATOR),
    (">>>", TokenKind.OPERATOR),
    ("<<=", TokenKind.OPERATOR),
    (">>=", TokenKind.OPERATOR),
    ("...", TokenKind.PUNCTUATION),
    ("==", TokenKind.OPERATOR),
    ("!=", TokenKind.OPERATOR),
    ("<=", TokenKind.OPERATOR),
    (">=", TokenKind.OPERATOR),
    ("&&", TokenKind.OPERATOR),
    ("||", TokenKind.OPERATOR),
    ("++", TokenKind.OPERATOR),
    ("--", TokenKind.OPERATOR),
    ("+=", TokenKind.OPERATOR),
    ("-=", TokenKind.OPERATOR),
    ("*=", TokenKind.OPERATOR),
    ("/=", TokenKind.OPERATOR),
    ("%=", TokenKind.OPERATOR),
    ("&=", TokenKind.OPERATOR),
    ("|=", TokenKind.OPERATOR),
    ("^=", TokenKind.OPERATOR),
    ("<<", TokenKind.OPERATOR),
    (">>", TokenKind.OPERATOR),
    ("->", TokenKind.OPERATOR),
    ("::", TokenKind.OPERATOR),
)

_SINGLE_OPERATORS = frozenset("+-*/%=<>!&|^~?:.")
_SINGLE_PUNCTUATION = frozenset(";,(){}[]@")

# Numbers start only at ASCII digits: str.isdigit() also accepts '²' or
# '٣', which no number rule consumes, and the scanner would stall there.
_ASCII_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF_")
_BIN_DIGITS = frozenset("01_")
_DEC_DIGITS = frozenset("0123456789_")


def normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []

    def _advance(self, n: int) -> None:
        for _ in range(n):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _emit(self, kind: TokenKind, end: int) -> None:
        text = self.text[self.pos : end]
        self.tokens.append(Token(kind, text, self.line, self.col))
        self._advance(end - self.pos)

    def run(self) -> list[Token]:
        s = self.text
        n = len(s)
        while self.pos < n:
            ch = s[self.pos]
            if ch.isspace():
                self._advance(1)
                continue
            if ch == "/" and self.pos + 1 < n and s[self.pos + 1] == "/":
                end = s.find("\n", self.pos)
                self._advance((n if end < 0 else end) - self.pos)
                continue
            if ch == "/" and self.pos + 1 < n and s[self.pos + 1] == "*":
                end = s.find("*/", self.pos + 2)
                if end < 0:
                    raise LexError("unterminated block comment", self.line)
                self._advance(end + 2 - self.pos)
                continue
            if ch in "\"'":
                self._emit(TokenKind.LITERAL, self._scan_quoted(ch))
                continue
            if ch in _ASCII_DIGITS or (ch == "." and self.pos + 1 < n and s[self.pos + 1] in _ASCII_DIGITS):
                self._emit(TokenKind.LITERAL, self._scan_number())
                continue
            if _is_ident_start(ch):
                end = self.pos + 1
                while end < n and _is_ident_part(s[end]):
                    end += 1
                word = s[self.pos : end]
                if word in JAVA_KEYWORDS:
                    kind = TokenKind.KEYWORD
                elif word in WORD_LITERALS:
                    kind = TokenKind.LITERAL
                else:
                    kind = TokenKind.IDENTIFIER
                self._emit(kind, end)
                continue
            matched = False
            for lexeme, kind in _MULTI:
                if s.startswith(lexeme, self.pos):
                    self._emit(kind, self.pos + len(lexeme))
                    matched = True
                    break
            if matched:
                continue
            if ch in _SINGLE_OPERATORS:
                self._emit(TokenKind.OPERATOR, self.pos + 1)
                continue
            if ch in _SINGLE_PUNCTUATION:
                self._emit(TokenKind.PUNCTUATION, self.pos + 1)
                continue
            raise LexError(f"unexpected character {ch!r}", self.line)
        return self.tokens

    def _scan_quoted(self, quote: str) -> int:
        s = self.text
        n = len(s)
        j = self.pos + 1
        while j < n:
            c = s[j]
            if c == "\\":
                j += 2
                continue
            if c == quote:
                return j + 1
            if c == "\n":
                break
            j += 1
        raise LexError("unterminated string literal", self.line)

    def _scan_number(self) -> int:
        s = self.text
        n = len(s)
        j = self.pos
        if s[j] == "0" and j + 1 < n and s[j + 1] in "xX":
            j += 2
            while j < n and s[j] in _HEX_DIGITS:
                j += 1
        elif s[j] == "0" and j + 1 < n and s[j + 1] in "bB":
            j += 2
            while j < n and s[j] in _BIN_DIGITS:
                j += 1
        else:
            while j < n and s[j] in _DEC_DIGITS:
                j += 1
            if j < n and s[j] == "." and j + 1 < n and s[j + 1] in _ASCII_DIGITS:
                j += 1
                while j < n and s[j] in _DEC_DIGITS:
                    j += 1
            if j < n and s[j] in "eE":
                k = j + 1
                if k < n and s[k] in "+-":
                    k += 1
                if k < n and s[k] in _ASCII_DIGITS:
                    j = k
                    while j < n and s[j] in _DEC_DIGITS:
                        j += 1
        if j < n and s[j] in "lLfFdD":
            j += 1
        return j


def tokenize(text: str) -> list[Token]:
    """Lex arbitrary UTF-8 source text into tokens.

    Raises LexError with the starting line for unterminated block
    comments and string/char literals.
    """
    return _Scanner(normalize_newlines(text)).run()


def token_texts(tokens: list[Token]) -> tuple[str, ...]:
    """Normalized token sequence: verbatim lexemes, positions dropped."""
    return tuple(t.text for t in tokens)


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
