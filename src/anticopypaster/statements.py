"""Statement-level parser for Java block statements.

Recognizes the statement shapes a pasted fragment may contain
(declarations, expression statements, control-flow blocks) without
checking expression structure or types, jumping over each bracketed group
through the fragment's delimiter table (`Tokens.pairs`). Type and member
declarations are rejected, which is what distinguishes a pastable fragment
from a class body snippet. While parsing, it records each jump that would
leave the fragment: a `return`, a `break` or `continue` whose loop, switch
or label lies outside, and a `yield`, whose switch expression always does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import Tokens, TokenKind


class StatementParseError(Exception):
    """Internal: token stream is not a statement sequence; `token` is the index where the parse failed."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.token = token


ASSIGNMENT_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)
# Tokens after a leading `yield` that make it a name in an expression
# statement or a label, not a yield statement.
_YIELD_AS_NAME = ASSIGNMENT_OPS | {".", "[", "(", "++", "--", ":"}
# Modifiers that only belong on class members, never on statements.
_MEMBER_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "abstract", "native", "strictfp"}
)
_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})


@dataclass
class _Parser:
    tokens: Tokens
    pos: int = 0
    # The loops, switches and labels of the fragment around the current statement.
    loops: int = 0
    switches: int = 0
    labels: list[str] = field(default_factory=list)
    jumps: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.texts, self.kinds, self.match = self.tokens.texts, self.tokens.kinds, self.tokens.pairs[0]

    def _peek(self, offset: int = 0) -> str | None:
        i = self.pos + offset
        return self.texts[i] if i < len(self.texts) else None

    def _at(self, text: str) -> bool:
        return self._peek() == text

    def _expect(self, text: str) -> None:
        if not self._at(text):
            raise StatementParseError(f"expected {text!r}", self.pos)
        self.pos += 1

    def _skip_parenthesized(self) -> None:
        self._expect("(")
        self.pos += self.match[self.pos - 1]  # parse_statements checked every pair

    def parse_all(self) -> tuple[str, ...]:
        self._statement()
        while self.pos < len(self.texts):
            self._statement()
        return tuple(self.jumps)

    def _statement(self) -> str:
        """Consume one statement and return its kind."""
        text = self._peek()
        if text is None:
            raise StatementParseError("expected a statement", self.pos)

        if text == "final":
            # Legal prefix for a local declaration; reject final types below.
            if self._peek(1) in _TYPE_KEYWORDS:
                raise StatementParseError("type declaration is not a statement", self.pos)
            return self._simple()
        if text in _MEMBER_MODIFIERS:
            raise StatementParseError("member declaration is not a statement", self.pos)
        if text in _TYPE_KEYWORDS:
            raise StatementParseError("type declaration is not a statement", self.pos)
        if text == "void":
            raise StatementParseError("method declaration is not a statement", self.pos)

        if text == ";":
            self.pos += 1
            return "empty"
        if text == "{":
            return self._block()
        if text == "if":
            self.pos += 1
            self._skip_parenthesized()
            self._statement()
            if self._at("else"):
                self.pos += 1
                self._statement()
            return text
        if text in ("while", "for"):
            self.pos += 1
            self._skip_parenthesized()
            self.loops += 1
            self._statement()
            self.loops -= 1
            return text
        if text == "do":
            self.pos += 1
            self.loops += 1
            self._statement()
            self.loops -= 1
            self._expect("while")
            self._skip_parenthesized()
            self._expect(";")
            return text
        if text == "switch":
            self.pos += 1
            self._skip_parenthesized()
            self._switch_body()
            return text
        if text == "synchronized":
            self.pos += 1
            self._skip_parenthesized()
            self._block()
            return text
        if text == "try":
            self._try()
            return text
        if text in ("return", "throw", "assert"):
            if text == "return":
                self.jumps.append("return inside fragment")
            self.pos += 1
            self._scan_to_semicolon(takes_value=True)
            return text
        if text in ("break", "continue"):
            self.pos += 1
            nxt = self._peek()
            if nxt is not None and self.kinds[self.pos] is TokenKind.IDENTIFIER:
                self.pos += 1
                if nxt not in self.labels:
                    self.jumps.append(f"{text} targets label '{nxt}' outside fragment")
            elif text == "break" and not (self.loops or self.switches):
                self.jumps.append("break targets a loop or switch outside fragment")
            elif text == "continue" and not self.loops:
                self.jumps.append("continue targets a loop outside fragment")
            self._expect(";")
            return text
        nxt = self._peek(1)
        if self.kinds[self.pos] is TokenKind.IDENTIFIER and nxt == ":":
            self.pos += 2
            self.labels.append(text)
            self._statement()
            self.labels.pop()
            return "label"
        if text == "yield" and nxt is not None and nxt not in _YIELD_AS_NAME:
            self.jumps.append("yield targets a switch expression outside fragment")
            self._scan_to_semicolon(takes_value=True)
            return "simple"
        return self._simple()

    def _block(self) -> str:
        self._expect("{")
        while not self._at("}"):
            self._statement()
        self.pos += 1
        return "block"

    def _switch_body(self) -> None:
        self._expect("{")
        self.switches += 1
        while not self._at("}"):
            if self._peek() in ("case", "default"):
                self.pos += 1
                if self._scan_label() == "->":
                    self._arrow_body()
                continue
            self._statement()
        self.switches -= 1
        self.pos += 1

    def _try(self) -> None:
        start = self.pos
        self._expect("try")
        has_resources = False
        if self._at("("):
            self._skip_parenthesized()
            has_resources = True
        self._block()
        clauses = 0
        while self._at("catch"):
            self.pos += 1
            self._skip_parenthesized()
            self._block()
            clauses += 1
        if self._at("finally"):
            self.pos += 1
            self._block()
            clauses += 1
        if clauses == 0 and not has_resources:
            raise StatementParseError("try without catch, finally, or resources", start)

    def _scan_to_semicolon(self, takes_value: bool = False) -> None:
        """Consume tokens through the next ';' at the statement's own level, jumping over each bracketed group.

        A closer or the end before that ';' fails the parse. So does a brace
        at that level unless after '=', '->' or 'new' (array initializers,
        lambdas, anonymous classes), or 'switch' where the statement `takes_value`
        (a switch expression): a bare one signals a member declaration.
        A lambda there must be assigned, or be the value of a statement that `takes_value`.
        """
        brace_ok = False
        while True:
            text = self._peek()
            if text is None or text in ")]}":
                raise StatementParseError("statement not terminated by ';'", self.pos)
            if text == ";":
                self.pos += 1
                return
            if text == "->" and not (brace_ok or takes_value):
                raise StatementParseError("a lambda is not a statement", self.pos)
            if text in ("->", "new") or text in ASSIGNMENT_OPS or takes_value and text == "switch":
                brace_ok = True
            if text in "([{":
                if text == "{" and not brace_ok:
                    raise StatementParseError("unexpected '{' in statement", self.pos)
                self.pos += self.match[self.pos]  # parse_statements checked every pair
            self.pos += 1

    def _scan_label(self) -> str:
        """Consume a case label through its ':' or '->' and return that token."""
        while True:
            text = self._peek()
            if text is None:
                raise StatementParseError("case label not terminated by ':' or '->'", self.pos)
            if text in (":", "->"):
                self.pos += 1
                return text
            self.pos += max(self.match[self.pos], 0) + 1

    def _arrow_body(self) -> None:
        """The one statement after 'case ... ->': a block, a throw or an expression."""
        start = self.pos
        if (kind := self._statement()) not in ("block", "throw", "simple"):
            raise StatementParseError(f"{kind!r} statement cannot follow '->'", start)

    def _simple(self) -> str:
        self._scan_to_semicolon()
        return "simple"


def parse_statements(tokens: Tokens) -> tuple[str, ...]:
    """Parse a token sequence as one or more Java block statements.

    Returns one message per jump that leaves the sequence, in source
    order; a `return` or `break` inside a lambda or anonymous class
    body is part of an expression and does not count. Every delimiter
    must have a partner, and each closer must end the innermost open
    pair. Statements nested deeper than the interpreter's recursion
    limit are a StatementParseError, like any other input that does
    not parse.
    """
    texts, match = tokens.texts, tokens.pairs[0]
    open_at: list[int] = []
    for i, text in enumerate(texts):
        if text in ("(", "[", "{"):
            open_at.append(i)
        elif text in (")", "]", "}") and (not open_at or open_at.pop() != i + match[i]):
            raise StatementParseError(f"{text!r} does not close the innermost pair", i)
    if open_at:
        raise StatementParseError(f"unclosed {texts[open_at[0]]!r}", open_at[0])
    parser = _Parser(tokens)
    try:
        return parser.parse_all()
    except RecursionError:
        raise StatementParseError("statements nested too deeply to parse", parser.pos) from None
