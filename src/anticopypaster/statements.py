"""Statement-level parser for Java block statements.

Recognizes the statement shapes a pasted fragment may contain
(declarations, expression statements, control-flow blocks) without
checking expression structure or types. Type and member declarations
are rejected, which is what distinguishes a pastable fragment from a
class body snippet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexer import Token, TokenKind, match_delimiters


class StatementParseError(Exception):
    """Internal: token stream is not a statement sequence."""


@dataclass(frozen=True)
class StatementNode:
    kind: str
    children: tuple["StatementNode", ...] = ()
    label: str | None = None


# Modifiers that only belong on class members, never on statements.
_MEMBER_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "abstract", "native", "strictfp"}
)
_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})


@dataclass
class _Parser:
    tokens: list[Token]
    match: list[int]
    pos: int = 0

    def _peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def _at(self, text: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.text == text

    def _expect(self, text: str) -> None:
        if not self._at(text):
            raise StatementParseError(f"expected {text!r} at token {self.pos}")
        self.pos += 1

    def _skip_parenthesized(self) -> None:
        self._expect("(")
        self.pos = self.match[self.pos - 1] + 1  # parse_statements checked every pair

    def parse_all(self) -> list[StatementNode]:
        result = [self._statement()]
        while self.pos < len(self.tokens):
            result.append(self._statement())
        return result

    def _statement(self) -> StatementNode:
        tok = self._peek()
        if tok is None:
            raise StatementParseError("expected a statement")
        text = tok.text

        if text == "final":
            # Legal prefix for a local declaration; reject final types below.
            nxt = self._peek(1)
            if nxt is not None and nxt.text in _TYPE_KEYWORDS:
                raise StatementParseError("type declaration is not a statement")
            return self._simple()
        if text in _MEMBER_MODIFIERS and not (text == "synchronized" and self._peek(1) is not None and self._peek(1).text == "("):
            raise StatementParseError("member declaration is not a statement")
        if text in _TYPE_KEYWORDS:
            raise StatementParseError("type declaration is not a statement")
        if text == "void":
            raise StatementParseError("method declaration is not a statement")

        if text == ";":
            self.pos += 1
            return StatementNode("empty")
        if text == "{":
            return self._block()
        if text == "if":
            self.pos += 1
            self._skip_parenthesized()
            body = self._statement()
            children = [body]
            if self._at("else"):
                self.pos += 1
                children.append(self._statement())
            return StatementNode("if", tuple(children))
        if text == "while":
            self.pos += 1
            self._skip_parenthesized()
            body = self._statement()
            return StatementNode("while", (body,))
        if text == "do":
            self.pos += 1
            body = self._statement()
            self._expect("while")
            self._skip_parenthesized()
            self._expect(";")
            return StatementNode("do", (body,))
        if text == "for":
            self.pos += 1
            self._skip_parenthesized()
            body = self._statement()
            return StatementNode("for", (body,))
        if text == "switch":
            self.pos += 1
            self._skip_parenthesized()
            return self._switch_body()
        if text == "synchronized":
            self.pos += 1
            self._skip_parenthesized()
            body = self._block()
            return StatementNode("synchronized", (body,))
        if text == "try":
            return self._try()
        if text in ("return", "throw", "assert"):
            self.pos += 1
            self._scan_to_semicolon(allow_brace=True)
            return StatementNode(text)
        if text in ("break", "continue"):
            self.pos += 1
            label = None
            nxt = self._peek()
            if nxt is not None and nxt.kind == TokenKind.IDENTIFIER:
                label = nxt.text
                self.pos += 1
            self._expect(";")
            return StatementNode(text, label=label)
        if (
            tok.kind == TokenKind.IDENTIFIER
            and self._peek(1) is not None
            and self._peek(1).text == ":"
        ):
            self.pos += 2
            body = self._statement()
            return StatementNode("label", (body,), label=text)
        return self._simple()

    def _block(self) -> StatementNode:
        self._expect("{")
        children = []
        while not self._at("}"):
            if self._peek() is None:
                raise StatementParseError("unterminated block")
            children.append(self._statement())
        self.pos += 1
        return StatementNode("block", tuple(children))

    def _switch_body(self) -> StatementNode:
        self._expect("{")
        children = []
        while not self._at("}"):
            tok = self._peek()
            if tok is None:
                raise StatementParseError("unterminated switch body")
            if tok.text in ("case", "default"):
                self.pos += 1
                if self._scan_label() == "->":
                    children.append(self._arrow_body())
                continue
            children.append(self._statement())
        self.pos += 1
        return StatementNode("switch", tuple(children))

    def _try(self) -> StatementNode:
        self._expect("try")
        has_resources = False
        if self._at("("):
            self._skip_parenthesized()
            has_resources = True
        children = [self._block()]
        clauses = 0
        while self._at("catch"):
            self.pos += 1
            self._skip_parenthesized()
            children.append(self._block())
            clauses += 1
        if self._at("finally"):
            self.pos += 1
            children.append(self._block())
            clauses += 1
        if clauses == 0 and not has_resources:
            raise StatementParseError("try without catch, finally, or resources")
        return StatementNode("try", tuple(children))

    def _scan_to_semicolon(self, allow_brace: bool = False) -> None:
        """Consume tokens through the next ';' at the statement's own level.

        Braces at top level are only legal after '=', '->' or 'new'
        (array initializers, lambdas, anonymous classes); a bare brace
        signals a member declaration and fails the parse.
        """
        depth = 0
        brace_ok = False
        while True:
            tok = self._peek()
            if tok is None:
                raise StatementParseError("statement not terminated by ';'")
            text = tok.text
            if depth == 0 and text == ";":
                self.pos += 1
                return
            if text in ("=", "->", "new") or text.endswith("=") and text not in ("==", "!=", "<=", ">="):
                brace_ok = True
            if text in "([{":
                if text == "{" and depth == 0 and not brace_ok and not allow_brace:
                    raise StatementParseError("unexpected '{' in statement")
                depth += 1
            elif text in ")]}":
                depth -= 1
                if depth < 0:
                    raise StatementParseError("unbalanced delimiter in statement")
            self.pos += 1

    def _scan_label(self) -> str:
        """Consume a case label through its ':' or '->' and return that token."""
        while True:
            tok = self._peek()
            if tok is None:
                raise StatementParseError("case label not terminated by ':' or '->'")
            if tok.text in (":", "->"):
                self.pos += 1
                return tok.text
            close = self.match[self.pos]
            self.pos = close + 1 if close > self.pos else self.pos + 1

    def _arrow_body(self) -> StatementNode:
        """The one statement after 'case ... ->': a block, a throw or an expression."""
        body = self._statement()
        if body.kind not in ("block", "throw", "simple"):
            raise StatementParseError(f"{body.kind!r} statement cannot follow '->'")
        return body

    def _simple(self) -> StatementNode:
        self._scan_to_semicolon()
        return StatementNode("simple")


def parse_statements(tokens: list[Token]) -> list[StatementNode]:
    """Parse a token sequence as one or more Java block statements.

    Every delimiter must have a partner, and each closer must end the
    innermost open pair. Statements nested deeper than the interpreter's
    recursion limit are a StatementParseError, like any other input that
    does not parse.
    """
    match = match_delimiters(tokens)
    open_until: list[int] = []
    for i, tok in enumerate(tokens):
        if tok.text in ("(", "[", "{"):
            open_until.append(match[i])
        elif tok.text in (")", "]", "}") and (not open_until or open_until.pop() != i):
            raise StatementParseError(f"{tok.text!r} at token {i} does not close the innermost pair")
    if open_until:
        raise StatementParseError("unclosed delimiter")
    try:
        return _Parser(tokens, match).parse_all()
    except RecursionError:
        raise StatementParseError("statements nested too deeply to parse") from None


_LOOP_KINDS = frozenset({"for", "while", "do"})


def control_flow_violations(nodes: list[StatementNode]) -> list[str]:
    """Find return/break/continue statements whose target lies outside.

    A fragment containing any return, or a break/continue that does not
    target a loop (or switch, for break) inside the fragment itself,
    cannot be extracted without changing behavior.
    """
    violations: list[str] = []

    def walk(node: StatementNode, loops: int, switches: int, labels: frozenset[str]) -> None:
        kind = node.kind
        if kind == "return":
            violations.append("return inside fragment")
            return
        if kind == "break":
            if node.label is not None:
                if node.label not in labels:
                    violations.append(f"break targets label '{node.label}' outside fragment")
            elif loops == 0 and switches == 0:
                violations.append("break targets a loop or switch outside fragment")
            return
        if kind == "continue":
            if node.label is not None:
                if node.label not in labels:
                    violations.append(f"continue targets label '{node.label}' outside fragment")
            elif loops == 0:
                violations.append("continue targets a loop outside fragment")
            return
        child_loops = loops + (1 if kind in _LOOP_KINDS else 0)
        child_switches = switches + (1 if kind == "switch" else 0)
        child_labels = labels | {node.label} if kind == "label" and node.label else labels
        for child in node.children:
            walk(child, child_loops, child_switches, child_labels)

    for node in nodes:
        walk(node, 0, 0, frozenset())
    return violations
