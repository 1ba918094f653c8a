"""Structural model of Java sources.

Indexes method bodies and class context out of lexed files, validates
pasted fragments as statement sequences, and computes per-line nesting
profiles. Everything downstream (clone detection, metrics, extraction)
operates on these values.

Method detection is header-pattern plus brace matching, not a full
grammar: constructors count as methods, bodiless declarations are
skipped. A method's line range is the span of its body tokens, so
brace lines holding nothing but a brace never count toward the body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyScope, IndexingError, LexError
from .lexer import (
    Token,
    TokenKind,
    match_delimiters,
    normalize_newlines,
    token_bag,
    token_texts,
    tokenize,
)
from .statements import is_statement_sequence

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)


@dataclass(frozen=True)
class Parameter:
    name: str
    declared_type: str


@dataclass(frozen=True)
class LocalDecl:
    declared_type: str
    line: int
    token_index: int


@dataclass
class ClassContext:
    class_name: str
    field_names: dict[str, str] = field(default_factory=dict)
    method_names: set[str] = field(default_factory=set)
    file_path: str = ""


@dataclass
class MethodUnit:
    id: str
    name: str
    parameter_list: tuple[Parameter, ...]
    body_tokens: list[Token]
    start_line: int
    end_line: int
    nesting_profile: list[int]
    local_declarations: dict[str, LocalDecl]
    owner: ClassContext
    is_static: bool
    body_text: str
    open_brace_line: int
    close_brace_line: int
    declaration_line: int
    # The duplicate scan's fingerprint, built once when the method is indexed.
    body_texts: tuple[str, ...]
    bag: dict[str, int]
    bag_size: int

    @property
    def line_count(self) -> int:
        return self.end_line - self.start_line + 1

    @property
    def file_path(self) -> str:
        return self.owner.file_path


@dataclass(frozen=True)
class PasteSite:
    file_path: str
    line: int
    method_id: str | None = None


@dataclass
class Fragment:
    raw_text: str
    text: str
    tokens: list[Token]
    line_count: int
    symbol_count: int
    valid: bool
    paste_site: PasteSite | None = None


def _trim_blank_lines(text: str) -> str:
    lines = text.split("\n")
    start = 0
    end = len(lines)
    while start < end and not lines[start].strip():
        start += 1
    while end > start and not lines[end - 1].strip():
        end -= 1
    return "\n".join(lines[start:end])


def count_symbols(text: str) -> int:
    """Number of non-whitespace characters in the text."""
    return len("".join(text.split()))


def validate_fragment(text: str, paste_site: PasteSite | None = None) -> Fragment:
    """Build a Fragment, deciding validity instead of raising.

    Valid means: lexes, all delimiters balanced, and the tokens parse as
    one or more block statements. Type and member declarations at top
    level are invalid; invalidity is a value, not an error.
    """
    normalized = normalize_newlines(text)
    trimmed = _trim_blank_lines(normalized)
    line_count = len(trimmed.split("\n")) if trimmed else 0
    symbol_count = count_symbols(trimmed)
    try:
        tokens = tokenize(trimmed)
    except LexError:
        return Fragment(text, trimmed, [], line_count, symbol_count, False, paste_site)
    valid = bool(tokens) and _nested(tokens) and is_statement_sequence(tokens)
    return Fragment(text, trimmed, tokens, line_count, symbol_count, valid, paste_site)


def _nested(tokens: list[Token]) -> bool:
    """Every delimiter has a partner and each closer ends the innermost open pair."""
    match = match_delimiters(tokens)
    open_until: list[int] = []
    for i, tok in enumerate(tokens):
        if tok.text in ("(", "[", "{"):
            open_until.append(match[i])
        elif tok.text in (")", "]", "}") and (not open_until or open_until.pop() != i):
            return False
    return not open_until


def nesting_profile(scope: Fragment | MethodUnit) -> list[int]:
    """One depth value per line of the scope.

    Depth is the nesting level at the line's first token; '{' increments
    after its token and '}' decrements before it. Body top level is
    depth 1, and fragments are profiled as if pasted at depth 1. Lines
    without tokens take the running depth.
    """
    if isinstance(scope, Fragment):
        if scope.line_count == 0 or not scope.valid:
            raise EmptyScope("fragment has no lines to profile")
        return _profile(scope.tokens, 1, scope.line_count)
    if scope.start_line > scope.end_line:
        raise EmptyScope(f"method {scope.id} has no body lines")
    return _profile(scope.body_tokens, scope.start_line, scope.end_line)


def _profile(tokens: list[Token], first_line: int, last_line: int) -> list[int]:
    by_line: dict[int, list[Token]] = {}
    for tok in tokens:
        by_line.setdefault(tok.line, []).append(tok)
    profile = []
    depth = 1
    for line in range(first_line, last_line + 1):
        recorded = False
        for tok in by_line.get(line, []):
            if tok.text == "}":
                depth -= 1
            if not recorded:
                profile.append(depth)
                recorded = True
            if tok.text == "{":
                depth += 1
        if not recorded:
            profile.append(depth)
    return profile


def scan_declarations(tokens: list[Token]) -> list[tuple[str, LocalDecl]]:
    """Find local variable declarations in a token sequence.

    Covers ordinary declarations, multi-declarator lists, for-init,
    enhanced-for, catch parameters, and try-with-resources. Returns each
    declared name with its rendered type, line, and the index of the
    name token. Purely token-driven; misparses of exotic generics fall
    out as 'not a declaration', never as a crash.
    """
    found: list[tuple[str, LocalDecl]] = []
    candidates = _declaration_candidates(tokens)
    for start in candidates:
        _try_declaration(tokens, start, found)
    found.sort(key=lambda item: item[1].token_index)
    return found


def _declaration_candidates(tokens: list[Token]) -> list[int]:
    spots = [0] if tokens else []
    for i, tok in enumerate(tokens[:-1]):
        if tok.text in (";", "{", "}"):
            spots.append(i + 1)
        elif tok.text == "(" and i > 0 and tokens[i - 1].text in ("for", "catch", "try"):
            spots.append(i + 1)
    return spots


def _render_type(parts: list[Token]) -> str:
    out: list[str] = []
    word_kinds = (TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.LITERAL)
    prev_word = False
    for tok in parts:
        is_word = tok.kind in word_kinds
        if out and prev_word and is_word:
            out.append(" ")
        out.append(tok.text)
        prev_word = is_word
    return "".join(out)


def _try_declaration(tokens: list[Token], start: int, found: list[tuple[str, LocalDecl]]) -> None:
    n = len(tokens)
    j = start
    if j < n and tokens[j].text == "final":
        j += 1
    type_parts: list[Token] = []
    if j >= n:
        return
    tok = tokens[j]
    if tok.text in PRIMITIVE_TYPES:
        type_parts.append(tok)
        j += 1
    elif tok.kind == TokenKind.IDENTIFIER:
        type_parts.append(tok)
        j += 1
        while j + 1 < n and tokens[j].text == "." and tokens[j + 1].kind == TokenKind.IDENTIFIER:
            type_parts.extend(tokens[j : j + 2])
            j += 2
    else:
        return
    if j < n and tokens[j].text == "<":
        depth = 0
        k = j
        while k < n:
            text = tokens[k].text
            if text in (";", "{", "}", ")"):
                return
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
            k += 1
            if depth <= 0:
                break
        if depth > 0:
            return
        type_parts.extend(tokens[j:k])
        j = k
    while j + 1 < n and tokens[j].text == "[" and tokens[j + 1].text == "]":
        type_parts.extend(tokens[j : j + 2])
        j += 2
    if j < n and tokens[j].text == "...":
        type_parts.append(tokens[j])
        j += 1
    declared_type = _render_type(type_parts)
    while True:
        if j >= n or tokens[j].kind != TokenKind.IDENTIFIER:
            return
        name_tok = tokens[j]
        name_index = j
        j += 1
        while j + 1 < n and tokens[j].text == "[" and tokens[j + 1].text == "]":
            j += 2
        if j >= n or tokens[j].text not in ("=", ";", ",", ":", ")"):
            return
        found.append((name_tok.text, LocalDecl(declared_type, name_tok.line, name_index)))
        terminator = tokens[j].text
        if terminator == "=":
            depth = 0
            j += 1
            while j < n:
                text = tokens[j].text
                if depth == 0 and text in (",", ";", ")"):
                    break
                if text in "([{":
                    depth += 1
                elif text in ")]}":
                    depth -= 1
                    if depth < 0:
                        break
                j += 1
            if j >= n:
                return
            terminator = tokens[j].text
        if terminator != ",":
            return
        j += 1


def index_file(text: str, file_path: str) -> tuple[list[MethodUnit], list[ClassContext]]:
    """Index every method body and class context in one source file.

    Nested classes produce their own ClassContext and own their methods.
    Raises IndexingError when braces are unbalanced at file scope; lex
    errors propagate as LexError.
    """
    normalized = normalize_newlines(text)
    tokens = tokenize(normalized)
    match = match_delimiters(tokens)
    if any(match[i] < 0 for i, tok in enumerate(tokens) if tok.text in ("{", "}")):
        raise IndexingError(f"{file_path}: unbalanced braces at file scope")
    lines = normalized.split("\n")
    indexer = _Indexer(tokens, match, lines, file_path)
    indexer.run()
    return indexer.methods, indexer.classes


def _skip_annotation(tokens: list[Token], match: list[int], i: int, end: int) -> int:
    """Index just past the annotation whose '@' is tokens[i], at most end."""
    i += 1
    while i + 1 < end and tokens[i].kind == TokenKind.IDENTIFIER and tokens[i + 1].text == ".":
        i += 2
    if i < end and tokens[i].kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
        i += 1
    if i < end and tokens[i].text == "(":
        close = match[i]
        i = end if close < 0 else min(close + 1, end)
    return i


class _Indexer:
    def __init__(self, tokens: list[Token], match: list[int], lines: list[str], file_path: str):
        self.tokens = tokens
        self.match = match
        self.lines = lines
        self.file_path = file_path
        self.methods: list[MethodUnit] = []
        self.classes: list[ClassContext] = []
        self.pos = 0

    def run(self) -> None:
        n = len(self.tokens)
        while self.pos < n:
            tok = self.tokens[self.pos]
            if tok.kind == TokenKind.KEYWORD and tok.text in ("class", "interface", "enum"):
                self._parse_class(tok.text)
            else:
                self.pos += 1

    def _parse_class(self, declared_as: str) -> None:
        name_tok = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        if name_tok is None or name_tok.kind != TokenKind.IDENTIFIER:
            self.pos += 1
            return
        self.pos += 2
        while self.pos < len(self.tokens) and self.tokens[self.pos].text != "{":
            self.pos += 1
        if self.pos >= len(self.tokens):
            raise IndexingError(f"{self.file_path}: class body missing for {name_tok.text}")
        ctx = ClassContext(name_tok.text, {}, set(), self.file_path)
        self.classes.append(ctx)
        body_end = self.match[self.pos]
        self.pos += 1
        if declared_as == "enum":
            self._skip_enum_constants(body_end)
        while self.pos < body_end:
            self._parse_member(ctx, body_end)
        self.pos = body_end + 1

    def _skip_enum_constants(self, body_end: int) -> None:
        i = self.pos
        while i < body_end:
            text = self.tokens[i].text
            if text == ";":
                self.pos = i + 1
                return
            if text in ("(", "{"):
                if self.match[i] < 0:
                    break
                i = self.match[i]
            i += 1
        self.pos = body_end

    def _parse_member(self, ctx: ClassContext, body_end: int) -> None:
        start = self.pos
        i = start
        # Skip annotations so the first '(' found belongs to a parameter list.
        while i < body_end and self.tokens[i].text == "@":
            i = _skip_annotation(self.tokens, self.match, i, body_end)
        member_start = i
        depth = 0
        saw_assign = False
        while i < body_end:
            tok = self.tokens[i]
            text = tok.text
            if (
                tok.kind == TokenKind.KEYWORD
                and text in ("class", "interface", "enum")
                and depth == 0
                and not saw_assign
                and not (i > member_start and self.tokens[i - 1].text == ".")
            ):
                self.pos = i
                self._parse_class(text)
                return
            if text == "=" and depth == 0:
                saw_assign = True
            if text in "([":
                depth += 1
            elif text in ")]":
                depth -= 1
            elif text == ";" and depth == 0:
                self._finish_bodiless_member(ctx, member_start, i)
                self.pos = i + 1
                return
            elif text == "{" and depth == 0:
                close = self.match[i]
                if saw_assign:
                    i = close + 1
                    continue
                self._finish_braced_member(ctx, member_start, i, close)
                self.pos = close + 1
                return
            i += 1
        self.pos = body_end

    def _finish_bodiless_member(self, ctx: ClassContext, start: int, semi: int) -> None:
        segment = self.tokens[start : semi + 1]
        paren = next((k for k, t in enumerate(segment) if t.text == "("), None)
        if paren is not None:
            if paren > 0 and segment[paren - 1].kind == TokenKind.IDENTIFIER:
                ctx.method_names.add(segment[paren - 1].text)
            return
        for name, decl in _field_declarators(segment):
            ctx.field_names.setdefault(name, decl)

    def _finish_braced_member(self, ctx: ClassContext, start: int, open_brace: int, close_brace: int) -> None:
        header = self.tokens[start:open_brace]
        paren = next((k for k, t in enumerate(header) if t.text == "("), None)
        if paren is None or paren == 0 or header[paren - 1].kind != TokenKind.IDENTIFIER:
            return  # initializer block or unrecognized construct
        name_tok = header[paren - 1]
        close_paren = self.match[start + paren]
        if close_paren < 0 or close_paren >= open_brace:
            return
        params = _parse_parameters(self.tokens, self.match, start + paren + 1, close_paren)
        is_static = any(t.text == "static" for t in header[:paren])
        body_tokens = self.tokens[open_brace + 1 : close_brace]
        open_line = self.tokens[open_brace].line
        close_line = self.tokens[close_brace].line
        if body_tokens:
            start_line = body_tokens[0].line
            end_line = body_tokens[-1].line
        else:
            start_line = end_line = open_line
        profile = _profile(body_tokens, start_line, end_line)
        decls = scan_declarations(body_tokens)
        decl_map: dict[str, LocalDecl] = {}
        for name, decl in decls:
            decl_map.setdefault(name, decl)
        body_text = "\n".join(self.lines[start_line - 1 : end_line])
        bag = token_bag(body_tokens)
        unit = MethodUnit(
            id=f"{self.file_path}:{start_line}:{name_tok.text}",
            name=name_tok.text,
            parameter_list=tuple(params),
            body_tokens=body_tokens,
            start_line=start_line,
            end_line=end_line,
            nesting_profile=profile,
            local_declarations=decl_map,
            owner=ctx,
            is_static=is_static,
            body_text=body_text,
            open_brace_line=open_line,
            close_brace_line=close_line,
            declaration_line=header[0].line if header else open_line,
            body_texts=token_texts(body_tokens),
            bag=bag,
            bag_size=bag.total(),
        )
        self.methods.append(unit)
        ctx.method_names.add(name_tok.text)


def _field_declarators(segment: list[Token]) -> list[tuple[str, str]]:
    skip = {"public", "private", "protected", "static", "final", "transient", "volatile"}
    start = 0
    while start < len(segment) and segment[start].text in skip:
        start += 1
    decls = scan_declarations(segment[start:])
    return [(name, d.declared_type) for name, d in decls]


def _parse_parameters(tokens: list[Token], match: list[int], start: int, end: int) -> list[Parameter]:
    """Parameters declared by tokens[start:end], the inside of a parameter list."""
    groups: list[tuple[int, int]] = []
    group_start = start
    depth = 0
    for k in range(start, end):
        text = tokens[k].text
        if text in ("(", "<", "["):
            depth += 1
        elif text in (")", "]"):
            depth -= 1
        elif text == ">":
            depth -= 1
        elif text == ">>":
            depth -= 2
        elif text == ">>>":
            depth -= 3
        if text == "," and depth == 0:
            groups.append((group_start, k))
            group_start = k + 1
    groups.append((group_start, end))
    params = []
    for lo, hi in groups:
        body = [t for t in _strip_annotations(tokens, match, lo, hi) if t.text != "final"]
        if not body:
            continue
        name_tok = None
        for tok in reversed(body):
            if tok.kind == TokenKind.IDENTIFIER:
                name_tok = tok
                break
        if name_tok is None:
            continue
        name_index = len(body) - 1 - body[::-1].index(name_tok)
        type_text = _render_type(body[:name_index])
        params.append(Parameter(name_tok.text, type_text))
    return params


def _strip_annotations(tokens: list[Token], match: list[int], start: int, end: int) -> list[Token]:
    out: list[Token] = []
    i = start
    while i < end:
        if tokens[i].text == "@":
            i = _skip_annotation(tokens, match, i, end)
            continue
        out.append(tokens[i])
        i += 1
    return out


def method_at(methods: list[MethodUnit], file_path: str, line: int) -> MethodUnit | None:
    """The method whose body line range contains the given source line."""
    for unit in methods:
        if unit.file_path == file_path and unit.start_line <= line <= unit.end_line:
            return unit
    return None
