"""Structural model of Java sources.

Indexes method bodies and class context out of lexed files and validates
pasted fragments as statement sequences. A method's body, like a fragment,
is an index range (`body`) into its file's token columns, as is every
token index stored with it. Its bag, symbol count and nesting area are
built once, by `_facts`, when it is indexed, and a fragment's, by the same
builder, when it is validated; everything downstream reads these fields.
`validate_fragment` is the one place that decides validity: it returns
only a statement sequence and raises InvalidFragment for any other text,
so a Fragment is valid wherever it goes. Declarations are read on
demand: the locals of either by `local_declarations`, and the parameter
or local that each name means at a point of a method's body by
`method_declarations`. Every reader jumps through the one delimiter
table that its `Tokens` keep (`Tokens.pairs`). When a file is indexed
again from the revision `tokenize` spliced it from, a method whose run,
from its `header` (the member's first token) to its `}`, lies wholly before
or past the window lexed again is carried: the walk meets it at its new
place and takes its name, braces and facts from the old unit, so only the
members that the window touches are parsed and measured again.

Method detection is header-pattern plus brace matching, not a full
grammar: constructors count as methods, bodiless declarations are
skipped. A method's line range is the span of its body tokens, so
brace lines holding nothing but a brace never count toward the body.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Container, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import itemgetter

from .errors import IndexingError, InvalidFragment, LexError
from .lexer import (
    Tokens,
    TokenKind,
    normalize_newlines,
    token_bag,
    tokenize,
)
from .statements import StatementParseError, parse_statements

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)


@dataclass(frozen=True)
class LocalDecl:
    declared_type: str
    token_index: int  # the declared name's index in the file's tokens


@dataclass
class ClassContext:
    class_name: str
    field_names: set[str] = field(default_factory=set)
    method_names: set[str] = field(default_factory=set)
    file_path: str = ""


@dataclass
class MethodUnit:
    id: str
    name: str
    # The file's tokens, and where the body's run among them starts and stops:
    # tokens[body[0] - 1] is the body's `{` and tokens[body[1]] its `}`.
    tokens: Tokens = field(repr=False, compare=False)
    body: tuple[int, int]
    start_line: int
    end_line: int
    owner: ClassContext
    # Non-whitespace characters on the body's lines, and the sum of its
    # per-line nesting depths: the size and complexity the vector reads.
    symbol_count: int
    area: int
    # The member's first token past its annotations; the run from it to tokens[body[1]] is what a refresh compares.
    header: int
    # The duplicate scan's fingerprint, built once when the method is indexed.
    bag: dict[str, int]
    bag_size: int
    # The 18 submetric values in ALL_SUBMETRICS order. The session sets
    # them once the whole file is indexed, since a field declared below
    # the method still counts toward its coupling.
    vector: tuple[float, ...] = ()

    @property
    def line_count(self) -> int:
        return self.end_line - self.start_line + 1

    @property
    def file_path(self) -> str:
        return self.owner.file_path

    @property
    def is_static(self) -> bool:
        texts = self.tokens.texts
        return "static" in texts[self.header : texts.index("(", self.header)]

    @property
    def thrown(self) -> tuple[str, ...]:
        """The types the header's `throws` clause names, each rendered as a type is; () when it has none."""
        texts, end = self.tokens.texts, self.body[0] - 1
        if "throws" not in texts[self.header : end]:
            return ()
        start = texts.index("throws", self.header) + 1
        return tuple(_render_type(texts[start:end], self.tokens.kinds[start:end]).split(","))

    @property
    def type_parameters(self) -> str:
        """The header's type-parameter list, rendered as a type is (`<K,V>`), or "" when it has none."""
        tokens = self.tokens
        i = _skip_modifiers(tokens, self.header, self.body[0], _METHOD_MODIFIERS)
        end = _skip_type_arguments(tokens, i) if tokens.texts[i] == "<" else -1
        return _render_type(tokens.texts[i:end], tokens.kinds[i:end]) if end > 0 else ""


@dataclass
class Fragment:
    text: str
    tokens: Tokens
    line_count: int
    # A MethodUnit's indexing facts (body: all of `tokens`; area: as if pasted at depth 1) and the jumps
    # that leave it, built once by validation.
    body: tuple[int, int]
    illegal_flow: tuple[str, ...]
    bag: dict[str, int]
    bag_size: int
    symbol_count: int
    area: int


def _trim_blank_lines(text: str) -> str:
    lines = text.split("\n")
    start = 0
    end = len(lines)
    while start < end and not lines[start].strip():
        start += 1
    while end > start and not lines[end - 1].strip():
        end -= 1
    return "\n".join(lines[start:end])


def validate_fragment(text: str) -> Fragment:
    """The Fragment of a pasted text that is a statement sequence; InvalidFragment for any other text.

    Valid means: lexes, all delimiters balanced, and the tokens parse as
    one or more block statements. Type and member declarations at top
    level are invalid. InvalidFragment carries the lexer's or the parser's
    message and line. A fragment keeps the jumps that would leave it in `illegal_flow`.
    """
    trimmed = _trim_blank_lines(normalize_newlines(text))
    try:
        tokens = tokenize(trimmed)
        illegal_flow = parse_statements(tokens)
    except LexError as exc:
        raise InvalidFragment(str(exc)) from None
    except StatementParseError as exc:
        line = tokens.lines[min(exc.token, len(tokens) - 1)] if tokens else 1  # the last line if the text ended first
        raise InvalidFragment(f"{exc} (line {line})") from None
    lines, hi = trimmed.split("\n"), len(tokens)
    return Fragment(trimmed, tokens, len(lines), (0, hi), illegal_flow, **_facts(tokens, 0, hi, lines, 1, len(lines)))


def _facts(tokens: Tokens, lo: int, hi: int, lines: list[str], first: int, last: int) -> dict:
    """The bag, its size, the symbol count (of lines `first` to `last`) and the nesting area of tokens[lo:hi]."""
    bag = token_bag(tokens.texts[lo:hi])
    symbols = len("".join("".join(lines[first - 1 : last]).split()))
    return dict(bag=bag, bag_size=bag.total(), symbol_count=symbols, area=sum(_profile(tokens, lo, hi, first, last)))


def _profile(tokens: Tokens, lo: int, hi: int, first_line: int, last_line: int) -> list[int]:
    """One depth value per line of tokens[lo:hi], first_line through last_line.

    Depth is the nesting level at the line's first token; '{' increments
    after its token and '}' decrements before it. The top level is depth
    1, and lines without tokens take the running depth. Tokens come in
    line order, all within the range.
    """
    profile: list[int] = []
    depth = 1
    next_line = first_line
    for text, line in zip(tokens.texts[lo:hi], tokens.lines[lo:hi]):
        if line >= next_line:
            profile += [depth] * (line - next_line)
            profile.append(depth - 1 if text == "}" else depth)
            next_line = line + 1
        if text == "}":
            depth -= 1
        elif text == "{":
            depth += 1
    profile += [depth] * (last_line + 1 - next_line)
    return profile


# What follows a type's first token: more of the type, an annotation on it, or the declared name.
_TYPE_CONTINUATIONS = frozenset({".", "<", "[", "...", "@"})
_STATEMENT_BOUNDS = frozenset({";", "{", "}", "("})


def local_declarations(tokens: Tokens, lo: int, hi: int) -> dict[str, LocalDecl]:
    """Each local name declared in tokens[lo:hi], a method's body or a fragment, with its first declaration."""
    # The latest first, so that each name's first declaration is put in last.
    found = sorted(_declarations(tokens, lo, hi), key=itemgetter(2), reverse=True)
    return {name: LocalDecl(declared_type, k) for name, declared_type, k in found}


def _declarations(tokens: Tokens, lo: int, hi: int) -> list[tuple[str, str, int]]:
    """Each local declaration in tokens[lo:hi] as (name, type, name index), a name's every one.

    Covers ordinary declarations, multi-declarator lists, for-init,
    enhanced-for, catch parameters, and try-with-resources. Each name
    comes with its rendered type and the index of its name token in
    `tokens`; misparses fall out as 'not a declaration', never as a crash.
    A declaration is tried where one may start (first, and after `;`, `{`,
    `}` or the `(` of `for`, `catch` or `try`) when, past a `final`, a type starts there.
    """
    texts, kinds = tokens.texts, tokens.kinds
    found: list[tuple[str, str, int]] = []
    n = len(texts)
    identifier = TokenKind.IDENTIFIER
    after_bound = compress(count(lo + 1), map(_STATEMENT_BOUNDS.__contains__, texts[lo : hi - 1]))
    for i in chain((lo,) if lo < hi else (), after_bound):
        if i > lo and texts[i - 1] == "(" and (i - 2 < lo or texts[i - 2] not in ("for", "catch", "try")):
            continue
        j = i + 1 if texts[i] == "final" else i
        if (
            j + 1 < n
            and (kinds[j] is identifier or texts[j] in PRIMITIVE_TYPES)
            and (kinds[j + 1] is identifier or texts[j + 1] in _TYPE_CONTINUATIONS)
        ):
            _try_declaration(tokens, j, found)
    # A stray '(' may pair past `hi`; a name read beyond it is out of range.
    return [d for d in found if d[2] < hi]


def _render_type(texts: tuple[str, ...], kinds: list[TokenKind]) -> str:
    """The type's text: a blank between words, after an annotation's `)` and before its `@`."""
    out: list[str] = []
    word_kinds = (TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.LITERAL)
    prev_word = False
    for text, kind in zip(texts, kinds):
        is_word = kind in word_kinds
        if out and (is_word and (prev_word or out[-1] == ")") or prev_word and text == "@"):
            out.append(" ")
        out.append(text)
        prev_word = is_word
    return "".join(out)


def _read_type(tokens: Tokens, j: int) -> tuple[str, int] | None:
    """The type that tokens[j] starts, rendered, and the index just past it.

    A type is a primitive or a qualified name whose parts may take type
    arguments (`Outer<K>.Inner`), then array pairs and `...`, which renders
    as one pair more. Annotations, which it keeps, may come before a part
    after the first, a type argument, a `[]` or the `...`. None when
    tokens[j] cannot start one or its type arguments do not close before a
    `;`, `{`, `}` or `)`.
    """
    texts, kinds = tokens.texts, tokens.kinds
    n = len(texts)
    if j >= n or not (kinds[j] is TokenKind.IDENTIFIER or texts[j] in PRIMITIVE_TYPES):
        return None
    start = j
    named = kinds[j] is TokenKind.IDENTIFIER
    j += 1
    while j < n:
        if named and texts[j] == ".":
            k = _skip_modifiers(tokens, j + 1, n, ())
            if k < n and kinds[k] is TokenKind.IDENTIFIER:
                j = k + 1
                continue
        if texts[j] != "<":
            break
        j = _skip_type_arguments(tokens, j)
        if j < 0:
            return None
    j = _skip_dims(tokens, j)[0]
    k = _skip_modifiers(tokens, j, n, ())
    if k < n and texts[k] == "...":
        # A varargs parameter is an array inside the body, and may be passed as one.
        return _render_type(texts[start:k], kinds[start:k]) + "[]", k + 1
    return _render_type(texts[start:j], kinds[start:j]), j


def _skip_type_arguments(tokens: Tokens, j: int) -> int:
    """Index just past the `<...>` that tokens[j] opens; -1 when a `;`, `{`, `}` or `)` comes first."""
    texts = tokens.texts
    n = len(texts)
    depth = 0
    while j < n:
        text = texts[j]
        if text == "@":
            j = _skip_annotation(tokens, j, n)
            continue
        if text in (";", "{", "}", ")"):
            return -1
        if text == "<":
            depth += 1
        elif text in (">", ">>", ">>>"):
            depth -= len(text)
        j += 1
        if depth <= 0:
            return j
    return -1


def _skip_dims(tokens: Tokens, j: int) -> tuple[int, int]:
    """Index just past the `[]` pairs, each after its annotations, from tokens[j] on, and their number."""
    texts = tokens.texts
    n = len(texts)
    dims = 0
    while True:
        k = _skip_modifiers(tokens, j, n, ())
        if k + 1 >= n or texts[k] != "[" or texts[k + 1] != "]":
            return j, dims
        j, dims = k + 2, dims + 1


def _read_declarator(tokens: Tokens, j: int, base_type: str) -> tuple[str, int] | None:
    """The type of the name at tokens[j], with the dimensions written after it, and the index past them."""
    if j >= len(tokens) or tokens.kinds[j] is not TokenKind.IDENTIFIER:
        return None
    end, dims = _skip_dims(tokens, j + 1)
    return base_type + "[]" * dims, end


def _try_declaration(tokens: Tokens, j: int, found: list[tuple[str, str, int]]) -> None:
    """Add each declarator's (name, type, name index) if a type starting at tokens[j] starts one."""
    texts, match = tokens.texts, tokens.pairs[0]
    n = len(texts)
    read = _read_type(tokens, j)
    if read is None:
        return
    base_type, j = read
    while True:
        name_index = j
        read = _read_declarator(tokens, j, base_type)
        if read is None:
            return
        declared_type, j = read
        if j >= n or texts[j] not in ("=", ";", ",", ":", ")"):
            return
        found.append((texts[name_index], declared_type, name_index))
        terminator = texts[j]
        if terminator == "=":
            # The initializer runs to a `,`, `;` or closer outside the pairs it holds.
            j += 1
            while j < n and texts[j] not in (",", ";", ")", "]", "}"):
                if texts[j] in ("(", "[", "{"):
                    if not match[j]:
                        return
                    j += match[j]
                j += 1
            if j >= n:
                return
            terminator = texts[j]
        if terminator != ",":
            return
        j += 1


def index_file(
    tokens: Tokens, file_path: str, previous: Sequence[MethodUnit] = ()
) -> tuple[list[MethodUnit], list[ClassContext]]:
    """Index every method body and class context in one lexed source file.

    Method bodies are runs of `tokens`, and the lines they measure are
    those of `tokens.text`. Nested classes produce their own ClassContext
    and own their methods; a record's components are fields of its
    context. Raises IndexingError when braces are unbalanced at file scope
    or classes nest deeper than the interpreter's recursion limit.
    `previous`, the methods indexed from the revision `tokens` were spliced
    from, lets each method whose run lies outside the window lexed again be carried with its facts.
    """
    if not tokens.pairs[1]:
        raise IndexingError("unbalanced braces at file scope")
    indexer = _Indexer(tokens, file_path, previous)
    try:
        indexer.run()
    except RecursionError:
        raise IndexingError("classes nested too deeply to index") from None
    return indexer.methods, indexer.classes


_FIELD_MODIFIERS = frozenset({"public", "private", "protected", "static", "final", "transient", "volatile"})
_METHOD_MODIFIERS = _FIELD_MODIFIERS | {"abstract", "synchronized", "native", "strictfp", "default"}
# What a method whose run is carried keeps.
_KEPT_FACTS = ("bag", "bag_size", "symbol_count", "area")


def _skip_annotation(tokens: Tokens, i: int, end: int) -> int:
    """Index just past the annotation whose '@' is tokens[i], at most end."""
    texts, kinds = tokens.texts, tokens.kinds
    i += 1
    while i + 1 < end and kinds[i] is TokenKind.IDENTIFIER and texts[i + 1] == ".":
        i += 2
    if i < end and kinds[i] in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
        i += 1
    if i < end and texts[i] == "(":
        offset = tokens.pairs[0][i]
        i = min(i + offset + 1, end) if offset else end
    return i


def _skip_modifiers(tokens: Tokens, i: int, end: int, words: Container[str]) -> int:
    """Index of the first token from tokens[i] on, at most end, that is not an annotation or one of words."""
    texts = tokens.texts
    while i < end and (texts[i] == "@" or texts[i] in words):
        i = _skip_annotation(tokens, i, end) if texts[i] == "@" else i + 1
    return i


class _Indexer:
    def __init__(self, tokens: Tokens, file_path: str, previous: Sequence[MethodUnit]):
        # The previous revision's methods whose runs lie before or past the window, by where each run now starts.
        self.carried: dict[int, MethodUnit] = {}
        if previous and tokens.window and tokens.window[0]() is previous[0].tokens:
            _, k, old_end, new_end = tokens.window
            past = {m.header + new_end - old_end: m for m in previous if m.header >= old_end}
            self.carried = {**{m.header: m for m in previous if m.body[1] < k}, **past}
        self.tokens = tokens
        self.texts = tokens.texts
        self.kinds = tokens.kinds
        self.match = tokens.pairs[0]
        self.file_path = file_path
        self.lines: list[str] = []  # the text's lines, split only to measure a method anew
        self.methods: list[MethodUnit] = []
        self.classes: list[ClassContext] = []
        self.ids: set[str] = set()
        self.pos = 0

    def run(self) -> None:
        n = len(self.texts)
        while self.pos < n:
            if self._declares_type(self.pos):
                self._parse_class(self.texts[self.pos])
            else:
                self.pos += 1

    def _declares_type(self, i: int) -> bool:
        """tokens[i] opens a class, interface, enum or record declaration.

        `record` is an identifier elsewhere, so it counts only when a name
        and then its component list or type parameters follow.
        """
        texts = self.texts
        if self.kinds[i] is TokenKind.KEYWORD:
            return texts[i] in ("class", "interface", "enum")
        return (
            texts[i] == "record"
            and i + 2 < len(texts)
            and self.kinds[i + 1] is TokenKind.IDENTIFIER
            and texts[i + 2] in ("(", "<")
        )

    def _parse_class(self, declared_as: str) -> None:
        texts = self.texts
        name = self.pos + 1
        if name >= len(texts) or self.kinds[name] is not TokenKind.IDENTIFIER:
            self.pos += 1
            return
        self.pos += 2
        components = -1  # a record's '('
        while self.pos < len(texts) and texts[self.pos] != "{":
            if declared_as == "record" and components < 0 and texts[self.pos] == "(":
                components = self.pos
            self.pos += 1
        if self.pos >= len(texts):
            raise IndexingError(f"class body missing for {texts[name]}")
        ctx = ClassContext(texts[name], set(), set(), self.file_path)
        if components >= 0 and components < components + self.match[components] < self.pos:
            ctx.field_names.update(_parse_parameters(self.tokens, components + 1, components + self.match[components]))
        self.classes.append(ctx)
        body_end = self.pos + self.match[self.pos]
        self.pos += 1
        if declared_as == "enum":
            self._skip_enum_constants(body_end)
        while self.pos < body_end:
            self._parse_member(ctx, body_end)
        self.pos = body_end + 1

    def _skip_enum_constants(self, body_end: int) -> None:
        i = self.pos
        while i < body_end:
            text = self.texts[i]
            if text == ";":
                self.pos = i + 1
                return
            if text in ("(", "{"):
                if not self.match[i]:
                    break
                i += self.match[i]
            i += 1
        self.pos = body_end

    def _parse_member(self, ctx: ClassContext, body_end: int) -> None:
        texts = self.texts
        # Skip annotations so the first '(' found belongs to a parameter list.
        i = member_start = _skip_modifiers(self.tokens, self.pos, body_end, ())
        old = self.carried.get(member_start)
        if old and (close := old.body[1] + member_start - old.header) < body_end:
            # Its run is as it was, so it parses as it did, each brace moved as far as its first token.
            self._add_method(ctx, old.name, member_start, close - old.body[1] + old.body[0] - 1, close, old)
            self.pos = close + 1
            return
        saw_assign = False
        while i < body_end:
            text = texts[i]
            if (
                self._declares_type(i)
                and not saw_assign
                and not (i > member_start and texts[i - 1] == ".")
            ):
                self.pos = i
                self._parse_class(text)
                return
            if text == "=":
                saw_assign = True
            elif text in "([":
                # Jump to the partner; a stray or unmatched one runs to the end of the body.
                if not self.match[i]:
                    break
                i += self.match[i]
            elif text in ")]":
                break
            elif text == ";":
                self._finish_bodiless_member(ctx, member_start, i)
                self.pos = i + 1
                return
            elif text == "{":
                close = i + self.match[i]
                if saw_assign:
                    i = close + 1
                    continue
                self._finish_braced_member(ctx, member_start, i, close)
                self.pos = close + 1
                return
            i += 1
        self.pos = body_end

    def _finish_bodiless_member(self, ctx: ClassContext, start: int, semi: int) -> None:
        """Record the fields that tokens[start:semi] declares, or else the method it names."""
        texts = self.texts
        i = _skip_modifiers(self.tokens, start, semi, _FIELD_MODIFIERS)
        found: list[tuple[str, str, int]] = []
        _try_declaration(self.tokens, i, found)
        if found:
            ctx.field_names.update(name for name, _, _ in found)
            return
        paren = next((k for k in range(start, semi) if texts[k] == "("), start)
        if paren > start and self.kinds[paren - 1] is TokenKind.IDENTIFIER:
            ctx.method_names.add(texts[paren - 1])

    def _finish_braced_member(self, ctx: ClassContext, start: int, open_brace: int, close_brace: int) -> None:
        texts = self.texts
        paren = next((k for k in range(start, open_brace) if texts[k] == "("), start)
        if paren == start or self.kinds[paren - 1] is not TokenKind.IDENTIFIER:
            return  # initializer block or unrecognized construct
        name = texts[paren - 1]
        close_paren = paren + self.match[paren]
        if close_paren <= paren or close_paren >= open_brace:
            return
        self._add_method(ctx, name, start, open_brace, close_brace, None)

    def _add_method(self, ctx: ClassContext, name: str, start: int, brace: int, close: int, old: MethodUnit | None) -> None:
        """Record the method whose run is tokens[start:close + 1]; `old`, a unit of that run, lends its facts."""
        tokens, lines = self.tokens, self.tokens.lines
        lo, hi = brace + 1, close
        start_line, end_line = (lines[lo], lines[hi - 1]) if lo < hi else (lines[brace],) * 2
        kept = old and {fact: getattr(old, fact) for fact in _KEPT_FACTS}
        if not (kept or self.lines):
            self.lines = tokens.text.split("\n")
        facts = kept or _facts(tokens, lo, hi, self.lines, start_line, end_line)
        method_id = f"{self.file_path}:{start_line}:{name}"
        if method_id in self.ids:
            # Overloads whose bodies start on one line; their braces' columns differ.
            method_id += f":{tokens.column(brace)}"
        self.ids.add(method_id)
        self.methods.append(MethodUnit(
            id=method_id, name=name, tokens=tokens, body=(lo, hi), start_line=start_line,
            end_line=end_line, owner=ctx, header=start, **facts,
        ))
        ctx.method_names.add(name)


def _parse_parameters(tokens: Tokens, i: int, end: int) -> dict[str, LocalDecl]:
    """Each name declared by tokens[i:end], inside a parameter list or record header, with its first declaration.

    Each is `Type name [dims]` after its annotations and `final`; the
    reading stops at the first one that is not. A receiver parameter,
    `A this` or `Outer Outer.this`, declares no variable.
    """
    texts, kinds = tokens.texts, tokens.kinds
    params: dict[str, LocalDecl] = {}
    while i < end:
        i = _skip_modifiers(tokens, i, end, _FIELD_MODIFIERS)
        read = _read_type(tokens, i)
        if read is None:
            break
        i = k = read[1]
        while k + 1 < end and kinds[k] is TokenKind.IDENTIFIER and texts[k + 1] == ".":
            k += 2
        if texts[k] == "this":
            i = k + 1
        else:
            read = _read_declarator(tokens, i, read[0])
            if read is None:
                break
            params.setdefault(texts[i], LocalDecl(read[0], i))
            i = read[1]
        if i >= end or texts[i] != ",":
            break
        i += 1
    return params


def method_declarations(method: MethodUnit, at: int) -> dict[str, LocalDecl]:
    """Each name in scope at token `at` of the method's body, with the declaration it names there.

    A local declared ahead of `at` in a block that holds `at` hides a
    parameter, and the last such one hides the others, as a nested class's does.
    """
    tokens, (lo, hi) = method.tokens, method.body
    texts, match = tokens.texts, tokens.pairs[0]
    paren = texts.index("(", method.header, lo - 1)
    ahead = {k: LocalDecl(declared_type, k) for _, declared_type, k in _declarations(tokens, lo, hi) if k < at}
    in_scope: dict[str, LocalDecl] = {}
    k = at - 1
    while k >= lo:
        if texts[k] == "}" and k + match[k] >= lo:
            k += match[k]
        elif k in ahead:
            in_scope.setdefault(texts[k], ahead[k])
        k -= 1
    return _parse_parameters(tokens, paren + 1, paren + match[paren]) | in_scope


def source_position(method: MethodUnit) -> tuple[str, int]:
    """Sort key placing methods by file, then by their body's first line."""
    return method.file_path, method.start_line


def method_at(methods: list[MethodUnit], file_path: str, line: int) -> MethodUnit | None:
    """The method whose body line range contains the given source line.

    `methods` must be sorted by `source_position`. A file's bodies follow
    one another, each ending at or before the line where the next one
    starts, so the bodies holding the line sit just before the bisection
    point. Where several do (bodies sharing a line), the first in id
    order wins.
    """
    i = bisect_right(methods, (file_path, line), key=source_position)
    found = None
    while i > 0:
        i -= 1
        unit = methods[i]
        if unit.file_path != file_path or unit.end_line < line:
            break
        if found is None or unit.id <= found.id:
            found = unit
    return found
