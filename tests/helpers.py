"""Paths and helpers shared by the test modules.

Kept out of conftest.py so the modules can import them by a name no
other test directory uses.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from anticopypaster import lexer, metrics
from anticopypaster.errors import LexError
from anticopypaster.extraction import Parameter
from anticopypaster.lexer import JAVA_KEYWORDS, WORD_LITERALS, Token, TokenKind, Tokens, normalize_newlines
from anticopypaster.metrics import ProjectDistribution, build_distributions, method_vector, vector_values
from anticopypaster.source_model import (
    PRIMITIVE_TYPES,
    ClassContext,
    LocalDecl,
    MethodUnit,
    _render_type,
    _skip_annotation,
    _try_declaration,
    local_declarations,
    method_declarations,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"
SCENARIOS_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"


def write_project(root: Path, files: dict[str, str]) -> Path:
    """Materialize a tiny Java tree for a test."""
    root.mkdir(parents=True, exist_ok=True)
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return root


def count_calls(monkeypatch, func) -> list:
    """Record the first argument of every call any engine module makes to `func`.

    Further arguments are passed through unrecorded.
    """
    calls: list = []

    def counting(arg, *rest, **options):
        calls.append(arg)
        return func(arg, *rest, **options)

    for name, module in list(sys.modules.items()):
        if name.startswith("anticopypaster") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counting)
    return calls


def count_lexing(monkeypatch) -> list[str]:
    """Record the text of every `tokenize` call any engine module makes."""
    return count_calls(monkeypatch, lexer.tokenize)


# The lexer's regex from before it lexed into columns, one named group per
# lexeme class, without the blanks each match then took after its lexeme:
# one `finditer` match per token or gap.
_REFERENCE_TOKEN = re.compile(
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
    )
    ''',
    re.VERBOSE,
)
_REFERENCE_UNCLOSED = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated string literal",
}


def reference_tokenize(text: str) -> list[Token]:
    """`lexer.tokenize` by one match and one Python step per token: the oracle for the columns.

    Raises the same LexError, message and line, at the first token that is one.
    """
    text = normalize_newlines(text)
    tokens: list[Token] = []
    line, line_start = 1, 0
    group_kinds = {"literal": TokenKind.LITERAL, "punctuation": TokenKind.PUNCTUATION, "operator": TokenKind.OPERATOR}
    for m in _REFERENCE_TOKEN.finditer(text):
        group, lexeme = m.lastgroup, m[m.lastgroup]
        if group == "skip":
            pass
        elif group == "word":
            if not (lexeme[0].isalpha() or lexeme[0] in "_$"):
                raise LexError(f"unexpected character {lexeme[0]!r}", line)
            if lexeme in JAVA_KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.LITERAL if lexeme in WORD_LITERALS else TokenKind.IDENTIFIER
            tokens.append(Token(kind, lexeme, line, m.start() - line_start + 1))
        elif group in group_kinds:
            tokens.append(Token(group_kinds[group], lexeme, line, m.start() - line_start + 1))
        else:
            raise LexError(_REFERENCE_UNCLOSED.get(lexeme, f"unexpected character {lexeme!r}"), line)
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = m.start() + lexeme.rindex("\n") + 1
    return tokens


def body_texts(unit) -> tuple[str, ...]:
    """The token texts of a method's or fragment's body range."""
    return unit.tokens.texts[slice(*unit.body)]


def body_tokens(unit: MethodUnit) -> Tokens:
    """A method's body as columns of its own, with the columns it has in its file."""
    lo, hi = unit.body
    tokens = unit.tokens
    gaps = tokens.gaps[lo:hi]
    if gaps:
        gaps = ("\n" + " " * (tokens.column(lo) - 1),) + gaps[1:]
    return Tokens(tokens.texts[lo:hi], tokens.kinds[lo:hi], tokens.lines[lo:hi], gaps)


def token_walk_coupling(
    tokens: Tokens, body: tuple[int, int], owner: ClassContext, declared: dict[str, LocalDecl]
) -> tuple[int, int]:
    """`metrics.coupling_counts` by walking every token of the body range: the oracle for its bag-driven count.

    A field name counts until its declaration in `declared`, which maps
    each name to its first one, such as all of `local_declarations`.
    """
    field_refs = 0
    method_refs = 0
    texts = tokens.texts
    for i in range(*body):
        name = texts[i]
        if tokens.kinds[i] != TokenKind.IDENTIFIER:
            continue
        followed_by_call = i + 1 < len(texts) and texts[i + 1] == "("
        if followed_by_call and name in owner.method_names:
            method_refs += 1
        if name in owner.field_names:
            if name in declared and declared[name].token_index <= i:
                continue
            field_refs += 1
    return field_refs, method_refs


def declarations_of(tokens: Tokens) -> dict[str, LocalDecl]:
    """`source_model.local_declarations` over the whole token sequence."""
    return local_declarations(tokens, 0, len(tokens))


def candidate_declarations(tokens: Tokens) -> dict[str, LocalDecl]:
    """`source_model.local_declarations` by trying a declaration at every spot one may start.

    The oracle for the scan, which also skips the spots where the token
    after a type's first one can neither go on with the type nor name it.
    Each name keeps the declaration with the lowest name index.
    """
    found = sorted(_candidate_scan(tokens, 0, len(tokens)), key=lambda item: item[2])
    return {name: LocalDecl(declared_type, k) for name, declared_type, k in reversed(found)}


def _candidate_scan(tokens: Tokens, lo: int, hi: int) -> list[tuple[str, str, int]]:
    """Every (name, type, name index) that a declaration tried at each spot of tokens[lo:hi] reads, below `hi`."""
    texts = tokens.texts
    spots = [lo] if lo < hi else []
    for i in range(lo, hi - 1):
        if texts[i] in (";", "{", "}"):
            spots.append(i + 1)
        elif texts[i] == "(" and i > lo and texts[i - 1] in ("for", "catch", "try"):
            spots.append(i + 1)
    found: list[tuple[str, str, int]] = []
    for start in spots:
        j = start + 1 if texts[start] == "final" else start
        if j < len(texts) and (texts[j] in PRIMITIVE_TYPES or tokens.kinds[j] == TokenKind.IDENTIFIER):
            _try_declaration(tokens, j, found)
    return [d for d in found if d[2] < hi]


def parameters_of(method: MethodUnit) -> dict[str, LocalDecl]:
    """The method's parameters: `method_declarations` at its body's first token, ahead of every local."""
    return method_declarations(method, method.body[0])


def declarations_in_scope(method: MethodUnit, at: int) -> dict[str, LocalDecl]:
    """`source_model.method_declarations` by finding each local's block through `Tokens.pairs`.

    The oracle for its backward walk: a local declared ahead of `at` is in
    scope when the innermost `{ }` opened in the body around its name
    closes at or past `at`, or there is none; the last such declaration of
    a name hides the others and the parameter.
    """
    tokens, (lo, hi) = method.tokens, method.body
    match = tokens.pairs[0]
    opens = [o for o in range(lo, at) if tokens.texts[o] == "{"]
    in_scope = parameters_of(method)
    for name, declared_type, k in sorted(_candidate_scan(tokens, lo, hi), key=lambda item: item[2]):
        if k < at and min((o + match[o] for o in opens if o < k < o + match[o]), default=at) >= at:
            in_scope[name] = LocalDecl(declared_type, k)
    return in_scope


def statement_starts(method: MethodUnit) -> list[int]:
    """Each token of the body that follows `;`, `{` or `}`, and its closing `}`: a place a fragment may start."""
    texts, (lo, hi) = method.tokens.texts, method.body
    return [k for k in range(lo, hi + 1) if texts[k - 1] in (";", "{", "}")]


def fresh_distributions(methods: list[MethodUnit], keywords: frozenset[str]) -> ProjectDistribution:
    """The distribution recomputed from scratch, ignoring stored vectors.

    The oracle for a session's distribution, which is sorted from the
    vectors computed when each file was indexed.
    """
    return build_distributions([vector_values(method_vector(m, keywords)) for m in methods])


def full_scan_vector(method: MethodUnit, keywords: frozenset[str]) -> tuple[float, ...]:
    """The method's vector with its coupling counted by `token_walk_coupling` over every local its body declares.

    The oracle for `metrics.coupling_counts`, which walks only the bag's
    field and method names and reads the declarations only where a field
    name may be declared: while the method is measured, it is replaced by
    the token walk over the full declaration scan.
    """
    def token_walk(tokens, body, bag, owner):
        return token_walk_coupling(tokens, body, owner, local_declarations(tokens, *body))

    with mock.patch.object(metrics, "coupling_counts", token_walk):
        return vector_values(method_vector(method, keywords))


def comma_split_parameters(tokens: Tokens, start: int, end: int) -> list[Parameter]:
    """Parameters declared by tokens[start:end], read by splitting at top-level commas.

    The oracle for `source_model._parse_parameters`: each group loses its
    annotations (type-argument ones too) and `final`, its last identifier
    is the name, and what comes before it the type, so dimensions written
    after the name are dropped.
    """
    groups: list[tuple[int, int]] = []
    group_start = start
    depth = 0
    texts, kinds = tokens.texts, tokens.kinds
    for k in range(start, end):
        text = texts[k]
        if text in ("(", "<", "["):
            depth += 1
        elif text in (")", "]"):
            depth -= 1
        elif text in (">", ">>", ">>>"):
            depth -= len(text)
        if text == "," and depth == 0:
            groups.append((group_start, k))
            group_start = k + 1
    groups.append((group_start, end))
    params = []
    for lo, hi in groups:
        body: list[int] = []
        i = lo
        while i < hi:
            if texts[i] == "@":
                i = _skip_annotation(tokens, i, hi)
                continue
            if texts[i] != "final":
                body.append(i)
            i += 1
        names = [k for k, i in enumerate(body) if kinds[i] == TokenKind.IDENTIFIER]
        if names:
            kept = body[: names[-1]]
            rendered = _render_type([texts[i] for i in kept], [kinds[i] for i in kept])
            params.append(Parameter(texts[body[names[-1]]], rendered))
    return params


requires_javac = pytest.mark.skipif(shutil.which("javac") is None, reason="javac is not installed")


def javac_errors(sources: dict[str, str]) -> str:
    """Compile Java sources, keyed by relative path, in one `javac` call; its error output.

    Empty when everything compiles. Class files go to a temporary
    directory that is removed afterwards.
    """
    with tempfile.TemporaryDirectory() as scratch:
        root = write_project(Path(scratch) / "src", sources)
        paths = [str(root / rel) for rel in sorted(sources)]
        done = subprocess.run(
            ["javac", "-nowarn", "-d", str(Path(scratch) / "classes"), *paths],
            capture_output=True, text=True, check=False,
        )
    return "" if done.returncode == 0 else done.stderr + done.stdout
