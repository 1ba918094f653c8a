"""Paths and helpers shared by the test modules.

Kept out of conftest.py so the modules can import them by a name no
other test directory uses.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from anticopypaster import lexer
from anticopypaster.lexer import Token, TokenKind
from anticopypaster.metrics import ProjectDistribution, build_distributions, method_vector, vector_values
from anticopypaster.source_model import (
    PRIMITIVE_TYPES,
    ClassContext,
    LocalDecl,
    MethodUnit,
    Parameter,
    _render_type,
    _skip_annotation,
    _try_declaration,
    scan_declarations,
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


def token_walk_coupling(
    tokens: list[Token], owner: ClassContext, shadow_from: dict[str, LocalDecl]
) -> tuple[int, int]:
    """`metrics.coupling_counts` by walking every token: the oracle for its bag-driven count."""
    field_refs = 0
    method_refs = 0
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.IDENTIFIER:
            continue
        name = tok.text
        followed_by_call = i + 1 < len(tokens) and tokens[i + 1].text == "("
        if followed_by_call and name in owner.method_names:
            method_refs += 1
        if name in owner.field_names:
            if name in shadow_from and shadow_from[name].token_index <= i:
                continue
            field_refs += 1
    return field_refs, method_refs


def declarations_of(tokens: list[Token]) -> list[tuple[str, LocalDecl]]:
    """`source_model.scan_declarations` over the whole token sequence."""
    return scan_declarations(tokens, lexer.match_delimiters(tokens), 0, len(tokens))


def candidate_declarations(tokens: list[Token]) -> list[tuple[str, LocalDecl]]:
    """`source_model.scan_declarations` by trying a declaration at every spot one may start.

    The oracle for the scan, which also skips the spots where the token
    after a type's first one can neither go on with the type nor name it.
    """
    spots = [0] if tokens else []
    for i, tok in enumerate(tokens[:-1]):
        if tok.text in (";", "{", "}"):
            spots.append(i + 1)
        elif tok.text == "(" and i > 0 and tokens[i - 1].text in ("for", "catch", "try"):
            spots.append(i + 1)
    found: list[tuple[str, str, int]] = []
    match = lexer.match_delimiters(tokens)
    for start in spots:
        j = start + 1 if tokens[start].text == "final" else start
        if j < len(tokens) and (tokens[j].text in PRIMITIVE_TYPES or tokens[j].kind == TokenKind.IDENTIFIER):
            _try_declaration(tokens, match, j, found)
    found.sort(key=lambda item: item[2])
    return [(name, LocalDecl(declared_type, k)) for name, declared_type, k in found]


def fresh_distributions(methods: list[MethodUnit], keywords: frozenset[str]) -> ProjectDistribution:
    """The distribution recomputed from scratch, ignoring stored vectors.

    The oracle for a session's distribution, which is sorted from the
    vectors computed when each file was indexed.
    """
    return build_distributions([vector_values(method_vector(m, keywords)) for m in methods])


def comma_split_parameters(tokens: list[Token], match: list[int], start: int, end: int) -> list[Parameter]:
    """Parameters declared by tokens[start:end], read by splitting at top-level commas.

    The oracle for `source_model._parse_parameters`: each group loses its
    annotations (type-argument ones too) and `final`, its last identifier
    is the name, and what comes before it the type, so dimensions written
    after the name are dropped.
    """
    groups: list[tuple[int, int]] = []
    group_start = start
    depth = 0
    for k in range(start, end):
        text = tokens[k].text
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
        body: list[Token] = []
        i = lo
        while i < hi:
            if tokens[i].text == "@":
                i = _skip_annotation(tokens, match, i, hi)
                continue
            if tokens[i].text != "final":
                body.append(tokens[i])
            i += 1
        names = [k for k, tok in enumerate(body) if tok.kind == TokenKind.IDENTIFIER]
        if names:
            params.append(Parameter(body[names[-1]].text, _render_type(body[: names[-1]])))
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
