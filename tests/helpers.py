"""Paths and helpers shared by the test modules.

Kept out of conftest.py so the modules can import them by a name no
other test directory uses.
"""

from __future__ import annotations

import sys
from pathlib import Path

from anticopypaster import lexer
from anticopypaster.lexer import Token, TokenKind
from anticopypaster.source_model import PRIMITIVE_TYPES, ClassContext, LocalDecl, _try_declaration

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
    found: list[tuple[str, LocalDecl]] = []
    for start in spots:
        j = start + 1 if tokens[start].text == "final" else start
        if j < len(tokens) and (tokens[j].text in PRIMITIVE_TYPES or tokens[j].kind == TokenKind.IDENTIFIER):
            _try_declaration(tokens, j, found)
    found.sort(key=lambda item: item[1].token_index)
    return found
