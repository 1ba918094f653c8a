"""Paths and helpers shared by the test modules.

Kept out of conftest.py so the modules can import them by a name no
other test directory uses.
"""

from __future__ import annotations

import sys
from pathlib import Path

from anticopypaster import lexer

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


def count_lexing(monkeypatch) -> list[str]:
    """Record the text of every `tokenize` call any engine module makes."""
    lexed: list[str] = []
    tokenize = lexer.tokenize

    def counting_tokenize(text):
        lexed.append(text)
        return tokenize(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("anticopypaster") and getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    return lexed
