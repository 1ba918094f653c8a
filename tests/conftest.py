from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import CORPUS_DIR, REPO_ROOT


@pytest.fixture
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture
def corpus_cases() -> list[dict]:
    cases = []
    for case_dir in sorted(CORPUS_DIR.iterdir()):
        if not case_dir.is_dir():
            continue
        meta = json.loads((case_dir / "case.json").read_text(encoding="utf-8"))
        meta["dir"] = case_dir
        cases.append(meta)
    return cases
