"""Every method of a generated 10k-method project keeps the vector the full declaration scan gives.

Run from the repository root, outside the pytest suite:

    PYTHONPATH=src python tests/vector_differential_10k.py

It generates the `javagen` project of 400 files x 25 methods (seed 3,
`dup_rate` 0.1, `motif_width` 6, `motifs` 4) in a temporary directory,
opens it, and compares each method's stored vector with
`helpers.full_scan_vector`, which reads every local declaration of the
body. Exits 1 when any vector differs or the project has too few methods.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import javagen  # noqa: E402
from helpers import full_scan_vector  # noqa: E402

from anticopypaster.lexer import match_delimiters  # noqa: E402
from anticopypaster.workspace import open_project  # noqa: E402

PARAMS = javagen.GenParams(files=400, methods_per_file=25, dup_rate=0.1, motif_width=6, motifs=4)
SEED = 3


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        sources, manifest = javagen.generate(PARAMS, SEED)
        javagen.write_project(Path(root), sources, manifest)
        session = open_project(root)
    keywords = session.settings.keywords
    differ = []
    paired, match = None, []
    for method in session.methods:  # a file's methods are adjacent, so each file is paired once
        if method.tokens is not paired:
            paired, match = method.tokens, match_delimiters(method.tokens.texts)[0]
        if method.vector != full_scan_vector(method, match, keywords):
            differ.append(method.id)
    print(f"{len(session.methods)} methods; {len(differ)} differ from the full declaration scan")
    for method_id in differ[:10]:
        print(f"  {method_id}")
    return 1 if differ or len(session.methods) < PARAMS.files * PARAMS.methods_per_file else 0


if __name__ == "__main__":
    sys.exit(main())
