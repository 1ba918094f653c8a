"""Every method of a generated 10k-method project keeps the vector the full declaration scan gives.

Run from the repository root, outside the pytest suite:

    PYTHONPATH=src python tests/vector_differential_10k.py

It generates the `javagen` project of 400 files x 25 methods (seed 3,
`dup_rate` 0.1, `motif_width` 6, `motifs` 4) in a temporary directory,
opens it, and compares each method's stored vector with
`helpers.full_scan_vector`, which counts coupling by walking every token
of the body against all of its local declarations. It then does the same
for a variant of the project in which every third method begins with
`int <one of its class's fields> = 0;`, so that `metrics.coupling_counts`
has to read the body's declarations (the fallback scan) there, and reports
how many methods of each project took it. Exits 1 when any vector differs, a
project has too few methods, or no method of the variant took the fallback.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import javagen  # noqa: E402
from helpers import full_scan_vector  # noqa: E402

from anticopypaster import metrics  # noqa: E402
from anticopypaster.workspace import ProjectSession, open_project  # noqa: E402

PARAMS = javagen.GenParams(files=400, methods_per_file=25, dup_rate=0.1, motif_width=6, motifs=4)
SEED = 3


def open_counting_fallbacks(sources: dict[str, str], manifest: javagen.Manifest) -> tuple[ProjectSession, int]:
    """Open the sources as a project, and count the methods whose coupling took the fallback scan."""
    calls = 0
    scan = metrics.local_declarations

    def counting(*args):
        nonlocal calls
        calls += 1
        return scan(*args)

    with tempfile.TemporaryDirectory() as root, mock.patch.object(metrics, "local_declarations", counting):
        javagen.write_project(Path(root), sources, manifest)
        session = open_project(root)
    return session, calls


def shadowing_variant(session: ProjectSession) -> dict[str, str]:
    """The session's sources with every third method beginning `int <a field of its class> = 0;`."""
    edits: dict[str, list[tuple[int, int, str]]] = {}
    for k, method in enumerate(session.methods[::3]):
        fields = sorted(method.owner.field_names)
        if fields:
            tokens, brace = method.tokens, method.body[0] - 1
            text = f" int {fields[k % len(fields)]} = 0;"
            edits.setdefault(method.file_path, []).append((tokens.lines[brace], tokens.column(brace), text))
    sources = dict(session.files)
    for path, inserts in edits.items():
        lines = sources[path].split("\n")
        for line, column, text in sorted(inserts, reverse=True):  # just past the `{`, last first
            lines[line - 1] = lines[line - 1][:column] + text + lines[line - 1][column:]
        sources[path] = "\n".join(lines)
    return sources


def compare(name: str, session: ProjectSession, fallbacks: int) -> bool:
    """Print how the project's vectors compare with the full scan's; True when all are equal."""
    keywords = session.settings.keywords
    differ = [m.id for m in session.methods if m.vector != full_scan_vector(m, keywords)]
    print(f"{name}: {len(session.methods)} methods, {fallbacks} took the fallback scan; "
          f"{len(differ)} differ from the full declaration scan")
    for method_id in differ[:10]:
        print(f"  {method_id}")
    return not differ and len(session.methods) >= PARAMS.files * PARAMS.methods_per_file


def main() -> int:
    sources, manifest = javagen.generate(PARAMS, SEED)
    session, fallbacks = open_counting_fallbacks(sources, manifest)
    ok = compare("generated", session, fallbacks)
    variant, fallbacks = open_counting_fallbacks(shadowing_variant(session), manifest)
    ok = compare("shadowing variant", variant, fallbacks) and ok
    return 0 if ok and fallbacks else 1


if __name__ == "__main__":
    sys.exit(main())
