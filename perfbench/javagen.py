"""Seeded generator of synthetic Java projects, with a manifest of what it planted.

Every project has `files` classes of `methods_per_file` methods each. A
share `dup_rate` of the methods hosts one of `motifs` planted motifs, a
run of `motif_width` statements that uses identifiers no other code
uses, so its exact hosts are known. One host of each motif holds the
motif alone (plus a return), and one extra method holds a near variant:
the motif with two statements swapped and one literal changed, so bag
overlap finds it while the exact scan does not.

Only Java the engine handles today is emitted: one class per file, int
fields and parameters, one statement per line, `if`/`for`/`while`
blocks, calls to sibling methods. No records, text blocks, arrow
`case` labels or non-ASCII text, and no line holding two statements,
so none of the faults listed in the benchmark README can fire.

Every filler statement carries a literal that is unique in the project,
which keeps any filler span from being duplicated by accident.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

MANIFEST_NAME = "manifest.json"
PARAMS = "int a, int b"
FIELDS = ("f0", "f1", "f2")


@dataclass(frozen=True)
class GenParams:
    files: int
    methods_per_file: int
    dup_rate: float
    motif_width: int
    motifs: int = 1
    unique_fragments: int = 0


@dataclass
class MethodInfo:
    id: str
    file: str
    name: str
    start_line: int
    body_lines: int
    body_text: str


@dataclass
class Site:
    """A run of statements inside one method: where a paste lands."""

    file: str
    line: int
    method_id: str
    text: str


@dataclass
class Motif:
    name: str
    text: str
    hosts: list[Site]
    alone_host: Site  # the host whose body is the motif and a return
    near_variant: Site
    result_var: str


@dataclass
class Manifest:
    params: GenParams
    seed: int
    methods: list[MethodInfo] = field(default_factory=list)
    motifs: list[Motif] = field(default_factory=list)
    unique: list[Site] = field(default_factory=list)

    def method_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for m in self.methods:
            counts[m.file] = counts.get(m.file, 0) + 1
        return counts

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)


class _Names:
    """Literals that are unique in the project, increasing from a seeded start."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_literal = 1000 + rng.randrange(1000)

    def literal(self) -> int:
        self.next_literal += 1 + self.rng.randrange(3)
        return self.next_literal


class _Deck:
    """Draws from shuffled copies of `items`, so every value comes up equally often.

    Projects of one shape then differ between seeds in order and names,
    not in how much code they hold.
    """

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _filler_statement(rng: random.Random, kind: int, names: _Names, local: str,
                      helpers: list[str]) -> list[str]:
    """One filler statement of the given kind, as its lines at body depth 0."""
    lit = names.literal()
    field_name = rng.choice(FIELDS)
    if kind == 0:
        return [f"{local} = {local} + a * {lit};"]
    if kind == 1:
        return [f"{field_name} += {local} - {lit};"]
    if kind == 2:
        return [f"if ({local} > {lit}) {{", f"    {local} = {local} - b;", "}"]
    if kind == 3:
        return [
            f"for (int i = 0; i < b; i++) {{",
            f"    {local} += i * {lit};",
            "}",
        ]
    if kind == 4:
        return [f"{local} = {local} + {rng.choice(helpers)}({local}, {lit});"]
    if kind == 5:
        return [f"while ({local} > {lit}) {{", f"    {local} = {local} / 2;", "}"]
    return [f"{local} = {local} * 3 - {lit};"]


def _motif_lines(index: int, width: int, names: _Names) -> tuple[list[list[str]], str]:
    """The statements of motif `index` and the local it computes."""
    var = f"mv{index}"
    statements: list[list[str]] = [[f"int {var} = a + {names.literal()};"]]
    shapes = [
        lambda: [f"{var} = {var} * {names.literal()} - b;"],
        lambda: [f"if ({var} > {names.literal()}) {{", f"    {var} = {var} - b;", "}"],
        lambda: [f"f0 += {var} + {names.literal()};"],
        lambda: [f"for (int k{index} = 0; k{index} < b; k{index}++) {{", f"    {var} += k{index};", "}"],
    ]
    for k in range(width - 1):
        statements.append(shapes[k % len(shapes)]())
    return statements, var


def _near_variant(statements: list[list[str]], names: _Names) -> list[list[str]]:
    """Swap the second and third statements and change the first literal."""
    out = [list(s) for s in statements]
    if len(out) >= 3:
        out[1], out[2] = out[2], out[1]
    first = out[0][0]
    head, _, _ = first.rpartition("+ ")
    out[0][0] = f"{head}+ {names.literal()};"
    return out


def generate(params: GenParams, seed: int) -> tuple[dict[str, str], Manifest]:
    """Build the project's sources and their manifest from the seed."""
    rng = random.Random(seed)
    names = _Names(rng)
    total = params.files * params.methods_per_file
    hosts_per_motif = max(2, round(params.dup_rate * total / max(1, params.motifs)))
    slots = [(f, m) for f in range(params.files) for m in range(params.methods_per_file)]
    if params.motifs * (hosts_per_motif + 1) + params.unique_fragments > len(slots):
        raise ValueError("project too small for the planted motifs")
    rng.shuffle(slots)

    # What each method slot holds: ("motif", k, alone) / ("near", k) / ("unique", j) / None.
    role: dict[tuple[int, int], tuple] = {}
    cursor = 0
    for k in range(params.motifs):
        for h in range(hosts_per_motif):
            role[slots[cursor]] = ("motif", k, h == 0)
            cursor += 1
        role[slots[cursor]] = ("near", k)
        cursor += 1
    for j in range(params.unique_fragments):
        role[slots[cursor]] = ("unique", j)
        cursor += 1

    motif_bodies = [_motif_lines(k, params.motif_width, names) for k in range(params.motifs)]
    variant_bodies = [
        (_near_variant(body, names), var) for body, var in motif_bodies
    ]
    manifest = Manifest(params, seed)
    kinds = _Deck(rng, range(7))
    lengths = _Deck(rng, range(2, 8))
    motif_hosts: list[list[Site]] = [[] for _ in range(params.motifs)]
    alone_hosts: list[Site | None] = [None] * params.motifs
    near_sites: list[Site | None] = [None] * params.motifs
    unique_sites: list[Site | None] = [None] * params.unique_fragments
    sources: dict[str, str] = {}

    for f in range(params.files):
        cls = f"C{f:03d}"
        path = f"pkg{f % 4}/{cls}.java"
        method_names = [f"m{f}_{m}" for m in range(params.methods_per_file)]
        lines = [f"public class {cls} {{"]
        lines += [f"    private int {name};" for name in FIELDS]
        for m, mname in enumerate(method_names):
            slot_role = role.get((f, m))
            helpers = [n for n in method_names if n != mname][:3]
            local = f"v{m}"
            statements: list[list[str]] = [[f"int {local} = a + {names.literal()};"]]
            statements += [
                _filler_statement(rng, kinds.draw(), names, local, helpers)
                for _ in range(lengths.draw())
            ]
            planted: list[list[str]] | None = None
            result = local
            if slot_role is not None and slot_role[0] in ("motif", "near"):
                k = slot_role[1]
                body, var = motif_bodies[k] if slot_role[0] == "motif" else variant_bodies[k]
                planted = body
                if slot_role[0] == "near" or slot_role[2]:
                    statements = []
                    result = var
                at = rng.randrange(len(statements) + 1)
                statements[at:at] = planted
                plant_start = at
            elif slot_role is not None and slot_role[0] == "unique":
                # Two filler statements in a longer method: found only at home.
                statements += [
                    _filler_statement(rng, kinds.draw(), names, local, helpers) for _ in range(2)
                ]
                plant_start = len(statements) - 2
                planted = statements[plant_start:]
            statements.append([f"return {result};"])

            lines.append("")
            lines.append(f"    public int {mname}({PARAMS}) {{")
            body_start = len(lines) + 1
            line_of_statement = []
            for stmt in statements:
                line_of_statement.append(len(lines) + 1)
                lines += ["        " + text for text in stmt]
            body_end = len(lines)
            lines.append("    }")
            method_id = f"{path}:{body_start}:{mname}"
            body_text = "\n".join(lines[body_start - 1 : body_end])
            manifest.methods.append(
                MethodInfo(method_id, path, mname, body_start, body_end - body_start + 1, body_text)
            )
            if planted is not None:
                site = Site(
                    path,
                    line_of_statement[plant_start],
                    method_id,
                    "\n".join(text for stmt in planted for text in stmt),
                )
                if slot_role[0] == "motif":
                    motif_hosts[slot_role[1]].append(site)
                    if slot_role[2]:
                        alone_hosts[slot_role[1]] = site
                elif slot_role[0] == "near":
                    near_sites[slot_role[1]] = site
                else:
                    unique_sites[slot_role[1]] = site
        lines.append("}")
        sources[path] = "\n".join(lines) + "\n"

    for k, (body, var) in enumerate(motif_bodies):
        hosts = sorted(motif_hosts[k], key=lambda s: s.method_id)
        manifest.motifs.append(
            Motif(
                f"motif{k}",
                "\n".join(t for stmt in body for t in stmt),
                hosts,
                alone_hosts[k],
                near_sites[k],
                var,
            )
        )
    manifest.unique = [s for s in unique_sites if s is not None]
    return sources, manifest


def write_project(root: Path, sources: dict[str, str], manifest: Manifest) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for rel, text in sources.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    (root / MANIFEST_NAME).write_text(manifest.to_json(), encoding="utf-8")


def added_method(index: int) -> list[str]:
    """A method appended to a class by the edit-save cycle."""
    return [
        "",
        f"    public int added{index}({PARAMS}) {{",
        f"        int w = a * {index + 7} + b;",
        "        if (w > 100) {",
        "            w = w - a;",
        "        }",
        "        f1 += w;",
        "        return w;",
        "    }",
    ]


def edit_cycle(text: str, index: int) -> list[tuple[str, str, int]]:
    """The four edits that take a file round and back to `text`.

    Returns (kind, new_content, method_delta) per step: add a method,
    change a statement, remove the added method, change it back. The
    changed statement is the first filler declaration `int vN = ...;`,
    rewritten with more tokens on the same line, so no line moves.
    """
    lines = text.rstrip("\n").split("\n")
    close = len(lines) - 1  # the class's closing brace
    with_method = lines[:close] + added_method(index) + lines[close:]
    target = next(
        i for i, line in enumerate(lines)
        if line.startswith("        int v") and line.endswith(";")
    )
    original = lines[target]
    changed_line = original[:-1] + " + b * b - a;"

    def render(ls: list[str]) -> str:
        return "\n".join(ls) + "\n"

    changed = list(with_method)
    changed[target] = changed_line
    removed = list(lines)
    removed[target] = changed_line
    return [
        ("add-method", render(with_method), +1),
        ("change-statement", render(changed), +1),
        ("remove-method", render(removed), 0),
        ("change-statement", render(lines), 0),
    ]
