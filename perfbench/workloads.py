"""The three workloads: what each generates, sets up, times and checks.

Each workload is built from the seed into a `Plan`: a set-up step (timed
for `setup_s`), one round of operations (the run repeats whole rounds),
a per-operation check that runs outside the timed region, and a final
check. Checks compare the engine's outputs with the generator's manifest
and with `oracle`, never with stored copies of earlier output.
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import javagen
import oracle
from anticopypaster import cli, clones, decision, extraction, source_model, workspace
from anticopypaster.metrics import Submetric

NEAR_THRESHOLD = 0.8
EXTRACTED_NAME = "extracted"
# paste-due's project config. Sensitivities whose nearest rank is not a
# whole number for the project's method count tell ceil from floor.
PASTE_CONFIG = {
    "minDuplicateMethods": 2,
    "nearMatchThreshold": NEAR_THRESHOLD,
    "sensitivity": {"keyword": 37, "coupling": 50, "complexity": 63, "size": 81},
}

SIZES = {
    "full": {
        "paste-due": javagen.GenParams(files=70, methods_per_file=29, dup_rate=0.01, motif_width=4,
                                       motifs=6, unique_fragments=6),
        "edit-save": javagen.GenParams(files=45, methods_per_file=30, dup_rate=0.01, motif_width=4,
                                       motifs=6),
        "extract-cli": javagen.GenParams(files=8, methods_per_file=16, dup_rate=0.08, motif_width=4),
    },
    "smoke": {
        "paste-due": javagen.GenParams(files=6, methods_per_file=8, dup_rate=0.1, motif_width=4,
                                       motifs=2, unique_fragments=2),
        "edit-save": javagen.GenParams(files=6, methods_per_file=8, dup_rate=0.1, motif_width=4,
                                       motifs=2),
        "extract-cli": javagen.GenParams(files=4, methods_per_file=6, dup_rate=0.2, motif_width=4),
    },
}
EDIT_FILES_PER_ROUND = 5
EXTRACT_POOL = 4


@dataclass
class Plan:
    setup: Callable[[], Any]
    ops: list[Callable[[Any], Any]]
    check_op: Callable[[int, Any], list[str]]  # (index in round, output) -> problems
    check_end: Callable[[Any], list[str]]
    state: Any = None


def _fail(problems: list[str], condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


# --------------------------------------------------------------------------
# paste-due: one enqueue_paste plus the tick that evaluates it when due.


def paste_due(seed: int, workdir: Path, size: str) -> Plan:
    params = SIZES[size]["paste-due"]
    sources, manifest = javagen.generate(params, seed)
    root = workdir / "project"
    javagen.write_project(root, sources, manifest)
    (root / ".anticopypaster.json").write_text(json.dumps(PASTE_CONFIG), encoding="utf-8")

    # The round: every motif pasted at its lone host and at one other
    # host, its near variant at home, and each unique fragment.
    pastes: list[tuple[str, javagen.Site, set[str]]] = []
    for motif in manifest.motifs:
        hosts = {h.method_id for h in motif.hosts}
        other = next(h for h in motif.hosts if h.method_id != motif.alone_host.method_id)
        pastes.append(("motif", motif.alone_host, hosts))
        pastes.append(("motif", other, hosts))
        pastes.append(("near", motif.near_variant, {motif.near_variant.method_id}))
    for site in manifest.unique:
        pastes.append(("unique", site, {site.method_id}))
    lines_of = {m.id: m.body_lines for m in manifest.methods}
    clock = {"now": 0}

    def setup():
        session = workspace.open_project(root)
        run_paste(session, pastes[0][1])
        return session

    def run_paste(session, site):
        now = clock["now"]
        event = decision.PasteEvent(str(root), site.file, site.line, site.text, now)
        dropped = decision.enqueue_paste(session, event)
        clock["now"] = now + session.settings.delay_seconds
        if dropped is not None:
            return [dropped]
        return decision.tick(session, clock["now"])

    ops = [lambda session, site=site: run_paste(session, site) for _, site, _ in pastes]
    table: list = []  # oracle.MethodTable, built on first use, outside timing
    first: dict[int, Any] = {}
    seen_kinds: set[str] = set()

    def check_op(index: int, outcomes) -> list[str]:
        problems: list[str] = []
        kind, site, exact_hosts = pastes[index]
        if len(outcomes) != 1:
            return [f"paste {index}: {len(outcomes)} outcomes at its due time"]
        outcome = outcomes[0]
        is_rec = isinstance(outcome, decision.Recommendation)
        if not is_rec and getattr(outcome, "reason", None) != decision.NOT_TRIGGERED:
            return [f"paste {index} ({kind}) dropped as {outcome.reason}"]
        key = (is_rec, outcome.report, outcome.matches if is_rec else None)
        if index in first:
            _fail(problems, first[index] == key, f"paste {index}: outcome differs from its first round")
            return problems
        first[index] = key
        seen_kinds.add("recommendation" if is_rec else "not-triggered")

        if not table:
            table.append(oracle.MethodTable(manifest.methods))
        expected = table[0].duplicates(site.text, NEAR_THRESHOLD)
        report = outcome.report
        _fail(problems, {m.method_id for m in expected if m.kind == "exact"} == exact_hosts,
              f"paste {index}: brute-force exact hosts differ from the manifest")
        _fail(problems, report.duplicate_method_count == len(expected),
              f"paste {index}: duplicate count {report.duplicate_method_count} != brute force {len(expected)}")
        if is_rec:
            got = [(m.method_id, m.similarity, m.kind, m.match_span) for m in outcome.matches]
            want = [(m.method_id, m.similarity, m.kind, m.span) for m in expected]
            _fail(problems, got == want, f"paste {index}: matches differ from brute force")
            _fail(problems, {m.method_id for m in outcome.matches if m.kind == "exact"} == exact_hosts,
                  f"paste {index}: exact hosts differ from the manifest")
        session = plan.state
        for submetric, entry in report.entries.items():
            sample = session.distribution.samples[submetric]
            want_threshold = oracle.nearest_rank(sample, PASTE_CONFIG["sensitivity"][submetric.category])
            _fail(problems, entry.threshold == want_threshold,
                  f"paste {index}: {submetric.value} threshold {entry.threshold} != {want_threshold}")
            _fail(problems, entry.passed == (entry.value >= entry.threshold),
                  f"paste {index}: {submetric.value} passed flag is wrong")
        entries = report.entries
        _fail(problems, entries[Submetric.SIZE_LINES_SEGMENT].value == len(site.text.split("\n")),
              f"paste {index}: segment line count differs from the manifest")
        _fail(problems, entries[Submetric.SIZE_LINES_METHOD].value == lines_of[site.method_id],
              f"paste {index}: method line count differs from the manifest")
        # The config sets no submetric flags: all are enabled and none is
        # required, so the gate is "any submetric passes".
        _fail(problems, set(entries) == set(Submetric), f"paste {index}: not every submetric was gated")
        gate = any(entry.passed for entry in entries.values())
        triggered = report.duplicate_method_count >= PASTE_CONFIG["minDuplicateMethods"] and gate
        _fail(problems, triggered == is_rec == report.triggered,
              f"paste {index}: triggered={is_rec} but the rule gives {triggered}")
        return problems

    def check_end(session) -> list[str]:
        problems: list[str] = []
        samples = session.distribution.samples
        for submetric, per_method in (
            (Submetric.SIZE_LINES_METHOD, lambda m: m.body_lines),
            (Submetric.SIZE_SYMBOLS_METHOD, lambda m: sum(not ch.isspace() for ch in m.body_text)),
            (Submetric.COMPLEXITY_METHOD_AREA, _indent_area),
        ):
            _fail(problems, list(samples[submetric]) == sorted(map(per_method, manifest.methods)),
                  f"{submetric.value} sample differs from the manifest's methods")
        _fail(problems, seen_kinds == {"recommendation", "not-triggered"},
              f"a round should give recommendations and NotTriggered drops, saw {sorted(seen_kinds)}")
        return problems

    plan = Plan(setup, ops, check_op, check_end)
    return plan


def _indent_area(method: javagen.MethodInfo) -> int:
    """Sum of per-line nesting depths, read from the generator's 4-space indentation."""
    return sum((len(line) - len(line.lstrip(" "))) // 4 - 1 for line in method.body_text.split("\n"))


# --------------------------------------------------------------------------
# edit-save: one ProjectSession.apply_edit of one file.


def edit_save(seed: int, workdir: Path, size: str) -> Plan:
    params = SIZES[size]["edit-save"]
    sources, manifest = javagen.generate(params, seed)
    root = workdir / "project"
    javagen.write_project(root, sources, manifest)
    counts = manifest.method_counts()
    edited = sorted(sources)[:: max(1, len(sources) // EDIT_FILES_PER_ROUND)][:EDIT_FILES_PER_ROUND]
    steps = [
        (path, kind, text, counts[path] + delta)
        for i, path in enumerate(edited)
        for kind, text, delta in javagen.edit_cycle(sources[path], i)
    ]

    def setup():
        session = workspace.open_project(root)
        session.apply_edit(edited[0], sources[edited[0]])
        return session

    ops = [lambda session, path=path, text=text: session.apply_edit(path, text)
           for path, _, text, _ in steps]

    def check_op(index: int, _result) -> list[str]:
        path, kind, _, want = steps[index]
        got = sum(1 for m in plan.state.methods if m.file_path == path)
        return [] if got == want else [f"{kind} on {path}: {got} methods, manifest says {want}"]

    def check_end(session) -> list[str]:
        problems: list[str] = []
        _fail(problems, session.files == sources, "after whole edit cycles the sources differ")
        fresh_root = workdir / "fresh"
        for rel, text in session.files.items():
            target = fresh_root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        fresh = workspace.open_project(fresh_root)
        ids = [m.id for m in session.methods]
        _fail(problems, ids == [m.id for m in fresh.methods],
              "method ids after incremental edits differ from a fresh open")
        _fail(problems, sorted(ids) == sorted(m.id for m in manifest.methods),
              "method ids differ from the manifest")
        _fail(problems, session.distribution == fresh.distribution,
              "distribution after incremental edits differs from a fresh open")
        shutil.rmtree(fresh_root)
        return problems

    plan = Plan(setup, ops, check_op, check_end)
    return plan


# --------------------------------------------------------------------------
# extract-cli: one in-process `anticopypaster extract` on a fresh open.


def extract_cli(seed: int, workdir: Path, size: str) -> Plan:
    params = SIZES[size]["extract-cli"]
    pool = []
    for k in range(EXTRACT_POOL):
        sources, manifest = javagen.generate(params, seed * EXTRACT_POOL + k)
        home = workdir / f"pool{k}"
        javagen.write_project(home / "project", sources, manifest)
        motif = manifest.motifs[0]
        fragment = home / "fragment.txt"
        fragment.write_text(motif.text + "\n", encoding="utf-8")
        site = motif.alone_host
        argv = ["extract", str(home / "project"), "--fragment", str(fragment),
                "--at", f"{site.file}:{site.line}", "--name", EXTRACTED_NAME]
        pool.append((argv, sources, manifest))

    def run_extract(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run_command(argv)
        return code, out.getvalue(), err.getvalue()

    def setup():
        for argv, _, _ in pool:
            run_extract(argv)
        return None

    ops = [lambda _state, argv=argv: run_extract(argv) for argv, _, _ in pool]
    first: dict[int, Any] = {}

    def check_op(index: int, result) -> list[str]:
        code, diff, err = result
        if code != 0:
            return [f"extract {index}: exit code {code}: {err.strip()}"]
        if index in first:
            return [] if first[index] == result else [f"extract {index}: output differs from its first round"]
        first[index] = result
        return _check_extraction(index, diff, *pool[index])

    def check_end(_state) -> list[str]:
        return []

    return Plan(setup, ops, check_op, check_end)


def _check_extraction(index: int, diff: str, argv: list[str], sources: dict[str, str],
                      manifest: javagen.Manifest) -> list[str]:
    problems: list[str] = []
    motif = manifest.motifs[0]
    try:
        after = oracle.apply_unified_diff(diff, sources)
    except oracle.DiffError as exc:
        return [f"extract {index}: diff does not apply: {exc}"]
    call = f"{EXTRACTED_NAME}("
    call_lines = [
        line for text in after.values() for line in text.split("\n")
        if call in line and not line.lstrip().startswith("private ")
    ]
    _fail(problems, len(call_lines) == len(motif.hosts),
          f"extract {index}: {len(call_lines)} call lines for {len(motif.hosts)} planted hosts")
    needle = tuple(t.text for t in oracle.tokens(motif.text))
    found = []
    for text in after.values():
        texts = tuple(t.text for t in oracle.tokens(text))
        found += [(texts, at) for at in oracle.count_occurrences(texts, needle)]
    _fail(problems, len(found) == 1, f"extract {index}: motif occurs {len(found)} times after rewriting")
    if len(found) == 1:
        texts, at = found[0]
        header = texts[max(0, at - 12) : at]
        _fail(problems, header[-1:] == ("{",) and EXTRACTED_NAME in header and "private" in header,
              f"extract {index}: the remaining motif is not the body of the new method")

    # The engine's own inlining check, on the sources the printed diff produces.
    root = argv[1]
    session = workspace.open_project(root)
    site = motif.alone_host
    fragment = source_model.validate_fragment(motif.text + "\n")
    enclosing = session.method_at(site.file, site.line)
    matches = clones.find_duplicates(fragment, session.methods, session.settings.near_match_threshold)
    summary = extraction.analyze_extractability(fragment, enclosing, enclosing.owner)
    plan = extraction.plan_extraction(summary, EXTRACTED_NAME, fragment, enclosing, enclosing.owner,
                                      matches, session.methods_by_id)
    result = extraction.apply_extraction(plan, session.files)
    verdict = extraction.verify_by_inlining(plan, session.files, after, result)
    _fail(problems, verdict.all_equivalent and len(verdict.sites) == len(motif.hosts),
          f"extract {index}: verify_by_inlining finds {len(verdict.mismatches)} mismatching sites")
    return problems


WORKLOADS = {"paste-due": paste_due, "edit-save": edit_save, "extract-cli": extract_cli}

# Where each layer's span must fire (calls > 0) or stay silent (calls == 0)
# during timed operations; the README's layer map, as data.
SPAN_MAP = {
    "paste-due": {
        "fires": ("lexer.tokenize", "source_model.validate_fragment", "clones.find_duplicates",
                  "metrics.compute_vector", "metrics.thresholds_for", "decision.enqueue_paste",
                  "decision.evaluate_paste", "decision.evaluate_gate"),
        "silent": ("metrics.build_distributions", "source_model.index_file", "workspace.open_project",
                   "workspace.refresh_index", "extraction.apply_extraction", "cli.run_command"),
    },
    "edit-save": {
        "fires": ("lexer.tokenize", "source_model.index_file", "metrics.build_distributions",
                  "workspace.refresh_index"),
        "silent": ("clones.find_duplicates", "decision.evaluate_paste", "decision.enqueue_paste",
                   "workspace.open_project", "extraction.apply_extraction", "cli.run_command"),
    },
    "extract-cli": {
        "fires": ("lexer.tokenize", "source_model.index_file", "source_model.validate_fragment",
                  "clones.find_duplicates", "metrics.build_distributions", "workspace.open_project",
                  "extraction.analyze_extractability", "extraction.plan_extraction",
                  "extraction.apply_extraction", "cli.run_command"),
        "silent": ("decision.enqueue_paste", "decision.evaluate_paste", "workspace.refresh_index"),
    },
}
