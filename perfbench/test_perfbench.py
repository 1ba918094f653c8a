"""The benchmark's own tests: generator, oracles and checks on small projects.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import javagen
import oracle
import workloads
from anticopypaster import find_duplicates, open_project, tokenize, validate_fragment

HERE = Path(__file__).resolve().parent
SMALL = javagen.GenParams(files=5, methods_per_file=8, dup_rate=0.1, motif_width=4, motifs=2,
                          unique_fragments=2)


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    sources, manifest = javagen.generate(SMALL, 11)
    root = tmp_path_factory.mktemp("gen") / "project"
    javagen.write_project(root, sources, manifest)
    return root, sources, manifest


def test_generator_is_seeded():
    assert javagen.generate(SMALL, 3)[0] == javagen.generate(SMALL, 3)[0]
    assert javagen.generate(SMALL, 3)[0] != javagen.generate(SMALL, 4)[0]


def test_generator_rejects_too_many_motifs():
    with pytest.raises(ValueError):
        javagen.generate(dataclasses.replace(SMALL, motifs=20), 1)


def test_manifest_matches_the_engine_index(project):
    root, _, manifest = project
    session = open_project(root)
    assert not session.warnings
    by_id = {m.id: m for m in session.methods}
    assert sorted(by_id) == sorted(m.id for m in manifest.methods)
    for info in manifest.methods:
        assert by_id[info.id].line_count == info.body_lines


def test_oracle_tokens_match_the_engine_lexer(project):
    _, sources, _ = project
    for text in sources.values():
        assert [(t.text, t.line) for t in oracle.tokens(text)] == [
            (t.text, t.line) for t in tokenize(text)
        ]


def test_brute_force_agrees_with_manifest_and_engine(project):
    root, _, manifest = project
    session = open_project(root)
    table = oracle.MethodTable(manifest.methods)
    for motif in manifest.motifs:
        found = table.duplicates(motif.text, workloads.NEAR_THRESHOLD)
        assert {m.method_id for m in found if m.kind == "exact"} == {h.method_id for h in motif.hosts}
        assert motif.near_variant.method_id in {m.method_id for m in found if m.kind == "near"}
        engine = find_duplicates(validate_fragment(motif.text), session.methods, workloads.NEAR_THRESHOLD)
        assert [(m.method_id, m.similarity, m.kind, m.match_span) for m in engine] == [
            (m.method_id, m.similarity, m.kind, m.span) for m in found
        ]
    for site in manifest.unique:
        found = table.duplicates(site.text, workloads.NEAR_THRESHOLD)
        assert [m.method_id for m in found] == [site.method_id]


def test_nearest_rank_is_exact():
    sample = [5, 1, 4, 2, 3]
    assert [oracle.nearest_rank(sample, s) for s in (1, 20, 21, 50, 100)] == [1, 1, 2, 3, 5]
    # 0.07 · 100 is 7.000000000000001 in floating point; the rank must still be 7.
    assert oracle.nearest_rank(list(range(100)), 7) == 6


def test_diff_applier_round_trips_and_rejects_stale_context():
    before = {"A.java": "a\nb\nc\nd\ne\nf\ng\nh\ni\nj", "B.java": "x\ny"}
    after = {"A.java": "a\nb\nC\nd\ne\nf\ng\nh\ni\nj\nk", "B.java": "x\ny"}
    diff = "\n".join(
        difflib.unified_diff(before["A.java"].split("\n"), after["A.java"].split("\n"),
                             fromfile="a/A.java", tofile="b/A.java", lineterm="")
    ) + "\n"
    assert oracle.apply_unified_diff(diff, before) == after
    with pytest.raises(oracle.DiffError):
        oracle.apply_unified_diff(diff, {"A.java": before["A.java"].replace("c", "Z"), "B.java": "x\ny"})


def test_edit_cycle_returns_to_the_start(project):
    _, sources, manifest = project
    path = sorted(sources)[0]
    cycle = javagen.edit_cycle(sources[path], 0)
    assert [kind for kind, _, _ in cycle] == ["add-method", "change-statement", "remove-method",
                                              "change-statement"]
    assert cycle[-1][1] == sources[path]
    session = open_project(project[0])
    for _, text, delta in cycle:
        session.apply_edit(path, text)
        assert sum(1 for m in session.methods if m.file_path == path) == (
            manifest.method_counts()[path] + delta
        )


def test_paste_check_catches_a_dropped_match(tmp_path):
    plan = workloads.paste_due(5, tmp_path, "smoke")
    plan.state = plan.setup()
    outcomes = plan.ops[0](plan.state)
    assert plan.check_op(0, outcomes) == []
    rec = outcomes[0]
    tampered = dataclasses.replace(rec, matches=rec.matches[1:])
    plan_again = workloads.paste_due(5, tmp_path / "again", "smoke")
    plan_again.state = plan_again.setup()
    assert plan_again.check_op(0, [tampered])


def test_extract_check_catches_a_wrong_diff(tmp_path):
    plan = workloads.extract_cli(5, tmp_path, "smoke")
    code, diff, err = plan.ops[0](None)
    assert code == 0 and plan.check_op(0, (code, diff, err)) == []
    broken = diff.replace("+        int mv0 = extracted(a, b);\n", "+        int mv0 = 0;\n", 1)
    assert broken != diff
    fresh = workloads.extract_cli(5, tmp_path / "again", "smoke")
    assert fresh.check_op(0, (code, broken, err))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0.2", "--trace", trace, "--size", "smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    if trace == "1":
        assert result["metrics"]["trace.map_mismatches"]["value"] == 0
