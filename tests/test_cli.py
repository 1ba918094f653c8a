from __future__ import annotations

import json
import shutil
import sys

import pytest

from anticopypaster.cli import run_command
from anticopypaster.source_model import validate_fragment
from anticopypaster.workspace import open_project

from helpers import FIXTURES_DIR, GOLDEN_DIR, REPO_ROOT, SCENARIOS_DIR, count_lexing, write_project

DUP_PROJECT = {
    "Host.java": """\
public class Host {
    private int total;

    public int first(int[] xs) {
        int n = 0;
        for (int x : xs) {
            if (x > 0) {
                n += x;
            }
        }
        total = n;
        return n;
    }

    public int second(int[] xs) {
        int n = 0;
        for (int x : xs) {
            if (x > 0) {
                n += x;
            }
        }
        return n + 1;
    }
}
"""
}

FRAGMENT = "int n = 0;\nfor (int x : xs) {\n    if (x > 0) {\n        n += x;\n    }\n}"


@pytest.fixture
def dup_root(tmp_path):
    root = write_project(tmp_path / "proj", DUP_PROJECT)
    (tmp_path / "frag.java").write_text(FRAGMENT, encoding="utf-8")
    return root


def frag_path(tmp_path) -> str:
    return str(tmp_path / "frag.java")


def test_check_triggers_on_the_duplicate_fixture(dup_root, tmp_path, capsys):
    code = run_command(
        ["check", str(dup_root), "--fragment", frag_path(tmp_path), "--at", "Host.java:5", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["triggered"] is True
    assert payload["gate"]["duplicateMethodCount"] == 2


# The two overloads' bodies start on line 3, so only the brace's column tells them apart.
ONE_LINE_OVERLOADS = """\
class O {
    int x;
    void a() { x = 1; x += 2; } void a(int y) { x = 1; x += 2; }
    void b() {
        x = 1; x += 2;
    }
}
"""


def test_check_counts_one_line_overloads_apart(tmp_path, capsys):
    root = write_project(tmp_path / "proj", {"O.java": ONE_LINE_OVERLOADS})
    (tmp_path / "frag.java").write_text("x = 1; x += 2;", encoding="utf-8")
    code = run_command(
        ["check", str(root), "--fragment", frag_path(tmp_path), "--at", "O.java:5", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["gate"]["duplicateMethodCount"] == 3
    assert [m["method"] for m in payload["matches"]] == ["O.java:3:a", "O.java:3:a:47", "O.java:5:b"]


def test_check_exit_one_when_not_triggered(dup_root, tmp_path, capsys):
    config = tmp_path / "strict.json"
    config.write_text(
        '{"submetrics": {"size.lines.segment": {"required": true}},'
        ' "sensitivity": {"size": 100}}',
        encoding="utf-8",
    )
    code = run_command(
        [
            "check", str(dup_root), "--fragment", frag_path(tmp_path),
            "--at", "Host.java:5", "--config", str(config), "--json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["triggered"] is False
    assert payload["reason"] == "NotTriggered"


def test_check_analysis_errors_exit_three(dup_root, tmp_path, capsys):
    bad = tmp_path / "bad.java"
    bad.write_text("if (x {", encoding="utf-8")
    assert run_command(
        ["check", str(dup_root), "--fragment", str(bad), "--at", "Host.java:5"]
    ) == 3
    capsys.readouterr()
    # paste site outside any method
    assert run_command(
        ["check", str(dup_root), "--fragment", frag_path(tmp_path), "--at", "Host.java:2"]
    ) == 3
    capsys.readouterr()
    # fragment not present at the site
    other = tmp_path / "other.java"
    other.write_text("int q = 5;", encoding="utf-8")
    assert run_command(
        ["check", str(dup_root), "--fragment", str(other), "--at", "Host.java:5"]
    ) == 3


def test_check_on_a_fragment_nested_too_deeply_exits_three(dup_root, tmp_path, capsys):
    depth = 3 * sys.getrecursionlimit()
    deep = tmp_path / "deep.java"
    deep.write_text("{" * depth + "x++;" + "}" * depth, encoding="utf-8")
    args = ["check", str(dup_root), "--fragment", str(deep), "--at", "Host.java:5", "--json"]
    assert run_command(args) == 3
    assert json.loads(capsys.readouterr().out) == {"triggered": False, "reason": "InvalidFragment"}


def test_missing_root_is_an_analysis_error(tmp_path, capsys):
    code = run_command(["analyze", str(tmp_path / "ghost")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert run_command(["frobnicate"]) == 2
    capsys.readouterr()
    assert run_command(["check", "--nope"]) == 2
    capsys.readouterr()
    assert run_command(["check", "root", "--fragment", "f", "--at", "no-line"]) == 2


def test_exit_codes_stay_in_the_documented_set(dup_root, tmp_path, capsys):
    codes = set()
    codes.add(run_command(["analyze", str(dup_root)]))
    codes.add(run_command(["check", str(dup_root), "--fragment", frag_path(tmp_path), "--at", "Host.java:5"]))
    codes.add(run_command(["check", str(dup_root), "--fragment", frag_path(tmp_path), "--at", "Host.java:2"]))
    codes.add(run_command(["--bogus"]))
    capsys.readouterr()
    assert codes <= {0, 1, 2, 3}


def test_json_outputs_are_byte_stable(dup_root, tmp_path, capsys):
    argv = ["analyze", str(dup_root), "--json"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second
    argv = [
        "check", str(dup_root), "--fragment", frag_path(tmp_path),
        "--at", "Host.java:5", "--json",
    ]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    assert capsys.readouterr().out == first


def test_analyze_reports_method_count(dup_root, capsys):
    assert run_command(["analyze", str(dup_root), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["methods"] == 2
    assert "size.lines.segment" in payload["submetrics"]


def test_thresholds_respects_sensitivity_overrides(dup_root, capsys):
    assert run_command(["thresholds", str(dup_root), "--json"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert run_command(
        ["thresholds", str(dup_root), "--sensitivity", "size=100", "--json"]
    ) == 0
    raised = json.loads(capsys.readouterr().out)
    assert raised["thresholds"]["size.lines.segment"] >= base["thresholds"]["size.lines.segment"]
    assert raised["sensitivity"]["size"] == 100
    assert base["sensitivity"]["size"] == 50


def test_thresholds_rejects_unknown_category(dup_root, capsys):
    assert run_command(["thresholds", str(dup_root), "--sensitivity", "bulk=10"]) == 3


def test_simulate_prints_the_recommendation_log(capsys):
    scenario = str(SCENARIOS_DIR / "due.json")
    assert run_command(["simulate", scenario]) == 0
    out = capsys.readouterr().out
    assert "t=10 recommendation" in out


def test_simulate_json_matches_golden(capsys):
    scenario = str(SCENARIOS_DIR / "edited.json")
    assert run_command(["simulate", scenario, "--json"]) == 0
    out = capsys.readouterr().out
    golden = (GOLDEN_DIR / "edited.log.json").read_text(encoding="utf-8")
    assert out == golden


def test_simulate_rejects_malformed_scenarios(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run_command(["simulate", str(bad)]) == 3


def _typed_scenario() -> dict:
    return {
        "projects": [{"root": "p"}],
        "events": [
            {"type": "paste", "t": 0, "root": "p", "file": "A.java", "line": 3, "fragment": "x = 1;"},
            {"type": "edit", "t": 1, "root": "p", "file": "A.java", "content": "class A {}\n"},
        ],
        "until": 5,
    }


@pytest.mark.parametrize(
    "field, value",
    [
        (None, None),  # the well-typed scenario itself replays
        ("events.0.fragment", 5),
        ("events.1.content", 7),
        ("events.0.file", ["x"]),
        ("events.0.file", 5),
        ("events.0.line", True),
        ("events.0.t", float("nan")),
        ("until", float("inf")),
        ("events.0", 5),
        ("events", 5),
        ("projects.0.config", 5),
        ("projects.0.root", 5),
        ("projects", 5),
    ],
)
def test_simulate_rejects_ill_typed_scenarios(tmp_path, capsys, field, value):
    write_project(tmp_path / "p", {"A.java": "class A {\n    void f() {\n        x = 1;\n    }\n}\n"})
    scenario = _typed_scenario()
    if field is not None:
        *path, last = field.split(".")
        holder = scenario
        for key in path:
            holder = holder[int(key)] if isinstance(holder, list) else holder[key]
        holder[int(last) if isinstance(holder, list) else last] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert run_command(["simulate", str(path)]) == (0 if field is None else 3)


def test_extract_prints_the_golden_diff(capsys):
    root = str(FIXTURES_DIR / "extract_demo" / "project")
    fragment = str(FIXTURES_DIR / "extract_demo" / "fragment.java")
    code = run_command(
        ["extract", root, "--fragment", fragment, "--at", "Pipeline.java:5", "--name", "bundle"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / "extract_two_sites.diff").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [["check"], ["extract", "--name", "bundle"]])
def test_check_and_extract_lex_each_project_file_once_plus_the_fragment(command, monkeypatch, capsys):
    root = FIXTURES_DIR / "extract_demo" / "project"
    fragment = FIXTURES_DIR / "extract_demo" / "fragment.java"
    sources = list(open_project(root).files.values())
    fragment_text = validate_fragment(fragment.read_text(encoding="utf-8")).text
    lexed = count_lexing(monkeypatch)
    argv = [command[0], str(root), "--fragment", str(fragment), "--at", "Pipeline.java:5", *command[1:]]
    assert run_command(argv) in (0, 1)
    capsys.readouterr()
    assert sorted(lexed) == sorted(sources + [fragment_text])


def test_extract_write_persists_files(tmp_path, capsys):
    src = FIXTURES_DIR / "extract_demo" / "project"
    root = tmp_path / "writable"
    shutil.copytree(src, root)
    fragment = str(FIXTURES_DIR / "extract_demo" / "fragment.java")
    code = run_command(
        ["extract", str(root), "--fragment", fragment, "--at", "Pipeline.java:5",
         "--name", "bundle", "--write"]
    )
    assert code == 0
    text = (root / "Pipeline.java").read_text(encoding="utf-8")
    assert "private int bundle(int[] batch)" in text
    assert "wrote" in capsys.readouterr().out


def test_extract_name_collision_is_an_analysis_error(capsys):
    root = str(FIXTURES_DIR / "extract_demo" / "project")
    fragment = str(FIXTURES_DIR / "extract_demo" / "fragment.java")
    assert run_command(
        ["extract", root, "--fragment", fragment, "--at", "Pipeline.java:5", "--name", "touch"]
    ) == 3


def test_non_utf8_sources_are_skipped_or_rejected(dup_root, tmp_path, capsys):
    (dup_root / "Latin.java").write_bytes("class Latin { String s = \"café\"; }".encode("latin-1"))
    assert run_command(["analyze", str(dup_root)]) == 0
    out = capsys.readouterr().out
    assert "warning: Latin.java:" in out
    assert "methods indexed: 2" in out
    latin_fragment = tmp_path / "latin.java"
    latin_fragment.write_bytes("String s = \"café\";".encode("latin-1"))
    assert run_command(
        ["check", str(dup_root), "--fragment", str(latin_fragment), "--at", "Host.java:5"]
    ) == 3
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_config_exits_3_naming_the_file(dup_root, tmp_path, capsys):
    config = dup_root / ".anticopypaster.json"
    config.write_bytes('{"ignore": ["café"]}'.encode("latin-1"))
    assert run_command(["analyze", str(dup_root)]) == 3
    assert f"cannot read config {config}" in capsys.readouterr().err
    config.unlink()
    missing = tmp_path / "absent.json"
    assert run_command(["analyze", str(dup_root), "--config", str(missing)]) == 3
    assert f"cannot read config {missing}" in capsys.readouterr().err
