from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from anticopypaster.cli import run_command
from anticopypaster.settings import Settings
from anticopypaster.source_model import validate_fragment
from anticopypaster.statements import parse_statements
from anticopypaster.workspace import open_project

from helpers import (
    CORPUS_DIR,
    FIXTURES_DIR,
    GOLDEN_DIR,
    REPO_ROOT,
    SCENARIOS_DIR,
    count_calls,
    count_lexing,
    javac_errors,
    requires_javac,
    write_project,
)

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


def test_check_says_why_a_fragment_is_invalid(dup_root, tmp_path, capsys):
    bad = tmp_path / "bad.java"
    bad.write_text("if (x {", encoding="utf-8")
    args = ["check", str(dup_root), "--fragment", str(bad), "--at", "Host.java:5", "--json"]
    assert run_command(args) == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == {"triggered": False, "reason": "InvalidFragment"}
    assert err == "error: InvalidFragment at Host.java:5: unclosed '(' (line 1)\n"
    # The fragment is validated before the site is looked up, so a file that is gone reports it too.
    assert run_command(["check", str(dup_root), "--fragment", str(bad), "--at", "Gone.java:5"]) == 3
    assert capsys.readouterr().err == "error: InvalidFragment at Gone.java:5: unclosed '(' (line 1)\n"


@pytest.mark.parametrize(
    "text, message",
    [("if (x {", "unclosed '(' (line 1)"), ('x = "open;', "unterminated string literal (line 1)")],
)
def test_extract_of_an_invalid_fragment_exits_three_and_writes_nothing(text, message, tmp_path, capsys):
    root = tmp_path / "writable"
    shutil.copytree(FIXTURES_DIR / "extract_demo" / "project", root)
    before = {p: p.read_bytes() for p in root.rglob("*")}
    bad = tmp_path / "bad.java"
    bad.write_text(text, encoding="utf-8")
    argv = ["extract", str(root), "--fragment", str(bad), "--at", "Pipeline.java:5", "--name", "bundle"]
    for options in ([], ["--write"]):
        assert run_command(argv + options) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: InvalidFragment at Pipeline.java:5: {message}\n"
        assert {p: p.read_bytes() for p in root.rglob("*")} == before


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


def _run_with_closed_stdout(argv: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """`anticopypaster ... | true`: the pipe has no reader before the first write.

    Block-buffered, a short output breaks the pipe only at the final flush;
    unbuffered, it breaks at the first write, in the middle of the command.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run(
            [sys.executable, "-m", "anticopypaster.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_closes_stdout_early_leaves_exit_zero_and_no_traceback(unbuffered):
    child = _run_with_closed_stdout(["analyze", str(CORPUS_DIR / "case01" / "project")], unbuffered)
    assert (child.returncode, child.stderr) == (0, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_keeps_the_exit_code_of_a_not_triggered_check(dup_root, tmp_path, unbuffered):
    config = tmp_path / "strict.json"
    config.write_text(
        '{"submetrics": {"size.lines.segment": {"required": true}},'
        ' "sensitivity": {"size": 100}}',
        encoding="utf-8",
    )
    child = _run_with_closed_stdout(
        ["check", str(dup_root), "--fragment", frag_path(tmp_path), "--at", "Host.java:5", "--config", str(config)],
        unbuffered,
    )
    assert (child.returncode, child.stderr) == (1, b"")


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


def test_analyze_counts_files_read_and_warns_for_those_it_skips(tmp_path, capsys):
    root = write_project(
        tmp_path / "proj",
        {
            "A.java": "class A {\n    int f() {\n        return 1;\n    }\n}\n",
            "B.java": "class B { void g() { ",
            "C.java": 'class C { String s = "oops; }',
        },
    )
    assert run_command(["analyze", str(root)]) == 0
    out = capsys.readouterr().out
    assert "files read: 3" in out
    assert "methods indexed: 1" in out
    assert "warning: B.java: unbalanced braces at file scope" in out
    assert "warning: C.java: unterminated string literal" in out
    assert run_command(["analyze", str(root), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["files"], payload["methods"], len(payload["warnings"])) == (3, 1, 2)


def test_a_custom_ignore_glob_leaves_analyze_no_files(tmp_path, capsys):
    root = write_project(
        tmp_path / "proj",
        {
            "legacy/A.java": "class A {\n    int f() {\n        return 1;\n    }\n}\n",
            "legacy/deep/B.java": "class B {\n    int g() {\n        return 2;\n    }\n}\n",
            ".anticopypaster.json": '{"ignore": ["legacy/**"]}',
        },
    )
    assert run_command(["analyze", str(root), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["files"], payload["methods"], payload["warnings"]) == (0, 0, [])


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
    assert capsys.readouterr().err == "error: unknown metric category 'bulk'\n"


@pytest.mark.parametrize("value", ["0", "101"])
def test_thresholds_checks_a_sensitivity_override_as_the_config_does(dup_root, capsys, value):
    assert run_command(["thresholds", str(dup_root), "--sensitivity", f"size={value}"]) == 3
    assert capsys.readouterr().err == f"error: sensitivity for 'size' must be 1..100, got {value}\n"


def test_commands_in_one_process_share_none_of_their_arguments(dup_root, capsys):
    """An earlier command's `--sensitivity` list and `--json` do not carry over to a later one."""
    defaults = Settings().sensitivity
    first = ["thresholds", str(dup_root), "--sensitivity", "size=100", "--sensitivity", "keyword=10", "--json"]
    assert run_command(first) == 0
    assert json.loads(capsys.readouterr().out)["sensitivity"] == {**defaults, "size": 100, "keyword": 10}
    assert run_command(["thresholds", str(dup_root), "--sensitivity", "coupling=90", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sensitivity"] == {**defaults, "coupling": 90}
    assert run_command(["thresholds", str(dup_root)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sample size: ")
    assert "sensitivity: " + ", ".join(f"{c}={defaults[c]}" for c in sorted(defaults)) in out.split("\n")


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


def test_extract_parses_the_fragment_once(monkeypatch, capsys):
    """Validation parses the fragment; the flow analysis reads the jumps it stored."""
    root = FIXTURES_DIR / "extract_demo" / "project"
    fragment = FIXTURES_DIR / "extract_demo" / "fragment.java"
    sources = list(open_project(root).files.values())
    validated = validate_fragment(fragment.read_text(encoding="utf-8"))
    lexed = count_lexing(monkeypatch)
    parsed = count_calls(monkeypatch, parse_statements)
    argv = ["extract", str(root), "--fragment", str(fragment), "--at", "Pipeline.java:5", "--name", "bundle"]
    assert run_command(argv) == 0
    capsys.readouterr()
    assert len(parsed) == 1
    assert parsed[0].texts == validated.tokens.texts
    assert sorted(lexed) == sorted(sources + [validated.text])


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


def test_extract_write_failure_is_an_analysis_error(tmp_path, monkeypatch, capsys):
    root = tmp_path / "writable"
    shutil.copytree(FIXTURES_DIR / "extract_demo" / "project", root)
    fragment = str(FIXTURES_DIR / "extract_demo" / "fragment.java")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    # File modes do not stop a superuser, so the failure is simulated.
    monkeypatch.setattr(Path, "write_text", refuse)
    code = run_command(
        ["extract", str(root), "--fragment", fragment, "--at", "Pipeline.java:5",
         "--name", "bundle", "--write"]
    )
    assert code == 3
    assert f"error: cannot write {root / 'Pipeline.java'}: " in capsys.readouterr().err


def test_extract_of_a_field_the_class_inherits_is_refused_by_name(tmp_path, capsys):
    """`total` is declared in `A`, not in `B`, so the flow analysis cannot type the output it would return."""
    root = write_project(tmp_path / "proj", {
        "A.java": "class A {\n    int total;\n}\n",
        "B.java": "class B extends A {\n    int f(int[] xs) {\n        total = 0;\n"
                  "        total += xs.length;\n        return total;\n    }\n}\n",
    })
    (tmp_path / "frag.java").write_text("total = 0; total += xs.length;", encoding="utf-8")
    argv = ["extract", str(root), "--fragment", frag_path(tmp_path), "--at", "B.java:3", "--name", "reset"]
    assert run_command(argv) == 3
    assert capsys.readouterr().err == "error: cannot resolve declared type of 'total'\n"


def test_extract_name_collision_is_an_analysis_error(capsys):
    root = str(FIXTURES_DIR / "extract_demo" / "project")
    fragment = str(FIXTURES_DIR / "extract_demo" / "fragment.java")
    assert run_command(
        ["extract", root, "--fragment", fragment, "--at", "Pipeline.java:5", "--name", "touch"]
    ) == 3


YIELD_METHOD = """\
    int {name}(int k, int[] xs) {{
        return switch (k) {{
            case 1 -> 0;
            case 2 -> {{
                int n = xs.length;
                yield n + 1;
            }}
            default -> -1;
        }};
    }}
"""


def test_extract_of_a_fragment_that_yields_is_illegal_flow(tmp_path, capsys):
    """A `yield` leaves the fragment for the switch expression around it."""
    source = "class A {\n" + YIELD_METHOD.format(name="f") + YIELD_METHOD.format(name="g") + "}\n"
    root = write_project(tmp_path / "p", {"A.java": source})
    fragment = tmp_path / "frag.java"
    fragment.write_text("int n = xs.length;\nyield n + 1;\n", encoding="utf-8")
    code = run_command(
        ["extract", str(root), "--fragment", str(fragment), "--at", "A.java:6", "--name", "bump"]
    )
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "yield targets a switch expression outside fragment" in err


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


# Both classes hold the fragment, so an extract at B.java:3 changes both files.
TWO_HOSTS = {
    "A.java": "class A {\n    void f(int[] xs) {\n        int n = 0; n += xs.length;\n    }\n}\n",
    "B.java": "class B {\n    void g(int[] xs) {\n        int n = 0; n += xs.length;\n    }\n}\n",
}


def test_extract_write_changes_no_file_when_one_cannot_be_written(tmp_path, monkeypatch, capsys):
    root = write_project(tmp_path / "p", TWO_HOSTS)
    fragment = tmp_path / "frag.java"
    fragment.write_text("int n = 0; n += xs.length;", encoding="utf-8")
    argv = ["extract", str(root), "--fragment", str(fragment), "--at", "B.java:3",
            "--name", "bundle", "--write"]
    write_text = Path.write_text
    calls = []

    def fail_second(self, *args, **kwargs):
        calls.append(self)
        if len(calls) == 2:
            raise PermissionError(13, "Permission denied")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_second)
    assert run_command(argv) == 3
    assert len(calls) == 2
    assert "error: cannot write " in capsys.readouterr().err
    assert {p.name: p.read_text(encoding="utf-8") for p in root.iterdir()} == TWO_HOSTS

    monkeypatch.setattr(Path, "write_text", write_text)
    assert run_command(argv) == 0
    assert sorted(p.name for p in root.iterdir()) == ["A.java", "B.java"]
    assert all("bundle(" in (root / name).read_text(encoding="utf-8") for name in TWO_HOSTS)


def _extract_shared_line(at: str, *options: str) -> list[str]:
    root = FIXTURES_DIR / "shared_line" / "project"
    fragment = FIXTURES_DIR / "shared_line" / "fragment.java"
    return ["extract", str(root), "--fragment", str(fragment), "--at", at, "--name", "reset", *options]


def test_extract_rewrites_sites_that_share_their_lines(capsys):
    assert run_command(_extract_shared_line("A.java:4")) == 0
    out = capsys.readouterr().out
    calls = [line for line in out.splitlines() if line.startswith("+") and "reset(total, xs);" in line]
    assert calls == [
        "+        int k = 1; total = reset(total, xs);",
        "+        total = reset(total, xs);",
        "+        int total = 3; total = reset(total, xs); return total * 2;",
    ]
    assert out == (GOLDEN_DIR / "extract_shared_line.diff").read_text(encoding="utf-8")


def test_extract_at_a_line_that_does_not_start_the_fragment_exits_three(tmp_path, capsys):
    """Line 11 lies inside `g`, which holds the fragment, but on a line of its own."""
    root = tmp_path / "p"
    shutil.copytree(FIXTURES_DIR / "shared_line" / "project", root)
    before = (root / "A.java").read_text(encoding="utf-8")
    argv = _extract_shared_line("A.java:11", "--write")
    argv[1] = str(root)
    assert run_command(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Edited at A.java:11\n"
    assert [p.name for p in root.iterdir()] == ["A.java"]
    assert (root / "A.java").read_text(encoding="utf-8") == before


def _extract_mid_statement(at: str) -> list[str]:
    root = FIXTURES_DIR / "mid_statement" / "project"
    fragment = FIXTURES_DIR / "mid_statement" / "fragment.java"
    return ["extract", str(root), "--fragment", str(fragment), "--at", at, "--name", "reset"]


def test_extract_leaves_a_copy_that_does_not_start_a_statement(capsys):
    """`g` holds the fragment's tokens after `int`; only `f`'s copy, a statement of its own, becomes a call."""
    assert run_command(_extract_mid_statement("A.java:4")) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "extract_mid_statement.diff").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "fixture, at, name, note",
    [
        ("static_site", "A.java:4", "bump", "A.java:10 left as it is: g is static and f is not"),
        ("throws_clause", "T.java:6", "count", "T.java:18 left as it is: h does not declare throws IOException"),
        ("mid_statement", "A.java:4", "reset", "A.java:10 left as it is: does not start a statement"),
        ("cross_site_types", "A.java:3", "bump", "A.java:8 left as it is: n is not a parameter or local of type int there"),
    ],
)
def test_extract_names_each_copy_it_leaves_alone_on_stderr(fixture, at, name, note, capsys):
    """The note goes to stderr, so the diff on stdout stays the golden."""
    root, fragment = FIXTURES_DIR / fixture / "project", FIXTURES_DIR / fixture / "fragment.java"
    assert run_command(["extract", str(root), "--fragment", str(fragment), "--at", at, "--name", name]) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN_DIR / f"extract_{fixture}.diff").read_text(encoding="utf-8")
    assert err == f"note: {note}\n"


def test_extract_passes_a_varargs_parameter_as_an_array(capsys):
    """`int... xs` becomes `int[] xs`, which javac takes before `int n`, and `g`'s `int[] xs` copy is rewritten too."""
    root, fragment = FIXTURES_DIR / "varargs" / "project", FIXTURES_DIR / "varargs" / "fragment.java"
    assert run_command(["extract", str(root), "--fragment", str(fragment), "--at", "A.java:3", "--name", "bump"]) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN_DIR / "extract_varargs.diff").read_text(encoding="utf-8")
    assert "private int bump(int[] xs, int n) {" in out and err == ""


def test_extract_at_a_run_that_does_not_start_a_statement_exits_three(capsys):
    assert run_command(_extract_mid_statement("A.java:10")) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the fragment at A.java:10 does not start a statement\n"


def _extract_second_copy(root: Path, at: str) -> dict[str, str]:
    """`extract --write` on a copy of the two-copy fixture at `root`; its sources afterwards."""
    shutil.copytree(FIXTURES_DIR / "second_copy" / "project", root)
    fragment = FIXTURES_DIR / "second_copy" / "fragment.java"
    argv = ["extract", str(root), "--fragment", str(fragment), "--at", at, "--name", "reset", "--write"]
    assert run_command(argv) == 0
    return {"A.java": (root / "A.java").read_text(encoding="utf-8")}


def test_extract_rewrites_the_copy_at_the_given_line(tmp_path, capsys):
    """`f` holds the fragment on lines 4-5 and again on 7-8; each `--at` rewrites its own copy."""
    root = FIXTURES_DIR / "second_copy" / "project"
    fragment = FIXTURES_DIR / "second_copy" / "fragment.java"
    argv = ["extract", str(root), "--fragment", str(fragment), "--at", "A.java:7", "--name", "reset"]
    assert run_command(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "extract_second_copy.diff").read_text(encoding="utf-8")
    second = _extract_second_copy(tmp_path / "second", "A.java:7")["A.java"].splitlines()
    assert second[3:8] == [
        "        total = 0;",
        "        total += xs.length;",
        "        int first = total;",
        "        total = reset(total, xs);",
        "        return first + total;",
    ]
    first = _extract_second_copy(tmp_path / "first", "A.java:4")["A.java"].splitlines()
    assert first[3:7] == [
        "        total = reset(total, xs);",
        "        int first = total;",
        "        total = 0;",
        "        total += xs.length;",
    ]


@requires_javac
def test_the_second_copy_extraction_compiles(tmp_path, capsys):
    assert javac_errors(_extract_second_copy(tmp_path / "p", "A.java:7")) == ""


# Declarations an extraction depends on. A field whose initializer calls
# a method or builds an object is still a field, so code that assigns it
# needs no output; a dimension written after a parameter's name belongs to
# its type, so the new method takes `int[] xs`; an annotation with arguments
# inside a parameter's type hides none of the parameters after it.
DECLARATION_REPRODUCTIONS = {
    "field_initializer": (
        {
            "A.java": """\
import java.util.ArrayList;
import java.util.List;

class A {
    private int count = Math.max(1, 2);
    private final List<String> names = new ArrayList<>();
    private @Deprecated String s;

    int f(int[] xs) {
        count = 0;
        count += xs.length;
        names.add(s);
        return count;
    }

    void g(int[] xs) {
        count = 0;
        count += xs.length;
    }
}
"""
        },
        "count = 0;\ncount += xs.length;\n",
        "A.java:10",
        "reset",
        "    private void reset(int[] xs) {",
    ),
    "trailing_dims": (
        {
            "B.java": """\
class B {
    int f(int xs[]) {
        int n = 0;
        for (int x : xs) n += x;
        return n;
    }

    int g(int xs[]) {
        int n = 0;
        for (int x : xs) n += x;
        return n * 2;
    }
}
"""
        },
        "int n = 0;\nfor (int x : xs) n += x;\n",
        "B.java:3",
        "count",
        "    private int count(int[] xs) {",
    ),
    "type_use_annotations": (
        {
            "C.java": """\
import java.lang.annotation.ElementType;
import java.lang.annotation.Target;
import java.util.List;

@Target(ElementType.TYPE_USE)
@interface Size {
    int max();
}

class C {
    int f(List<@Size(max = 3) String> names, String @Size(max = 1) [] tags, int[] xs) {
        int n = names.size() + tags.length;
        for (int x : xs) n += x;
        return n;
    }

    int g(List<@Size(max = 3) String> names, String @Size(max = 1) [] tags, int[] xs) {
        int n = names.size() + tags.length;
        for (int x : xs) n += x;
        return n * 2;
    }
}
"""
        },
        "int n = names.size() + tags.length;\nfor (int x : xs) n += x;\n",
        "C.java:12",
        "count",
        "    private int count(List<@Size(max=3) String> names, String @Size(max=1)[] tags, int[] xs) {",
    ),
}


def _extract_reproduction(case: str, tmp_path: Path, capsys) -> dict[str, str]:
    """Run `extract --write` on the case's project; its sources afterwards."""
    files, fragment_text, at, name, _ = DECLARATION_REPRODUCTIONS[case]
    root = write_project(tmp_path / "p", files)
    fragment = tmp_path / "frag.java"
    fragment.write_text(fragment_text, encoding="utf-8")
    code = run_command(["extract", str(root), "--fragment", str(fragment), "--at", at, "--name", name, "--write"])
    assert (code, capsys.readouterr().err) == (0, "")
    return {rel: (root / rel).read_text(encoding="utf-8") for rel in files}


@pytest.mark.parametrize("case", sorted(DECLARATION_REPRODUCTIONS))
def test_extract_reads_fields_with_initializers_and_dimensions_after_names(case, tmp_path, capsys):
    (source,) = _extract_reproduction(case, tmp_path, capsys).values()
    assert DECLARATION_REPRODUCTIONS[case][4] in source.splitlines()


@requires_javac
@pytest.mark.parametrize("case", sorted(DECLARATION_REPRODUCTIONS))
def test_the_reproductions_rewritten_projects_compile(case, tmp_path, capsys):
    assert javac_errors(_extract_reproduction(case, tmp_path, capsys)) == ""
