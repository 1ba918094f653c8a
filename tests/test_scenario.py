from __future__ import annotations

import json

import pytest

from anticopypaster.scenario import ScenarioError, load_scenario, run_scenario, serialize_log

from helpers import SCENARIOS_DIR


def _scenario(name: str):
    return load_scenario(SCENARIOS_DIR / f"{name}.json")


def test_loader_rejects_undeclared_projects(tmp_path):
    bad = tmp_path / "s.json"
    bad.write_text(
        json.dumps(
            {
                "projects": [{"root": "a"}],
                "events": [
                    {"type": "paste", "root": "b", "file": "F.java", "line": 1,
                     "fragment": "x = 1;", "t": 0}
                ],
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_loader_rejects_decreasing_timestamps(tmp_path):
    bad = tmp_path / "s.json"
    bad.write_text(
        json.dumps(
            {
                "projects": [{"root": "a"}],
                "events": [
                    {"type": "edit", "root": "a", "file": "F.java", "content": "", "t": 5},
                    {"type": "edit", "root": "a", "file": "F.java", "content": "", "t": 4},
                ],
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_loader_rejects_unknown_event_types(tmp_path):
    bad = tmp_path / "s.json"
    bad.write_text(
        json.dumps({"projects": [{"root": "a"}], "events": [{"type": "move", "t": 0, "root": "a"}]}),
        encoding="utf-8",
    )
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_replay_is_deterministic_byte_for_byte():
    first = serialize_log(run_scenario(_scenario("two_projects")))
    second = serialize_log(run_scenario(_scenario("two_projects")))
    assert first == second


def test_no_recommendation_before_the_delay_elapses():
    log = run_scenario(_scenario("before_due"))
    assert log == []


def test_recommendation_lands_exactly_at_due_time():
    log = run_scenario(_scenario("due"))
    assert len(log) == 1
    entry = log[0]
    assert entry["type"] == "recommendation"
    assert entry["t"] == 10 and entry["pastedAt"] == 0
    assert entry["t"] >= entry["pastedAt"] + 10


def test_edit_before_due_time_cancels_with_edited_reason():
    log = run_scenario(_scenario("edited"))
    assert [e["type"] for e in log] == ["drop"]
    assert log[0]["reason"] == "Edited"
    assert log[0]["t"] == 10


def test_repaste_resets_the_timer():
    log = run_scenario(_scenario("repaste"))
    assert len(log) == 1
    assert log[0]["t"] == 13


def test_two_sessions_with_different_rules_diverge():
    log = run_scenario(_scenario("two_projects"))
    by_project = {entry["project"]: entry for entry in log}
    assert by_project["projects/demo_b1"]["type"] == "recommendation"
    assert by_project["projects/demo_b2"]["type"] == "drop"
    assert by_project["projects/demo_b2"]["reason"] == "NotTriggered"


def test_interleaved_equals_sequential_per_session(tmp_path):
    interleaved = run_scenario(_scenario("two_projects"))
    source = json.loads((SCENARIOS_DIR / "two_projects.json").read_text(encoding="utf-8"))
    per_session = []
    for project in source["projects"]:
        solo = {
            "projects": [project],
            "events": [e for e in source["events"] if e["root"] == project["root"]],
            "until": source["until"],
        }
        solo_path = tmp_path / f"solo_{project['root'].replace('/', '_')}.json"
        solo_path.write_text(json.dumps(solo), encoding="utf-8")
        # keep roots resolvable relative to the original scenario directory
        relocated = load_scenario(solo_path)
        relocated = type(relocated)(
            relocated.projects, relocated.events, relocated.until, SCENARIOS_DIR
        )
        per_session.extend(run_scenario(relocated))
    keyed = lambda entries: {e["project"]: e for e in entries}
    assert keyed(interleaved) == keyed(per_session)


def test_pipeline_consistency_between_simulate_and_check(capsys):
    from anticopypaster.cli import run_command

    log = run_scenario(_scenario("due"))
    entry = log[0]
    root = str(SCENARIOS_DIR / "projects" / "demo_a")
    fragment = json.loads((SCENARIOS_DIR / "due.json").read_text())["events"][0]["fragment"]
    frag_file = SCENARIOS_DIR.parent / "tests" / "fixtures" / "tmp_frag.java"
    frag_file.write_text(fragment, encoding="utf-8")
    try:
        config = str(SCENARIOS_DIR / "configs" / "empty.json")
        code = run_command(
            ["check", root, "--fragment", str(frag_file), "--at",
             f"{entry['file']}:{entry['line']}", "--config", config, "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
    finally:
        frag_file.unlink()
    assert code == 0
    assert payload["triggered"] == (entry["type"] == "recommendation")
    assert payload["gate"]["duplicateMethodCount"] == entry["gate"]["duplicateMethodCount"]
    assert payload["gate"]["submetrics"] == entry["gate"]["submetrics"]
