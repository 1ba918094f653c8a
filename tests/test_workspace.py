from __future__ import annotations

import sys

import pytest

from anticopypaster.decision import PasteEvent
from anticopypaster.errors import MissingRoot, UnknownProject
from anticopypaster.metrics import build_distributions
from anticopypaster.workspace import Workspace, open_project, refresh_index

from helpers import FIXTURES_DIR, write_project

FILE_A = """\
class A {
    int one() {
        return 1;
    }

    int two(int x) {
        if (x > 0) {
            x++;
        }
        return x;
    }
}
"""

FILE_B = """\
class B {
    void three() {
        go();
    }

    void go() {
    }
}
"""

FILE_C = """\
class C {
    int five(int n) {
        int s = 0;
        s += n;
        return s;
    }

    int six() {
        return 6;
    }
}
"""


def make_tree(root):
    return write_project(
        root,
        {"A.java": FILE_A, "sub/B.java": FILE_B, "C.java": FILE_C},
    )


def test_open_project_indexes_all_files_and_methods(tmp_path):
    session = open_project(make_tree(tmp_path / "p"))
    assert len(session.files) == 3
    assert len(session.methods) == 6
    assert session.distribution is not None
    assert session.distribution.sample_size == 6


def test_text_blocks_do_not_drop_their_file():
    session = open_project(FIXTURES_DIR / "text_block")
    assert session.warnings == []
    lines = {m.name: (m.start_line, m.end_line) for m in session.methods}
    assert lines == {"banner": (3, 7), "width": (11, 11)}
    banner = next(m for m in session.methods if m.name == "banner")
    assert banner.body_tokens[3].text.startswith('"""')
    assert banner.body_tokens[4].line == 6


def test_record_methods_and_components_are_indexed():
    session = open_project(FIXTURES_DIR / "record")
    assert session.warnings == []
    assert sorted(m.name for m in session.methods) == ["first", "manhattan", "origin"]
    fields = {ctx.class_name: ctx.field_names for ctx in session.classes}
    assert fields == {"Point": {"x": "int", "y": "int"}, "Pair": {"left": "T", "right": "T"}}


def test_classes_nested_too_deeply_become_a_file_warning(tmp_path):
    depth = 2 * sys.getrecursionlimit()
    deep = "".join(f"class C{i} {{ " for i in range(depth)) + "void f() { x++; }" + "}" * depth
    files = {"Deep.java": deep, "Ok.java": "class Ok { void g() { y++; } }"}
    root = write_project(tmp_path / "p", files)
    session = open_project(root)
    assert [m.name for m in session.methods] == ["g"]
    (warning,) = session.warnings
    assert warning.startswith("Deep.java: ") and "nested too deeply" in warning


def test_missing_root_is_an_error(tmp_path):
    with pytest.raises(MissingRoot):
        open_project(tmp_path / "nope")


def test_config_file_in_root_is_loaded(tmp_path):
    root = make_tree(tmp_path / "p")
    (root / ".anticopypaster.json").write_text('{"delaySeconds": 3}', encoding="utf-8")
    session = open_project(root)
    assert session.settings.delay_seconds == 3


def test_explicit_config_path_wins(tmp_path):
    root = make_tree(tmp_path / "p")
    (root / ".anticopypaster.json").write_text('{"delaySeconds": 3}', encoding="utf-8")
    override = tmp_path / "override.json"
    override.write_text('{"delaySeconds": 7}', encoding="utf-8")
    session = open_project(root, override)
    assert session.settings.delay_seconds == 7


def test_default_ignore_globs_skip_build_output(tmp_path):
    root = make_tree(tmp_path / "p")
    write_project(root / "target", {"Gen.java": FILE_A})
    write_project(root / "sub" / "build", {"Gen2.java": FILE_B})
    session = open_project(root)
    assert set(session.files) == {"A.java", "sub/B.java", "C.java"}


def test_broken_file_is_skipped_with_a_warning(tmp_path):
    root = make_tree(tmp_path / "p")
    (root / "Broken.java").write_text("class Broken { void f() {", encoding="utf-8")
    session = open_project(root)
    assert len(session.methods) == 6
    assert any("Broken.java" in w for w in session.warnings)


def test_open_project_is_idempotent_on_unchanged_trees(tmp_path):
    root = make_tree(tmp_path / "p")
    a = open_project(root)
    b = open_project(root)
    assert [m.id for m in a.methods] == [m.id for m in b.methods]
    assert a.distribution == b.distribution


def test_file_scope_limits_search_to_the_paste_file(tmp_path):
    root = make_tree(tmp_path / "p")
    (root / ".anticopypaster.json").write_text('{"searchScope": "file"}', encoding="utf-8")
    session = open_project(root)
    assert {m.file_path for m in session.search_methods("A.java")} == {"A.java"}
    assert len(session.search_methods("A.java")) == 2


def test_route_event_finds_the_right_session(tmp_path):
    workspace = Workspace()
    root_a = make_tree(tmp_path / "a")
    root_b = make_tree(tmp_path / "b")
    session_a = workspace.open(root_a)
    workspace.open(root_b)
    event = PasteEvent(str(root_a), "A.java", 3, "x = 1;", 0)
    assert workspace.route_event(event) is session_a


def test_route_event_rejects_unopened_roots(tmp_path):
    workspace = Workspace()
    workspace.open(make_tree(tmp_path / "a"))
    event = PasteEvent(str(tmp_path / "other"), "A.java", 3, "x = 1;", 0)
    with pytest.raises(UnknownProject):
        workspace.route_event(event)


def test_refresh_reindexes_only_changed_files(tmp_path):
    session = open_project(make_tree(tmp_path / "p"))
    before_ids = {m.id for m in session.methods if m.file_path != "A.java"}
    session.files["A.java"] = FILE_A.replace("return 1;", "return 42;")
    refresh_index(session, ["A.java"])
    after_ids = {m.id for m in session.methods if m.file_path != "A.java"}
    assert before_ids == after_ids
    assert len(session.methods) == 6


def test_refresh_matches_a_from_scratch_rebuild(tmp_path):
    session = open_project(make_tree(tmp_path / "p"))
    session.files["C.java"] = FILE_C.replace("return 6;", "return 60;")
    refresh_index(session, ["C.java"])
    scratch = build_distributions(session.methods, session.settings.keywords)
    assert session.distribution == scratch


def test_deleted_file_loses_its_methods(tmp_path):
    session = open_project(make_tree(tmp_path / "p"))
    session.apply_edit("sub/B.java", None)
    assert all(m.file_path != "sub/B.java" for m in session.methods)
    assert len(session.methods) == 4
    assert session.distribution.sample_size == 4


def test_noop_refresh_keeps_the_snapshot(tmp_path):
    session = open_project(make_tree(tmp_path / "p"))
    ids = [m.id for m in session.methods]
    dist = session.distribution
    refresh_index(session, [])
    assert [m.id for m in session.methods] == ids
    assert session.distribution == dist


def test_session_isolation_under_interleaving(tmp_path):
    root_a = make_tree(tmp_path / "a")
    root_b = make_tree(tmp_path / "b")
    solo_a = open_project(root_a)
    solo_b = open_project(root_b)

    inter_a = open_project(root_a)
    inter_b = open_project(root_b)
    inter_a.files["A.java"] = FILE_A.replace("return 1;", "return 11;")
    refresh_index(inter_a, ["A.java"])
    inter_b.files["A.java"] = FILE_A.replace("return 1;", "return 22;")
    refresh_index(inter_b, ["A.java"])

    solo_a.files["A.java"] = FILE_A.replace("return 1;", "return 11;")
    refresh_index(solo_a, ["A.java"])
    solo_b.files["A.java"] = FILE_A.replace("return 1;", "return 22;")
    refresh_index(solo_b, ["A.java"])

    assert solo_a.distribution == inter_a.distribution
    assert solo_b.distribution == inter_b.distribution
    assert [m.id for m in solo_a.methods] == [m.id for m in inter_a.methods]


def test_distribution_none_for_empty_tree(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    session = open_project(root)
    assert session.methods == []
    assert session.distribution is None
