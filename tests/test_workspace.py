from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticopypaster import metrics, workspace
from anticopypaster.clones import WordIndex
from anticopypaster.errors import LexError, MissingRoot
from anticopypaster.lexer import tokenize
from anticopypaster.metrics import fresh_distributions, method_vector, vector_values
from anticopypaster.settings import CONFIG_FILENAME
from anticopypaster.source_model import source_position
from anticopypaster.workspace import open_project, refresh_index

from helpers import CORPUS_DIR, FIXTURES_DIR, write_project

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
    fields = {m.owner.class_name: m.owner.field_names for m in session.methods}
    assert fields == {"Point": {"x": "int", "y": "int"}, "Pair": {"left": "T", "right": "T"}}


def test_classes_nested_too_deeply_become_a_file_warning(tmp_path):
    depth = 2 * sys.getrecursionlimit()
    deep = "".join(f"class C{i} {{ " for i in range(depth)) + "void f() { x++; }" + "}" * depth
    files = {"Deep.java": deep, "Ok.java": "class Ok { void g() { y++; } }"}
    root = write_project(tmp_path / "p", files)
    session = open_project(root)
    assert [m.name for m in session.methods] == ["g"]
    assert session.warnings == ["Deep.java: classes nested too deeply to index"]


@pytest.mark.parametrize(
    "source, reason",
    [
        ("class A { void f() { }", "unbalanced braces at file scope"),
        ("class A", "class body missing for A"),
    ],
)
def test_indexing_warnings_name_the_file_once(tmp_path, source, reason):
    root = write_project(tmp_path / "p", {"A.java": source, "Ok.java": "class Ok { void g() { } }"})
    session = open_project(root)
    assert session.warnings == [f"A.java: {reason}"]


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
    scratch = fresh_distributions(session.methods, session.settings.keywords)
    assert session.distribution == scratch


def test_an_edit_computes_vectors_only_for_the_edited_files_methods(tmp_path, monkeypatch):
    session = open_project(make_tree(tmp_path / "p"))
    computed = []
    original = metrics.method_vector

    def counted(method, keywords):
        computed.append(method)
        return original(method, keywords)

    monkeypatch.setattr(metrics, "method_vector", counted)
    monkeypatch.setattr(workspace, "method_vector", counted, raising=False)
    session.apply_edit("A.java", FILE_A.replace("return 1;", "return 42;"))
    edited = [m for m in session.methods if m.file_path == "A.java"]
    assert len(computed) == len(edited) == 2
    assert {id(m) for m in computed} == {id(m) for m in edited}
    computed.clear()
    session.apply_edit("sub/B.java", None)
    assert computed == []


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


# --- incremental edits equal a fresh open -------------------------------------

# One pool for field and method names, so edits move coupling counts.
_NAMES = ("a", "b", "c", "f", "g", "h")
_STATEMENTS = (
    "a = b + 1;",
    "f(a);",
    "int a = 2;",
    "if (b > a) { g(c); }",
    "for (int c = 0; c < b; c++) { h(); }",
    "return;",
    "this.c = a;",
)
# Lines whose presence a toggle switches: a file that no longer lexes, and
# one that lexes but whose braces no longer balance.
_BREAKS = {"toggle unlexable": "    /* unterminated", "toggle unbalanced": "    {"}
_EDIT_OPS = (
    "add method", "change method", "remove method", "add field below", "delete file", "add file",
    *_BREAKS,
)
_EDITS = st.tuples(
    st.sampled_from(_EDIT_OPS),
    st.integers(0, 11),
    st.sampled_from(_NAMES),
    st.lists(st.sampled_from(_STATEMENTS), max_size=4).map(tuple),
)
# A keyword subset, so a vector computed with the default catalogue would differ.
_KEYWORD_CONFIG = '{"keywords": ["if", "for", "int", "return"]}'


def _render(members: list[tuple]) -> str:
    lines = ["class K {"]
    for member in members:
        if member[0] == "field":
            lines.append(f"    int {member[1]};")
        elif member[0] == "raw":
            lines.append(member[1])
        else:
            lines.append(f"    void {member[1]}() {{")
            lines += [f"        {statement}" for statement in member[2]]
            lines.append("    }")
    return "\n".join(lines + ["}", ""])


def _edit(model: dict[str, list[tuple]], op: str, pick: int, name: str, body: tuple) -> str:
    """Apply one edit to the model of the project; returns the path it touched."""
    if op == "add file" or not model:
        path = f"F{pick % 3}.java"
        model[path] = [("method", name, body)]
        return path
    path = sorted(model)[pick % len(model)]
    members = model[path]
    methods = [i for i, member in enumerate(members) if member[0] == "method"]
    if op == "delete file":
        del model[path]
    elif op in _BREAKS:
        raw = ("raw", _BREAKS[op])
        if raw in members:
            members.remove(raw)
        else:
            members.append(raw)
    elif op == "add method" or not methods:
        members.insert(pick % (len(members) + 1), ("method", name, body))
    else:
        i = methods[pick % len(methods)]
        if op == "change method":
            members[i] = ("method", members[i][1], body)
        elif op == "remove method":
            del members[i]
        else:
            members.insert(i + 1, ("field", name))
    return path


def _linear_method_at(methods, file_path: str, line: int):
    """method_at's definition: the first method in id order whose body holds the line."""
    holding = [m for m in methods if m.file_path == file_path and m.start_line <= line <= m.end_line]
    return min(holding, key=lambda m: m.id, default=None)


def _assert_method_at_is_linear(session) -> None:
    assert session.methods == sorted(session.methods, key=source_position)
    for path, text in {**session.files, "Absent.java": ""}.items():
        for line in range(text.count("\n") + 3):
            assert session.method_at(path, line) is _linear_method_at(session.methods, path, line)


# Bodies that share a line: by position `b` comes first on line 1, and
# `a` (line 9) before `b` (line 10), but the lesser id wins both.
SHARED_LINES = """\
class S { void b() { x(); } void a() { y(); } void c() {} }
class T {
    class Inner {
        void inner() {
            z();
        }
    }

    void a() { y();
        z(); } void b() { x();
    }
}
"""


def test_method_at_bisection_agrees_with_the_linear_definition(tmp_path):
    roots = [case / "project" for case in sorted(CORPUS_DIR.glob("case*"))]
    roots += [FIXTURES_DIR / name for name in ("distribution_demo", "record", "text_block")]
    roots += [FIXTURES_DIR / "extract_demo" / "project", make_tree(tmp_path / "tree")]
    roots.append(write_project(tmp_path / "shared", {"S.java": SHARED_LINES}))
    for root in roots:
        _assert_method_at_is_linear(open_project(root))
    shared = open_project(tmp_path / "shared")
    assert shared.method_at("S.java", 1).name == "a"
    assert shared.method_at("S.java", 10).name == "b"
    assert shared.method_at("S.java", 5).name == "inner"


def _assert_fresh(session, fresh_root: Path) -> None:
    keywords = session.settings.keywords
    for method in session.methods:
        assert method.vector == vector_values(method_vector(method, keywords))
    assert set(session.tokens) <= set(session.files)
    for path, text in session.files.items():
        try:
            expected = tokenize(text)
        except LexError:
            assert path not in session.tokens
        else:
            assert session.tokens[path] == expected
    fresh = open_project(write_project(fresh_root, {**session.files, CONFIG_FILENAME: _KEYWORD_CONFIG}))
    assert [m.id for m in session.methods] == [m.id for m in fresh.methods]
    for mine, theirs in zip(session.methods, fresh.methods):
        assert (mine.body_texts, mine.bag, mine.bag_size) == (theirs.body_texts, theirs.bag, theirs.bag_size)
    if session.methods:
        assert session.distribution == fresh_distributions(session.methods, keywords)
    else:
        assert session.distribution is None
    assert session.distribution == fresh.distribution
    rebuilt = WordIndex(session.methods)
    assert (session.index.holders, session.index.methods) == (rebuilt.holders, rebuilt.methods)
    _assert_method_at_is_linear(session)


@settings(deadline=None)
@given(st.lists(_EDITS, min_size=1, max_size=6))
def test_incremental_edits_keep_vectors_and_distribution_fresh(edits):
    model = {
        "A.java": [("method", "f", ("f(a);",)), ("field", "a"), ("method", "g", ("a = b + 1;",))],
        "B.java": [("field", "b"), ("method", "h", ("int a = 2;", "a = b + 1;"))],
    }
    files = {path: _render(members) for path, members in model.items()}
    with tempfile.TemporaryDirectory() as tmp:
        session = open_project(write_project(Path(tmp) / "p", {**files, CONFIG_FILENAME: _KEYWORD_CONFIG}))
        for step, edit in enumerate(edits):
            path = _edit(model, *edit)
            session.apply_edit(path, _render(model[path]) if path in model else None)
            _assert_fresh(session, Path(tmp) / f"fresh{step}")
