from __future__ import annotations

from dataclasses import replace
from itertools import cycle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticopypaster.clones import EXACT, find_duplicates, find_subsequence
from anticopypaster.errors import (
    EngineError,
    IllegalFlow,
    InvalidIdentifier,
    MissingContext,
    NameCollision,
    StaleSite,
    TooManyOutputs,
)
from anticopypaster.extraction import (
    analyze_extractability,
    apply_extraction,
    plan_extraction,
    verify_by_inlining,
)
from anticopypaster.lexer import find_run, tokenize
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import FIXTURES_DIR, GOLDEN_DIR, count_lexing, javac_errors, requires_javac, write_project

FLOW_SOURCE = """\
class Flow {
    private int seen;

    int run(int x) {
        int y = 0;
        y = x * 2;
        seen++;
        report(y);
        int z = 1;
        z++;
        return y;
    }

    void report(int y) {
    }
}
"""


def hunk_count(diff: str) -> int:
    return sum(1 for line in diff.splitlines() if line.startswith("@@"))


def _flow():
    methods, classes = index_file(tokenize(FLOW_SOURCE), "Flow.java")
    return methods[0], classes[0]


def test_reads_become_inputs_and_later_reads_become_outputs():
    host, owner = _flow()
    fragment = validate_fragment("y = x * 2;\nseen++;")
    summary = analyze_extractability(fragment, host, owner)
    assert [p.name for p in summary.inputs] == ["y", "x"]
    assert [p.name for p in summary.outputs] == ["y"]
    assert fragment.illegal_flow == ()
    assert not summary.output_declared_inside


def test_self_contained_fragment_has_no_inputs_or_outputs():
    host, owner = _flow()
    fragment = validate_fragment("int z = 1;\nz++;")
    summary = analyze_extractability(fragment, host, owner)
    assert summary.inputs == ()
    assert summary.outputs == ()
    assert fragment.illegal_flow == ()


def test_two_escaping_locals_are_too_many_outputs():
    source = """\
class Two {
    int both(int x) {
        int a = x + 1;
        int b = x + 2;
        return a + b;
    }
}
"""
    (host,), (owner,) = index_file(tokenize(source), "Two.java")
    fragment = validate_fragment("int a = x + 1;\nint b = x + 2;")
    summary = analyze_extractability(fragment, host, owner)
    assert [p.name for p in summary.outputs] == ["a", "b"]
    with pytest.raises(TooManyOutputs):
        plan_extraction(summary, "helper", fragment, host, owner, [], {})


def test_return_inside_fragment_is_illegal_flow():
    host, owner = _flow()
    fragment = validate_fragment("z++;\nreturn y;")
    summary = analyze_extractability(fragment, host, owner)
    assert any("return" in v for v in fragment.illegal_flow)
    with pytest.raises(IllegalFlow):
        plan_extraction(summary, "helper", fragment, host, owner, [], {})


def test_break_with_its_loop_inside_the_fragment_is_legal():
    source = """\
class Loops {
    void scan(int[] xs) {
        for (int x : xs) {
            if (x < 0) {
                break;
            }
        }
        mark();
    }

    void mark() {
    }
}
"""
    methods, classes = index_file(tokenize(source), "Loops.java")
    fragment = validate_fragment(
        "for (int x : xs) {\n    if (x < 0) {\n        break;\n    }\n}"
    )
    summary = analyze_extractability(fragment, methods[0], classes[0])
    assert fragment.illegal_flow == ()


def test_bare_break_without_a_loop_is_illegal():
    source = """\
class Bare {
    void scan(int[] xs) {
        for (int x : xs) {
            mark();
            break;
        }
    }

    void mark() {
    }
}
"""
    methods, classes = index_file(tokenize(source), "Bare.java")
    fragment = validate_fragment("mark();\nbreak;")
    summary = analyze_extractability(fragment, methods[0], classes[0])
    assert any("break" in v for v in fragment.illegal_flow)


def test_field_assignment_is_not_an_output():
    host, owner = _flow()
    fragment = validate_fragment("seen++;")
    summary = analyze_extractability(fragment, host, owner)
    assert summary.outputs == ()


def test_plan_signature_and_call_shapes():
    host, owner = _flow()
    fragment = validate_fragment("y = x * 2;\nseen++;")
    summary = analyze_extractability(fragment, host, owner)
    plan = plan_extraction(summary, "compute", fragment, host, owner, [], {})
    assert plan.signature == "private int compute(int y, int x)"
    assert plan.call_statement == "y = compute(y, x);"
    assert plan.body_text.endswith("return y;")


def test_void_plan_uses_bare_call():
    host, owner = _flow()
    fragment = validate_fragment("seen++;\nreport(y);")
    summary = analyze_extractability(fragment, host, owner)
    plan = plan_extraction(summary, "emit", fragment, host, owner, [], {})
    assert plan.return_type == "void"
    assert plan.call_statement == "emit(y);"


def test_declared_inside_output_uses_declaration_call():
    source = """\
class Fresh {
    int make(int x) {
        int y = x * 3;
        y++;
        log(y);
        return y;
    }

    void log(int v) {
    }
}
"""
    (host, _), (owner,) = index_file(tokenize(source), "Fresh.java")
    fragment = validate_fragment("int y = x * 3;\ny++;")
    summary = analyze_extractability(fragment, host, owner)
    plan = plan_extraction(summary, "seed", fragment, host, owner, [], {})
    assert summary.output_declared_inside
    assert plan.call_statement == "int y = seed(x);"


def test_name_collision_and_invalid_identifier_are_rejected():
    host, owner = _flow()
    fragment = validate_fragment("seen++;")
    summary = analyze_extractability(fragment, host, owner)
    with pytest.raises(NameCollision):
        plan_extraction(summary, "report", fragment, host, owner, [], {})
    # javac 17: "as of release 9, '_' is a keyword"; "invalid use of a restricted identifier 'yield'".
    for bad in ("1abc", "a-b", "class", "", "_", "yield"):
        with pytest.raises(InvalidIdentifier):
            plan_extraction(summary, bad, fragment, host, owner, [], {})
    # Restricted identifiers that javac takes as a method name.
    for name in ("var", "record", "sealed", "permits"):
        assert plan_extraction(summary, name, fragment, host, owner, [], {}).method_name == name


# --- application and round trip -----------------------------------------------

def _plan_fixture(name: str, file_path: str, line: int, method_name: str):
    session = open_project(FIXTURES_DIR / name / "project")
    fragment_text = (FIXTURES_DIR / name / "fragment.java").read_text()
    fragment = validate_fragment(fragment_text)
    host = session.method_at(file_path, line)
    matches = find_duplicates(fragment, session.methods, 0.8)
    at = find_run(session.tokens[file_path], fragment.tokens.texts, line)
    summary = analyze_extractability(fragment, host, host.owner, at)
    plan = plan_extraction(
        summary, method_name, fragment, host, host.owner, matches, session.methods_by_id
    )
    return session, fragment, plan


def _extract_demo():
    return _plan_fixture("extract_demo", "Pipeline.java", 5, "bundle")


def test_two_site_extraction_matches_the_golden_diff():
    session, _, plan = _extract_demo()
    result = apply_extraction(plan, session.files)
    golden = (GOLDEN_DIR / "extract_two_sites.diff").read_text(encoding="utf-8")
    assert result.diff == golden
    assert hunk_count(result.diff) == 3


def test_sites_sharing_lines_with_other_statements_match_the_golden_diff():
    """Only the matched run is replaced: `int k = 1;` and `return total * 2;` stay."""
    session, _, plan = _plan_fixture("shared_line", "A.java", 4, "reset")
    columns = [(s.start_line, session.tokens[s.file_path].column(s.token)) for s in plan.target_sites]
    assert columns == [(4, 20), (12, 9), (18, 24)]
    result = apply_extraction(plan, session.files, session.tokens)
    golden = (GOLDEN_DIR / "extract_shared_line.diff").read_text(encoding="utf-8")
    assert result.diff == golden
    assert [(c.call_line, c.call_column) for c in result.call_sites] == [(4, 20), (17, 9), (22, 24)]
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_generic_methods_type_parameters_go_into_the_new_signature():
    """Without `<T>`, the new method's `List<T>` would name a type that is not in scope."""
    session, _, plan = _plan_fixture("generic_method", "G.java", 5, "count")
    assert plan.signature == "private <T> int count(List<T> xs)"
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_generic_method.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_parameter_keeps_its_type_where_a_nested_class_declares_its_name():
    """`String n` in an anonymous class's body does not hide `f`'s `int n`, so the new method takes an `int`."""
    session, _, plan = _plan_fixture("shadowed_parameter", "A.java", 4, "bump")
    assert plan.signature == "private int bump(int n, int[] xs)"
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_shadowed_parameter.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_local_of_a_nested_class_hides_the_parameter_where_the_fragment_lies_in_its_body():
    """Inside `run()`, `n` is its `String n`; the copy in `g` names `g`'s `String n`, so the new method takes a `String`."""
    session, _, plan = _plan_fixture("nested_scope", "A.java", 6, "bump")
    assert plan.signature == "private String bump(String n, int[] xs)"
    assert [(s.method_id, s.start_line) for s in plan.target_sites] == [("A.java:3:f", 6), ("A.java:15:g", 15)]
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_nested_scope.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_copy_in_a_static_method_is_left_alone_when_the_paste_site_method_is_not_static():
    """`static g` cannot call the instance method `bump`; its copy still counts as a duplicate."""
    session, fragment, plan = _plan_fixture("static_site", "A.java", 4, "bump")
    matches = find_duplicates(fragment, session.methods, 0.8)
    assert sorted((m.method_id, m.kind) for m in matches) == [("A.java:3:f", EXACT), ("A.java:9:g", EXACT)]
    assert plan.signature == "private int bump(int n, int[] xs)"
    assert [(s.method_id, s.start_line) for s in plan.target_sites] == [("A.java:3:f", 4)]
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_static_site.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_static_paste_site_method_rewrites_the_copies_in_instance_methods_too():
    _, _, plan = _plan_fixture("static_site", "A.java", 10, "bump")
    assert plan.signature == "private static int bump(int n, int[] xs)"
    assert [(s.method_id, s.start_line) for s in plan.target_sites] == [("A.java:3:f", 4), ("A.java:9:g", 10)]


def test_the_new_method_declares_the_paste_site_methods_throws_clause():
    """`h` declares `throws Exception`, which is not `IOException` as written, so its copy is left alone."""
    session, _, plan = _plan_fixture("throws_clause", "T.java", 6, "count")
    assert plan.signature == "private int count(Reader r) throws IOException"
    assert [s.method_id for s in plan.target_sites] == ["T.java:6:f", "T.java:12:g"]
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_throws_clause.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_thrown_renders_each_type_of_the_throws_clause_as_written():
    source = """\
class C {
    <E extends Exception> int f(int x) throws java.io.IOException, @Deprecated E { return x; }
    int g(String throwsName) { return 0; }
    int h()[] throws IllegalStateException { return null; }
}
"""
    methods, _ = index_file(tokenize(source), "C.java")
    assert [m.thrown for m in methods] == [("java.io.IOException", "@Deprecated E"), (), ("IllegalStateException",)]


# A local declared in a nested class's body is out of scope after that body: there a name
# means the method's own local, or a field, which the new method reaches without a parameter.
SCOPED_AFTER_NESTED_BODY = [
    (
        """\
class A {
    int f(int[] xs) {
        Runnable r = new Runnable() { public void run() { String k = ""; } };
        int k = 1;
        k += xs.length;
        return k;
    }
}
""",
        "k += xs.length;",
        "private int bump(int k, int[] xs)",
    ),
    (
        """\
class A {
    int s;
    int f(int[] xs) {
        Runnable r = new Runnable() { public void run() { String s = ""; } };
        s += xs.length;
        return s;
    }
}
""",
        "s += xs.length;",
        "private void bump(int[] xs)",
    ),
]


def _plan_source(root, source: str, fragment_text: str):
    session = open_project(write_project(root, {"A.java": source}))
    fragment = validate_fragment(fragment_text)
    line = source.splitlines().index("        " + fragment_text) + 1
    host = session.method_at("A.java", line)
    at = find_run(session.tokens["A.java"], fragment.tokens.texts, line)
    summary = analyze_extractability(fragment, host, host.owner, at)
    matches = find_duplicates(fragment, session.methods, 0.8)
    plan = plan_extraction(summary, "bump", fragment, host, host.owner, matches, session.methods_by_id)
    return session, plan


@pytest.mark.parametrize("source, fragment_text, signature", SCOPED_AFTER_NESTED_BODY)
def test_a_nested_class_local_is_out_of_scope_after_its_body(tmp_path, source, fragment_text, signature):
    session, plan = _plan_source(tmp_path / "p", source, fragment_text)
    assert plan.signature == signature
    result = apply_extraction(plan, session.files, session.tokens)
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


@requires_javac
@pytest.mark.parametrize("source, fragment_text, signature", SCOPED_AFTER_NESTED_BODY)
def test_extracting_after_a_nested_class_body_compiles(tmp_path, source, fragment_text, signature):
    session, plan = _plan_source(tmp_path / "p", source, fragment_text)
    assert javac_errors(apply_extraction(plan, session.files, session.tokens).sources) == ""


def test_a_method_whose_closing_brace_shares_its_line_is_followed_by_the_new_method():
    """m0 closes on the line that opens m1, so the method goes in right after m0's `}`."""
    session, _, plan = _plan_fixture("packed_close", "P.java", 4, "reset")
    result = apply_extraction(plan, session.files, session.tokens)
    golden = (GOLDEN_DIR / "extract_packed_close.diff").read_text(encoding="utf-8")
    assert result.diff == golden
    methods, _ = index_file(tokenize(result.sources["P.java"]), "P.java")
    assert [m.name for m in methods] == ["m0", "reset", "m1"]
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_copy_that_does_not_start_a_statement_is_matched_but_not_rewritten():
    """`g`'s copy of `n = 0; n += xs.length;` follows `int`: a call there would read `int n = reset(n, xs);`."""
    session, fragment, plan = _plan_fixture("mid_statement", "A.java", 4, "reset")
    matches = find_duplicates(fragment, session.methods, 0.8)
    assert sorted((m.method_id, m.kind) for m in matches) == [("A.java:10:g", EXACT), ("A.java:3:f", EXACT)]
    assert [(s.method_id, s.start_line) for s in plan.target_sites] == [("A.java:3:f", 4)]
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_mid_statement.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_paste_site_that_does_not_start_a_statement_is_refused_by_name():
    session = open_project(FIXTURES_DIR / "mid_statement" / "project")
    fragment = validate_fragment((FIXTURES_DIR / "mid_statement" / "fragment.java").read_text())
    host = session.method_at("A.java", 10)
    at = find_run(session.tokens["A.java"], fragment.tokens.texts, 10)
    with pytest.raises(MissingContext, match=r"^the fragment at A\.java:10 does not start a statement$"):
        analyze_extractability(fragment, host, host.owner, at)


def test_a_copy_whose_variable_has_another_type_is_left_alone():
    """`g`'s `n` is a `String`: `n = bump(n, xs);` there would pass it to `bump(int n, int[] xs)`."""
    session, _, plan = _plan_fixture("cross_site_types", "A.java", 3, "bump")
    assert plan.signature == "private int bump(int n, int[] xs)"
    assert [s.method_id for s in plan.target_sites] == ["A.java:3:f"]
    assert [(s.method_id, why) for s, why in plan.left_alone] == [
        ("A.java:8:g", "n is not a parameter or local of type int there")
    ]
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_cross_site_types.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_varargs_parameter_is_passed_as_the_array_it_is_inside_the_body():
    """`h`'s `int... xs` is an `int[]` in its body: the new method takes one, last or not, and `g`'s copy matches it."""
    session, _, plan = _plan_fixture("varargs", "A.java", 3, "bump")
    assert plan.signature == "private int bump(int[] xs, int n)"
    assert [s.method_id for s in plan.target_sites] == ["A.java:3:h", "A.java:9:g"]
    assert plan.left_alone == ()
    result = apply_extraction(plan, session.files, session.tokens)
    assert result.diff == (GOLDEN_DIR / "extract_varargs.diff").read_text(encoding="utf-8")
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent


def test_a_copy_whose_variable_is_a_field_is_left_alone():
    """In `g`, `n` is the field that `f`'s parameter hides; the new method would take it as an argument."""
    _, _, plan = _plan_fixture("field_site", "A.java", 5, "bump")
    assert [s.method_id for s in plan.target_sites] == ["A.java:5:f"]
    assert [(s.method_id, s.start_line, why) for s, why in plan.left_alone] == [
        ("A.java:10:g", 10, "n is not a parameter or local of type int there")
    ]


# Each extract fixture, with the paste site and the new method's name.
EXTRACT_FIXTURES = [
    ("extract_demo", "Pipeline.java", 5, "bundle"),
    ("shared_line", "A.java", 4, "reset"),
    ("packed_close", "P.java", 4, "reset"),
    ("second_copy", "A.java", 7, "reset"),
    ("generic_method", "G.java", 5, "count"),
    ("mid_statement", "A.java", 4, "reset"),
    ("shadowed_parameter", "A.java", 4, "bump"),
    ("nested_scope", "A.java", 6, "bump"),
    ("static_site", "A.java", 4, "bump"),
    ("throws_clause", "T.java", 6, "count"),
    ("cross_site_types", "A.java", 3, "bump"),
    ("field_site", "A.java", 5, "bump"),
    ("varargs", "A.java", 3, "bump"),
]


def test_every_fixture_with_a_fragment_is_listed():
    assert sorted(p.parent.name for p in FIXTURES_DIR.glob("*/fragment.java")) == sorted(f[0] for f in EXTRACT_FIXTURES)


@pytest.mark.parametrize("fixture, at_file, at_line, name", EXTRACT_FIXTURES)
def test_every_exact_match_is_a_site_or_left_alone_with_a_reason(fixture, at_file, at_line, name):
    session, fragment, plan = _plan_fixture(fixture, at_file, at_line, name)
    exact = sorted(m.method_id for m in find_duplicates(fragment, session.methods, 0.8) if m.kind == EXACT)
    left_alone = [site for site, _ in plan.left_alone]
    assert sorted(s.method_id for s in [*plan.target_sites, *left_alone]) == exact
    assert all(why for _, why in plan.left_alone)
    assert session.method_at(at_file, at_line).id in {s.method_id for s in plan.target_sites}


@requires_javac
@pytest.mark.parametrize("fixture, at_file, at_line, name", EXTRACT_FIXTURES)
def test_the_extract_goldens_rewritten_projects_compile(fixture, at_file, at_line, name):
    session, _, plan = _plan_fixture(fixture, at_file, at_line, name)
    assert javac_errors(apply_extraction(plan, session.files, session.tokens).sources) == ""


@requires_javac
def test_rewriting_the_copy_with_another_type_too_does_not_compile():
    """What `extract` wrote before the types rule: `g`'s copy as a call too."""
    session, _, plan = _plan_fixture("cross_site_types", "A.java", 3, "bump")
    every_copy = replace(plan, target_sites=(*plan.target_sites, *(site for site, _ in plan.left_alone)))
    errors = javac_errors(apply_extraction(every_copy, session.files, session.tokens).sources)
    assert "incompatible types: String cannot be converted to int" in errors


def test_a_comment_opened_after_the_closing_brace_does_not_swallow_the_new_method():
    source = """\
class C {
    int m0(int[] xs) {
        int total = 5;
        total = 0;
        total += xs.length;
        return total;
    } /* m0 ends here;
         m1 follows */
    int m1() {
        return 1;
    }
}
"""
    methods, classes = index_file(tokenize(source), "C.java")
    fragment = validate_fragment("total = 0;\ntotal += xs.length;")
    matches = find_duplicates(fragment, methods, 0.8)
    summary = analyze_extractability(fragment, methods[0], classes[0])
    plan = plan_extraction(
        summary, "reset", fragment, methods[0], classes[0], matches,
        {m.id: m for m in methods},
    )
    result = apply_extraction(plan, {"C.java": source})
    rewritten, _ = index_file(tokenize(result.sources["C.java"]), "C.java")
    assert [m.name for m in rewritten] == ["m0", "reset", "m1"]


def test_single_site_extraction_has_two_hunks():
    source = """\
class Solo {
    int go(int x) {
        int y = x + 1;
        y = y * 2;
        hint();
        hint();
        hint();
        hint();
        return y;
    }

    void hint() {
    }
}
"""
    methods, classes = index_file(tokenize(source), "Solo.java")
    files = {"Solo.java": source}
    fragment = validate_fragment("int y = x + 1;\ny = y * 2;")
    matches = find_duplicates(fragment, methods, 0.8)
    summary = analyze_extractability(fragment, methods[0], classes[0])
    plan = plan_extraction(
        summary, "twice", fragment, methods[0], classes[0], matches,
        {m.id: m for m in methods},
    )
    result = apply_extraction(plan, files)
    assert hunk_count(result.diff) == 2
    assert len(result.call_sites) == 1


def test_near_matches_are_never_rewritten():
    session = open_project(FIXTURES_DIR / "extract_demo" / "project")
    fragment = validate_fragment(
        (FIXTURES_DIR / "extract_demo" / "fragment.java").read_text()
    )
    host = session.method_at("Pipeline.java", 5)
    matches = find_duplicates(fragment, session.methods, 0.8)
    summary = analyze_extractability(fragment, host, host.owner)
    plan = plan_extraction(
        summary, "bundle", fragment, host, host.owner, matches, session.methods_by_id
    )
    assert all(m.kind == "exact" for m in matches if any(
        s.method_id == m.method_id for s in plan.target_sites
    ))
    near_ids = {m.method_id for m in matches if m.kind == "near"}
    assert near_ids.isdisjoint({s.method_id for s in plan.target_sites})


def test_stale_site_aborts_without_touching_sources():
    session, _, plan = _extract_demo()
    tampered = dict(session.files)
    tampered["Pipeline.java"] = tampered["Pipeline.java"].replace(
        "int out = 0;", "int out = 1;", 1
    )
    before = dict(tampered)
    with pytest.raises(StaleSite):
        apply_extraction(plan, tampered)
    assert tampered == before


@pytest.mark.parametrize(
    "moved",
    [
        "        total++; total = 0;\n        total += xs.length;\n        return total;",
        "\n        total = 0;\n        total += xs.length;\n        return total;",
    ],
    ids=["statement-before-on-its-line", "blank-line-before"],
)
def test_a_site_whose_run_moved_is_stale(moved):
    """The run's text is unchanged, but it no longer starts at the site's token on the site's line."""
    session, _, plan = _plan_fixture("shared_line", "A.java", 4, "reset")
    assert [s.start_line for s in plan.target_sites] == [4, 12, 18]
    tampered = dict(session.files)
    tampered["A.java"] = tampered["A.java"].replace(
        "        total = 0;\n        total += xs.length;\n        return total;", moved, 1
    )
    assert tampered != session.files
    before = dict(tampered)
    with pytest.raises(StaleSite):
        apply_extraction(plan, tampered)
    assert tampered == before


STALE_STORE = """\
class S {
    int f(int[] xs) {
        int n = 0;
        n += xs.length;
        return n;
    }

    int g(int[] xs) {
        int n = 0;
        n += xs.length;
        return n;
    }
}
"""


def test_tokens_of_another_text_are_not_trusted(tmp_path):
    """Stored tokens whose text is not the source being rewritten would place every site one line off."""
    session = open_project(write_project(tmp_path / "p", {"S.java": STALE_STORE}))
    fragment = validate_fragment("int n = 0;\nn += xs.length;")
    host = session.method_at("S.java", 3)
    matches = find_duplicates(fragment, session.methods, 0.8, session.index)
    summary = analyze_extractability(fragment, host, host.owner)
    plan = plan_extraction(summary, "start", fragment, host, host.owner, matches, session.methods_by_id)
    assert [s.start_line for s in plan.target_sites] == [3, 9]
    sources = {"S.java": "// a comment line\n" + STALE_STORE}
    before = dict(sources)
    with pytest.raises(StaleSite):
        apply_extraction(plan, sources, session.tokens)
    assert sources == before


@pytest.mark.parametrize(
    "sources, message",
    [
        ({}, r"^S\.java is missing$"),
        ({"S.java": STALE_STORE + "/* never closed"}, r"^S\.java no longer lexes: "),
    ],
    ids=["missing", "unlexable"],
)
def test_a_site_file_that_is_gone_or_no_longer_lexes_is_stale(tmp_path, sources, message):
    session = open_project(write_project(tmp_path / "p", {"S.java": STALE_STORE}))
    fragment = validate_fragment("int n = 0;\nn += xs.length;")
    host = session.method_at("S.java", 3)
    matches = find_duplicates(fragment, session.methods, 0.8, session.index)
    summary = analyze_extractability(fragment, host, host.owner)
    plan = plan_extraction(summary, "start", fragment, host, host.owner, matches, session.methods_by_id)
    with pytest.raises(StaleSite, match=message):
        apply_extraction(plan, sources, session.tokens)


@pytest.mark.parametrize("line_end", ["\r", "\r\n"], ids=["lone-cr", "crlf"])
def test_carriage_return_sources_are_refused_by_name(tmp_path, line_end):
    """Sites are placed on the newline-normalized lex; a `\r` source would be cut at the wrong offsets."""
    session = open_project(write_project(tmp_path / "p", {"S.java": STALE_STORE}))
    fragment = validate_fragment("int n = 0;\nn += xs.length;")
    host = session.method_at("S.java", 3)
    matches = find_duplicates(fragment, session.methods, 0.8, session.index)
    summary = analyze_extractability(fragment, host, host.owner)
    plan = plan_extraction(summary, "start", fragment, host, host.owner, matches, session.methods_by_id)
    sources = {"S.java": STALE_STORE.replace("\n", line_end)}
    before = dict(sources)
    with pytest.raises(EngineError, match="S.java"):
        apply_extraction(plan, sources)
    assert sources == before


def test_extraction_adds_exactly_one_method_and_still_lexes():
    session, _, plan = _extract_demo()
    result = apply_extraction(plan, session.files)
    methods_after, _ = index_file(tokenize(result.sources["Pipeline.java"]), "Pipeline.java")
    assert len(methods_after) == len(session.methods) + 1
    assert "bundle" in {m.name for m in methods_after}


def test_inlining_round_trip_verifies_both_sites():
    session, _, plan = _extract_demo()
    result = apply_extraction(plan, session.files)
    verdict = verify_by_inlining(plan, session.files, result.sources, result)
    assert verdict.all_equivalent
    assert len(verdict.sites) == 2


def test_apply_and_inlining_lex_each_file_once(monkeypatch):
    session, _, plan = _extract_demo()
    paths = {site.file_path for site in plan.target_sites}
    assert len(plan.target_sites) > len(paths)
    lexed = count_lexing(monkeypatch)
    result = apply_extraction(plan, session.files)
    assert lexed == [session.files[path] for path in paths]
    lexed.clear()
    assert verify_by_inlining(plan, session.files, result.sources, result).all_equivalent
    expected = [session.files[p] for p in paths] + [result.sources[p] for p in paths]
    assert sorted(lexed) == sorted(expected)
    # With the session's stored tokens, apply lexes nothing.
    lexed.clear()
    assert apply_extraction(plan, session.files, session.tokens) == result
    assert lexed == []


def test_corrupted_argument_order_is_caught_by_inlining():
    session, fragment, plan = _extract_demo()
    summary_host = session.method_at("Pipeline.java", 5)
    # Rebuild a two-parameter plan so argument order can actually be wrong.
    source = """\
class Pair {
    int mix(int a, int b) {
        int c = a - b;
        c = c * a;
        use(c);
        use(c);
        use(c);
        use(c);
        return c;
    }

    void use(int v) {
    }
}
"""
    methods, classes = index_file(tokenize(source), "Pair.java")
    files = {"Pair.java": source}
    frag = validate_fragment("int c = a - b;\nc = c * a;")
    matches = find_duplicates(frag, methods, 0.8)
    summary = analyze_extractability(frag, methods[0], classes[0])
    plan = plan_extraction(
        summary, "fold", frag, methods[0], classes[0], matches,
        {m.id: m for m in methods},
    )
    assert [p.name for p in plan.parameter_list] == ["a", "b"]
    corrupted = replace(plan, call_statement="int c = fold(b, a);")
    result = apply_extraction(corrupted, files)
    verdict = verify_by_inlining(corrupted, files, result.sources, result)
    assert not verdict.all_equivalent
    assert len(verdict.mismatches) == len(verdict.sites)


def test_apply_is_all_or_nothing_on_returned_mapping():
    session, _, plan = _extract_demo()
    original = dict(session.files)
    result = apply_extraction(plan, session.files)
    assert session.files == original  # input mapping untouched
    assert result.sources != original


# --- token-exact sites on packed lines ------------------------------------------

PACKED_FRAGMENT = "total = 0;\ntotal += xs.length;"
_FILLERS = ("g(xs);", "total *= 2;", "xs[0] = total;", "if (total > 1) { total--; }")


def _packed_class(planted: list[bool], fillers: list[tuple[list[str], list[str]]], layout: list[int]) -> str:
    """Methods m0, m1, ... whose pieces are packed `layout[k]` to line k, cycling.

    A method's pieces are its header, each statement and its closing
    brace; method i holds the fragment's two statements when planted[i].
    """
    pieces: list[str] = []
    for i, (plant, (before, after)) in enumerate(zip(planted, fillers)):
        body = [*before, *PACKED_FRAGMENT.split("\n")] if plant else before
        pieces += [f"int m{i}(int[] xs) {{", f"int total = {i + 5};", *body, *after, "return total;", "}"]
    lines = []
    for width in cycle(layout):
        if not pieces:
            break
        lines.append("    " + " ".join(pieces[:width]))
        del pieces[:width]
    return "class Gen {\n" + "\n".join(lines) + "\n}\n"


def _undo_extraction(plan, rewritten: str) -> tuple[str, ...]:
    """The rewritten tokens without the new method, each call's tokens replaced by the fragment's."""
    texts = tokenize(rewritten).texts
    method = tokenize(f"{plan.signature} {{ {plan.body_text} }}").texts
    at = find_subsequence(texts, method, 0, len(texts))
    assert at >= 0
    texts = texts[:at] + texts[at + len(method) :]
    call = tokenize(plan.call_statement).texts
    undone: list[str] = []
    k = 0
    while k < len(texts):
        if texts[k : k + len(call)] == call:
            undone += plan.fragment.tokens.texts
            k += len(call)
        else:
            undone.append(texts[k])
            k += 1
    return tuple(undone)


_FILLER_LISTS = st.lists(st.sampled_from(_FILLERS), max_size=2)


@settings(deadline=None)
@given(
    st.lists(st.booleans(), max_size=3),
    st.lists(st.tuples(_FILLER_LISTS, _FILLER_LISTS), min_size=4, max_size=4),
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
)
# Two one-line methods on one line, both holding the fragment.
@example([True], [([], [])] * 4, [12])
# The fragment after another statement on the paste line, and before one on its last.
@example([], [(["g(xs);"], ["total *= 2;"])] * 4, [2, 1, 2])
# m0's closing brace shares its line with m1's header.
@example([True], [([], [])] * 4, [1, 1, 1, 1, 1, 2, 1])
def test_every_exact_site_on_packed_lines_is_rewritten_and_inlines_back(more, fillers, layout):
    planted = [True, *more]
    source = _packed_class(planted, fillers, layout)
    methods, classes = index_file(tokenize(source), "Gen.java")
    files = {"Gen.java": source}
    fragment = validate_fragment(PACKED_FRAGMENT)
    matches = find_duplicates(fragment, methods, 0.8)
    exact = {m.method_id for m in matches if m.kind == EXACT}
    assert {m.name for m in methods if m.id in exact} == {f"m{i}" for i, p in enumerate(planted) if p}
    host = next(m for m in methods if m.name == "m0")
    summary = analyze_extractability(fragment, host, classes[0])
    plan = plan_extraction(
        summary, "reset", fragment, host, classes[0], matches, {m.id: m for m in methods}
    )
    result = apply_extraction(plan, files)
    assert {s.method_id for s in plan.target_sites} == exact
    assert len(result.call_sites) == len(exact)
    verdict = verify_by_inlining(plan, files, result.sources, result)
    assert verdict.all_equivalent and len(verdict.sites) == len(exact)
    assert _undo_extraction(plan, result.sources["Gen.java"]) == tokenize(source).texts
    # The new method is a member of the class, not a statement in another method.
    rewritten, _ = index_file(tokenize(result.sources["Gen.java"]), "Gen.java")
    assert sorted(m.name for m in rewritten) == sorted([*(m.name for m in methods), "reset"])
    assert all(m.owner.class_name == "Gen" for m in rewritten)
