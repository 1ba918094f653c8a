from __future__ import annotations

from dataclasses import replace

import pytest

from anticopypaster.clones import find_duplicates
from anticopypaster.errors import (
    IllegalFlow,
    InvalidIdentifier,
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
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import FIXTURES_DIR, GOLDEN_DIR, count_lexing

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
    methods, classes = index_file(FLOW_SOURCE, "Flow.java")
    return methods[0], classes[0]


def test_reads_become_inputs_and_later_reads_become_outputs():
    host, owner = _flow()
    fragment = validate_fragment("y = x * 2;\nseen++;")
    summary = analyze_extractability(fragment, host, owner)
    assert [p.name for p in summary.inputs] == ["y", "x"]
    assert [p.name for p in summary.outputs] == ["y"]
    assert summary.feasible
    assert not summary.output_declared_inside


def test_self_contained_fragment_has_no_inputs_or_outputs():
    host, owner = _flow()
    fragment = validate_fragment("int z = 1;\nz++;")
    summary = analyze_extractability(fragment, host, owner)
    assert summary.inputs == ()
    assert summary.outputs == ()
    assert summary.feasible


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
    (host,), (owner,) = index_file(source, "Two.java")
    fragment = validate_fragment("int a = x + 1;\nint b = x + 2;")
    summary = analyze_extractability(fragment, host, owner)
    assert [p.name for p in summary.outputs] == ["a", "b"]
    assert not summary.feasible
    with pytest.raises(TooManyOutputs):
        plan_extraction(summary, "helper", fragment, host, owner, [], {})


def test_return_inside_fragment_is_illegal_flow():
    host, owner = _flow()
    fragment = validate_fragment("z++;\nreturn y;")
    summary = analyze_extractability(fragment, host, owner)
    assert any("return" in v for v in summary.illegal_flow)
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
    methods, classes = index_file(source, "Loops.java")
    fragment = validate_fragment(
        "for (int x : xs) {\n    if (x < 0) {\n        break;\n    }\n}"
    )
    summary = analyze_extractability(fragment, methods[0], classes[0])
    assert summary.illegal_flow == ()


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
    methods, classes = index_file(source, "Bare.java")
    fragment = validate_fragment("mark();\nbreak;")
    summary = analyze_extractability(fragment, methods[0], classes[0])
    assert any("break" in v for v in summary.illegal_flow)


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
    (host, _), (owner,) = index_file(source, "Fresh.java")
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
    for bad in ("1abc", "a-b", "class", ""):
        with pytest.raises(InvalidIdentifier):
            plan_extraction(summary, bad, fragment, host, owner, [], {})


# --- application and round trip -----------------------------------------------

def _extract_demo():
    session = open_project(FIXTURES_DIR / "extract_demo" / "project")
    fragment_text = (FIXTURES_DIR / "extract_demo" / "fragment.java").read_text()
    fragment = validate_fragment(fragment_text)
    host = session.method_at("Pipeline.java", 5)
    matches = find_duplicates(fragment, session.methods, 0.8)
    summary = analyze_extractability(fragment, host, host.owner)
    plan = plan_extraction(
        summary, "bundle", fragment, host, host.owner, matches, session.methods_by_id
    )
    return session, fragment, plan


def test_two_site_extraction_matches_the_golden_diff():
    session, _, plan = _extract_demo()
    result = apply_extraction(plan, session.files)
    golden = (GOLDEN_DIR / "extract_two_sites.diff").read_text(encoding="utf-8")
    assert result.diff == golden
    assert hunk_count(result.diff) == 3


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
    methods, classes = index_file(source, "Solo.java")
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


def test_extraction_adds_exactly_one_method_and_still_lexes():
    session, _, plan = _extract_demo()
    result = apply_extraction(plan, session.files)
    methods_after, _ = index_file(result.sources["Pipeline.java"], "Pipeline.java")
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
    methods, classes = index_file(source, "Pair.java")
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
