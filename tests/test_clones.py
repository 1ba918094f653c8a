from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticopypaster.clones import (
    EXACT,
    NEAR,
    CloneMatch,
    WordIndex,
    find_duplicates,
    find_subsequence,
    overlap_similarity,
)
from anticopypaster.errors import UndefinedSimilarity
from anticopypaster.lexer import TokenKind, token_bag, tokenize
from anticopypaster.settings import CONFIG_FILENAME
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import body_texts, body_tokens, write_project


def bag_of(source: str):
    return token_bag(tokenize(source).texts)


def test_bags_ignore_token_order():
    assert bag_of("a + b") == bag_of("b + a")


def test_bags_ignore_whitespace():
    assert bag_of("a+b") == bag_of("a + b")


def test_bags_count_multiplicity():
    bag = bag_of("x x")
    assert dict(bag) == {"x": 2}
    assert bag.total() == 2


def test_bags_exclude_punctuation_but_keep_operators():
    bag = bag_of("f(a, b[0]);")
    assert set(bag) == {"f", "a", "b", "0"}


def test_overlap_of_identical_bags_is_one():
    assert overlap_similarity(bag_of("a + b"), bag_of("a + b")) == 1.0


def test_overlap_of_disjoint_bags_is_zero():
    assert overlap_similarity(bag_of("a b c"), bag_of("d e f")) == 0.0


def test_overlap_uses_max_size_denominator():
    # |a|=4, |b|=2, shared 2 -> 0.5
    assert overlap_similarity(bag_of("p q r s"), bag_of("p q")) == 0.5


def test_overlap_of_two_empty_bags_is_undefined():
    with pytest.raises(UndefinedSimilarity):
        overlap_similarity(bag_of(";"), bag_of(";"))


_TOKEN_WORDS = st.lists(
    st.sampled_from(["a", "b", "c", "x", "1", "+", "foo"]), min_size=1, max_size=12
)


@given(_TOKEN_WORDS, _TOKEN_WORDS)
def test_overlap_is_symmetric_and_bounded(words_a, words_b):
    a = bag_of(" ".join(words_a))
    b = bag_of(" ".join(words_b))
    s_ab = overlap_similarity(a, b)
    s_ba = overlap_similarity(b, a)
    assert s_ab == s_ba
    assert 0.0 <= s_ab <= 1.0
    assert (s_ab == 1.0) == (a == b)


@given(_TOKEN_WORDS, st.randoms())
def test_permuting_tokens_never_changes_the_bag(words, rng):
    shuffled = list(words)
    rng.shuffle(shuffled)
    assert bag_of(" ".join(words)) == bag_of(" ".join(shuffled))


FIVE_METHODS = """\
class Five {
    int m1(int v) {
        int t = v + 1;
        t = t * 2;
        return t;
    }

    int m2(int v) {
        int t = v + 1;
        t = t * 2;
        return t + 5;
    }

    int m3(int v) {
        return v;
    }

    int m4(int v) {
        int u = v + 9;
        return u;
    }

    int m5(int v) {
        int t = v + 1;
        return t;
    }
}
"""


def _methods():
    return index_file(tokenize(FIVE_METHODS), "Five.java")[0]


def test_verbatim_fragment_matches_exactly_in_two_methods():
    fragment = validate_fragment("int t = v + 1;\nt = t * 2;")
    matches = find_duplicates(fragment, _methods(), 0.8)
    exact = [m for m in matches if m.kind == "exact"]
    assert len(exact) == 2
    assert {m.method_id.split(":")[-1] for m in exact} == {"m1", "m2"}
    assert all(m.similarity == 1.0 and m.match_span is not None for m in exact)


def test_single_host_yields_single_match():
    fragment = validate_fragment("int u = v + 9;")
    matches = find_duplicates(fragment, _methods(), 0.8)
    assert len(matches) == 1
    assert matches[0].kind == "exact"


def test_renamed_identifier_is_a_near_match_with_bag_similarity():
    # m5's body with t renamed to w: overlap computed by the bag formula.
    fragment = validate_fragment("int w = v + 1;\nreturn w;")
    matches = find_duplicates(fragment, _methods(), 0.5)
    per_method = {m.method_id.split(":")[-1]: m for m in matches}
    assert per_method["m5"].kind == "near"
    frag_bag = token_bag(fragment.tokens.texts)
    m5 = next(m for m in _methods() if m.name == "m5")
    expected = overlap_similarity(frag_bag, token_bag(body_texts(m5)))
    assert per_method["m5"].similarity == expected


def test_exact_wins_over_near_for_the_same_method():
    fragment = validate_fragment("int t = v + 1;\nreturn t;")
    matches = find_duplicates(fragment, _methods(), 0.1)
    kinds = {m.method_id.split(":")[-1]: m.kind for m in matches}
    assert kinds["m5"] == "exact"


def test_results_are_ordered_by_method_id():
    fragment = validate_fragment("int t = v + 1;")
    matches = find_duplicates(fragment, _methods(), 0.2)
    ids = [m.method_id for m in matches]
    assert ids == sorted(ids)


def test_match_span_points_at_the_cloned_lines():
    fragment = validate_fragment("int t = v + 1;\nt = t * 2;")
    matches = find_duplicates(fragment, _methods(), 0.8)
    m1 = next(m for m in matches if m.method_id.endswith(":m1"))
    assert m1.match_span == (3, 4)


def brute_force_duplicates(fragment, methods, theta) -> list[CloneMatch]:
    """O(methods x body-length) oracle: scan every offset, then bag overlap.

    An exact match reports its run's first token as an index into the method's file.
    """
    frag_seq = fragment.tokens.texts
    frag_counter = Counter(
        t.text for t in fragment.tokens if t.kind != TokenKind.PUNCTUATION
    )
    results = []
    for method in sorted(methods, key=lambda m: m.id):
        body = body_tokens(method)
        body_seq = body.texts
        hit = None
        for start in range(0, len(body_seq) - len(frag_seq) + 1):
            if body_seq[start : start + len(frag_seq)] == frag_seq:
                hit = (body[start].line, body[start + len(frag_seq) - 1].line)
                token = method.body[0] + start
                assert method.tokens.texts[token : token + len(frag_seq)] == frag_seq
                break
        if hit is not None:
            results.append(CloneMatch(method.id, 1.0, "exact", hit, token))
            continue
        body_counter = Counter(
            t.text for t in body if t.kind != TokenKind.PUNCTUATION
        )
        denom = max(sum(frag_counter.values()), sum(body_counter.values()))
        if denom == 0:
            continue
        shared = sum((frag_counter & body_counter).values())
        similarity = shared / denom
        if similarity >= theta:
            results.append(CloneMatch(method.id, similarity, "near", None))
    return results


# Overloads whose bodies start on one line; each gets its own id and match.
ONE_LINE_OVERLOADS = "class O { void a() { g(); } void a(int y) { g(); } }\n"


@pytest.mark.parametrize("theta", [0.3, 0.8, 1.0])
def test_find_duplicates_agrees_with_brute_force(theta):
    overloads = index_file(tokenize(ONE_LINE_OVERLOADS), "O.java")[0]
    assert len({m.id for m in overloads}) == 2
    # Holds one method more than the scan is offered.
    wider = WordIndex(overloads + index_file(tokenize("class P { void p() { g(); } }\n"), "P.java")[0])
    for methods, index in ((_methods(), None), (overloads, None), (overloads, wider)):
        for source in ("int t = v + 1;\nt = t * 2;", "int w = v + 1;\nreturn w;", "g();"):
            fragment = validate_fragment(source)
            assert find_duplicates(fragment, methods, theta, index) == brute_force_duplicates(
                fragment, methods, theta
            )
    assert len(find_duplicates(validate_fragment("g();"), overloads, theta)) == 2


# Statements whose bags hold 0 to 7 words, so generated bodies and
# fragments land on both sides of every size-filter boundary.
_STATEMENTS = (
    ";",
    "f(a);",
    "f(a, b, c);",
    "g(a, b, c, f);",
    "a = b;",
    "a = b + c;",
    "return a;",
    "x++;",
    "if (a > b) { a = b; }",
)
_BODIES = st.lists(st.lists(st.sampled_from(_STATEMENTS), max_size=5), min_size=1, max_size=6)


def _class_of(bodies: list[list[str]]) -> str:
    methods = "".join(
        f"    void m{i}() {{\n" + "".join(f"        {s}\n" for s in body) + "    }\n"
        for i, body in enumerate(bodies)
    )
    return "class Gen {\n" + methods + "}\n"


# Saves applied to the session before the scan: (file, its new methods,
# or None to delete it). File 0 is Gen.java, the paste's own file.
_SAVES = st.lists(st.tuples(st.integers(0, 2), st.none() | _BODIES), max_size=3)


@settings(deadline=None)
@given(
    _BODIES,
    _SAVES,
    st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=3),
    st.sampled_from([0.25, 0.5, 0.75, 0.8, 1.0]),
    st.sampled_from(["project", "file"]),
)
# Bag sizes 4 and 5 at 0.8: min/max equals the threshold, a near match.
@example([["g(a, b, c, f);"]], [], ["f(a, b, c);"], 0.8, "project")
@example([["f(a, b, c);"]], [], ["g(a, b, c, f);"], 0.8, "project")
@example([["a = b + c;"], ["f(a);", "a = b;"]], [], ["a = b + c;"], 1.0, "project")
# Punctuation only: no word to look up, so every method is searched.
@example([[";"], []], [], [";"], 0.5, "project")
# No fragment word occurs in the project.
@example([["x++;"]], [], ["f(a);"], 0.25, "project")
# After f and a, the untaken words x and ++ are exactly 0.5 of the
# fragment, and m1 (x++ alone) is a near match at exactly 0.5.
@example([["f(a);"], ["x++;"]], [], ["f(a);", "x++;"], 0.5, "project")
# Another file holds the fragment verbatim; the file scope excludes it.
@example([["a = b;"]], [(1, [["a = b;"]])], ["a = b;"], 0.8, "file")
def test_filtered_scan_agrees_with_brute_force_on_generated_projects(bodies, saves, statements, theta, scope):
    fragment = validate_fragment("\n".join(statements))
    methods = index_file(tokenize(_class_of(bodies)), "Gen.java")[0]
    assert find_duplicates(fragment, methods, theta) == brute_force_duplicates(
        fragment, methods, theta
    )
    # The same scan through a session's index, kept up to date across saves.
    config = json.dumps({"searchScope": scope})
    with tempfile.TemporaryDirectory() as tmp:
        session = open_project(
            write_project(Path(tmp), {"Gen.java": _class_of(bodies), CONFIG_FILENAME: config})
        )
        for pick, new_bodies in saves:
            path = "Gen.java" if pick == 0 else f"Other{pick}.java"
            session.apply_edit(path, None if new_bodies is None else _class_of(new_bodies))
        searched = session.search_methods("Gen.java")
        in_scope = [m for m in session.methods if scope == "project" or m.file_path == "Gen.java"]
        assert searched == in_scope
        expected = brute_force_duplicates(fragment, searched, theta)
        assert find_duplicates(fragment, searched, theta, session.index) == expected
        assert find_duplicates(fragment, searched, theta) == expected


def _fingerprints(methods) -> list[tuple]:
    return [(m.id, body_texts(m), m.bag, m.bag_size) for m in methods]


def _assert_fingerprints_fresh(methods) -> None:
    for method in methods:
        words = [t.text for t in body_tokens(method) if t.kind != TokenKind.PUNCTUATION]
        assert body_texts(method) == tuple(t.text for t in body_tokens(method))
        assert method.bag == Counter(words)
        assert method.bag_size == len(words)


def test_fingerprints_after_edits_equal_fresh_ones(tmp_path):
    files = {"Five.java": FIVE_METHODS, "Gen.java": _class_of([["f(a);"]])}
    session = open_project(write_project(tmp_path / "p", files))
    _assert_fingerprints_fresh(session.methods)
    session.apply_edit("Five.java", FIVE_METHODS.replace("return v;", "return v + v * 3;"))
    session.apply_edit("Gen.java", _class_of([["a = b + c;", "x++;"], [], ["return a;"]]))
    session.apply_edit("New.java", _class_of([["g(a, b, c, f);"]]))
    _assert_fingerprints_fresh(session.methods)
    fresh = open_project(write_project(tmp_path / "fresh", session.files))
    assert _fingerprints(session.methods) == _fingerprints(fresh.methods)


def test_statement_permutation_keeps_near_similarity():
    a = validate_fragment("x = p + 1;\ny = q + 2;")
    b = validate_fragment("y = q + 2;\nx = p + 1;")
    methods = _methods()
    bag_a = token_bag(a.tokens.texts)
    bag_b = token_bag(b.tokens.texts)
    for method in methods:
        body = token_bag(body_texts(method))
        assert overlap_similarity(bag_a, body) == overlap_similarity(bag_b, body)


def test_a_short_method_early_in_the_file_does_not_match_a_later_copy():
    """The fragment is longer than m's body but its bag fits in m's bag."""
    source = "class S {\n    int x;\n    int m() { return x; }\n    int n() { return ((((((((((x)))))))))); }\n}\n"
    methods = index_file(tokenize(source), "S.java")[0]
    matches = find_duplicates(validate_fragment("return ((((((((((x))))))))));"), methods, 0.9)
    assert [(m.method_id, m.kind, m.match_span) for m in matches] == [
        ("S.java:3:m", NEAR, None),
        ("S.java:4:n", EXACT, (4, 4)),
    ]


def test_find_subsequence_basics():
    texts = ("a", "b", "c", "b", "c")
    assert find_subsequence(texts, ("b", "c"), 0, 5) == 1
    assert find_subsequence(texts, ("b", "c"), 2, 5) == 3
    assert find_subsequence(texts, ("b", "c"), 2, 4) == -1
    assert find_subsequence(("a", "b"), ("b", "a"), 0, 2) == -1
    assert find_subsequence(("a",), (), 0, 1) == -1
    # A needle longer than the range must not be looked for past hi.
    assert find_subsequence(("a", "b", "x", "a", "b", "c"), ("a", "b", "c"), 0, 1) == -1
