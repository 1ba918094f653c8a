from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anticopypaster.clones import (
    CloneMatch,
    find_duplicates,
    find_subsequence,
    normalize_bag,
    overlap_similarity,
)
from anticopypaster.errors import UndefinedSimilarity
from anticopypaster.lexer import TokenKind, token_texts, tokenize
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import write_project


def bag_of(source: str):
    return normalize_bag(tokenize(source))


def test_bags_ignore_token_order():
    assert bag_of("a + b") == bag_of("b + a")


def test_bags_ignore_whitespace():
    assert bag_of("a+b") == bag_of("a + b")


def test_bags_count_multiplicity():
    bag = bag_of("x x")
    assert dict(bag.counts) == {"x": 2}
    assert bag.total_count == 2


def test_bags_exclude_punctuation_but_keep_operators():
    bag = bag_of("f(a, b[0]);")
    assert set(dict(bag.counts)) == {"f", "a", "b", "0"}


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
    return index_file(FIVE_METHODS, "Five.java")[0]


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
    frag_bag = normalize_bag(fragment.tokens)
    m5 = next(m for m in _methods() if m.name == "m5")
    expected = overlap_similarity(frag_bag, normalize_bag(m5.body_tokens))
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
    """O(methods x body-length) oracle: scan every offset, then bag overlap."""
    frag_seq = token_texts(fragment.tokens)
    frag_counter = Counter(
        t.text for t in fragment.tokens if t.kind != TokenKind.PUNCTUATION
    )
    results = []
    for method in sorted(methods, key=lambda m: m.id):
        body = method.body_tokens
        body_seq = token_texts(body)
        hit = None
        for start in range(0, len(body_seq) - len(frag_seq) + 1):
            if body_seq[start : start + len(frag_seq)] == frag_seq:
                hit = (body[start].line, body[start + len(frag_seq) - 1].line)
                break
        if hit is not None:
            results.append(CloneMatch(method.id, 1.0, "exact", hit))
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


@pytest.mark.parametrize("theta", [0.3, 0.8, 1.0])
def test_find_duplicates_agrees_with_brute_force(theta):
    for source in ("int t = v + 1;\nt = t * 2;", "int w = v + 1;\nreturn w;", "g();"):
        fragment = validate_fragment(source)
        assert find_duplicates(fragment, _methods(), theta) == brute_force_duplicates(
            fragment, _methods(), theta
        )


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


@given(
    _BODIES,
    st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=3),
    st.sampled_from([0.25, 0.5, 0.75, 0.8, 1.0]),
)
# Bag sizes 4 and 5 at 0.8: min/max equals the threshold, a near match.
@example([["g(a, b, c, f);"]], ["f(a, b, c);"], 0.8)
@example([["f(a, b, c);"]], ["g(a, b, c, f);"], 0.8)
@example([["a = b + c;"], ["f(a);", "a = b;"]], ["a = b + c;"], 1.0)
@example([[";"], []], [";"], 0.5)
def test_filtered_scan_agrees_with_brute_force_on_generated_projects(bodies, statements, theta):
    methods = index_file(_class_of(bodies), "Gen.java")[0]
    fragment = validate_fragment("\n".join(statements))
    assert fragment.valid
    assert find_duplicates(fragment, methods, theta) == brute_force_duplicates(
        fragment, methods, theta
    )


def _fingerprints(methods) -> list[tuple]:
    return [(m.id, m.body_texts, m.bag, m.bag_size) for m in methods]


def _assert_fingerprints_fresh(methods) -> None:
    for method in methods:
        words = [t.text for t in method.body_tokens if t.kind != TokenKind.PUNCTUATION]
        assert method.body_texts == tuple(t.text for t in method.body_tokens)
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
    bag_a = normalize_bag(a.tokens)
    bag_b = normalize_bag(b.tokens)
    for method in methods:
        body = normalize_bag(method.body_tokens)
        assert overlap_similarity(bag_a, body) == overlap_similarity(bag_b, body)


def test_find_subsequence_basics():
    assert find_subsequence(("a", "b", "c", "b", "c"), ("b", "c")) == 1
    assert find_subsequence(("a", "b"), ("b", "a")) == -1
    assert find_subsequence(("a",), ()) == -1
