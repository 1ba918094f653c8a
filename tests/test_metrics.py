from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anticopypaster.errors import EmptyDistribution, InvalidFragment, InvalidSensitivity
from anticopypaster.metrics import (
    CATEGORIES,
    CONFIGURABLE_KEYWORDS,
    KEYWORD_CATALOGUE,
    Submetric,
    build_distributions,
    compute_vector,
    coupling_counts,
    method_vector,
    percentile_threshold,
    thresholds_for,
    update_distributions,
)
from anticopypaster.lexer import token_bag, tokenize
from anticopypaster.source_model import (
    ClassContext,
    MethodUnit,
    index_file,
    local_declarations,
    method_declarations,
    validate_fragment,
)
from anticopypaster.workspace import open_project

from helpers import (
    CORPUS_DIR,
    FIXTURES_DIR,
    GOLDEN_DIR,
    body_tokens,
    candidate_declarations,
    count_calls,
    declarations_in_scope,
    declarations_of,
    fresh_distributions,
    full_scan_vector,
    statement_starts,
    token_walk_coupling,
)

GUARDED = "if (x > 0) {\n    sum += x;\n}"

OWNER_SOURCE = """\
class Owner {
    private int sum;

    void host(int x) {
        sum += x;
    }

    void helper() {
    }
}
"""


def _owner_methods():
    return index_file(tokenize(OWNER_SOURCE), "Owner.java")[0]


def test_keyword_catalogue_has_exactly_31_entries():
    assert len(CONFIGURABLE_KEYWORDS) == 31
    assert len(KEYWORD_CATALOGUE) == 31
    assert {"if", "strictfp", "this", "super"} <= KEYWORD_CATALOGUE
    assert {"public", "private", "static", "void"} & KEYWORD_CATALOGUE == set()


def _vector(text: str, keywords: frozenset[str] = KEYWORD_CATALOGUE):
    methods = _owner_methods()
    return compute_vector(validate_fragment(text), methods[0], keywords)


def _pick(vector, *submetrics: Submetric) -> tuple:
    return tuple(vector[m] for m in submetrics)


KEYWORD = (Submetric.KEYWORD_TOTAL, Submetric.KEYWORD_DENSITY)
FIELD = (Submetric.COUPLING_TOTAL_FIELD, Submetric.COUPLING_DENSITY_FIELD)
METHOD = (Submetric.COUPLING_TOTAL_METHOD, Submetric.COUPLING_DENSITY_METHOD)
TOTAL = (Submetric.COUPLING_TOTAL_TOTAL, Submetric.COUPLING_DENSITY_TOTAL)
SEGMENT_SIZE = (
    Submetric.SIZE_LINES_SEGMENT,
    Submetric.SIZE_SYMBOLS_SEGMENT,
    Submetric.SIZE_SYMBOL_DENSITY_SEGMENT,
)


def test_keyword_metrics_on_the_guarded_fragment():
    assert _pick(_vector(GUARDED), *KEYWORD) == (1, pytest.approx(1 / 3))


def test_keyword_metrics_with_disjoint_selection():
    assert _pick(_vector(GUARDED, frozenset({"for"})), *KEYWORD) == (0, 0)


def test_keyword_metrics_counts_repeats_across_lines():
    assert _pick(_vector("return x;\nreturn y;"), *KEYWORD) == (2, 1.0)


def test_empty_keyword_set_yields_zero_not_error():
    assert _pick(_vector(GUARDED, frozenset()), *KEYWORD) == (0, 0)


@given(st.sets(st.sampled_from(sorted(KEYWORD_CATALOGUE))))
def test_keyword_total_is_monotone_in_enabled_set(subset):
    text = "if (a) { return b; } else { while (c) { d++; } }"
    small = _vector(text, frozenset(subset))[Submetric.KEYWORD_TOTAL]
    grown = _vector(text, frozenset(subset) | {"if", "while"})[Submetric.KEYWORD_TOTAL]
    assert grown >= small


def test_field_connectivity_on_the_guarded_fragment():
    vector = _vector(GUARDED)
    assert _pick(vector, *FIELD) == (1, pytest.approx(1 / 3))
    assert _pick(vector, *METHOD) == (0, 0)
    assert _pick(vector, *TOTAL) == (1, pytest.approx(1 / 3))


def test_local_declaration_shadows_field():
    assert _pick(_vector("int sum = 0;\nsum++;"), *FIELD) == (0, 0)


def test_occurrence_before_the_declaration_still_counts():
    assert _vector("sum++;\nint sum = 0;")[Submetric.COUPLING_TOTAL_FIELD] == 1


def test_method_connectivity_counts_calls():
    vector = _vector("helper();")
    assert _pick(vector, *METHOD) == (1, 1.0)
    assert _pick(vector, *TOTAL) == (1, 1.0)


def test_complexity_of_guarded_fragment():
    total_area, area_density, method_area, depth_density = _pick(
        _vector(GUARDED),
        Submetric.COMPLEXITY_TOTAL_AREA,
        Submetric.COMPLEXITY_AREA_DENSITY,
        Submetric.COMPLEXITY_METHOD_AREA,
        Submetric.COMPLEXITY_METHOD_DEPTH_DENSITY,
    )
    assert total_area == 4
    assert area_density == pytest.approx(4 / 3)
    assert method_area == 1  # one flat body line
    assert depth_density == 1.0


def test_two_flat_lines_have_area_two():
    area = (Submetric.COMPLEXITY_TOTAL_AREA, Submetric.COMPLEXITY_AREA_DENSITY)
    assert _pick(_vector("a();\nb();"), *area) == (2, 1.0)


def test_size_of_guarded_fragment():
    lines, symbols, density = _pick(_vector(GUARDED), *SEGMENT_SIZE)
    assert (lines, symbols) == (3, 16)
    assert density == pytest.approx(16 / 3)


def test_size_of_single_statement():
    assert _pick(_vector("x = 1;"), *SEGMENT_SIZE) == (1, 4, 4.0)


def test_method_scope_size_ignores_the_fragment():
    # host body: "        sum += x;" -> 1 line, 7 symbols
    method_size = (
        Submetric.SIZE_LINES_METHOD,
        Submetric.SIZE_SYMBOLS_METHOD,
        Submetric.SIZE_SYMBOL_DENSITY_METHOD,
    )
    assert _pick(_vector(GUARDED), *method_size) == (1, 7, 7.0)


# --- distributions -----------------------------------------------------------

def test_sorted_sample_of_three_methods():
    source = """\
class S {
    void a() {
        f();
        f();
        f();
        f();
        f();
    }

    void b() {
        f();
        f();
    }

    void c() {
        f();
        f();
        f();
        f();
        f();
        f();
        f();
        f();
        f();
    }
}
"""
    methods, _ = index_file(tokenize(source), "S.java")
    dist = fresh_distributions(methods, KEYWORD_CATALOGUE)
    assert dist.samples[Submetric.SIZE_LINES_SEGMENT] == (2, 5, 9)
    assert dist.sample_size == 3


def test_empty_project_raises_empty_distribution():
    empty = fresh_distributions([], KEYWORD_CATALOGUE)
    assert empty.sample_size == 0
    assert set(empty.samples) == set(Submetric)
    assert not any(empty.samples.values())
    with pytest.raises(EmptyDistribution):
        thresholds_for(empty, {category: 50 for category in CATEGORIES})


def test_six_method_fixture_matches_golden_distribution():
    session = open_project(FIXTURES_DIR / "distribution_demo")
    assert len(session.methods) == 6
    dist = session.distribution
    # Hand-traced samples for three representative submetrics.
    assert dist.samples[Submetric.SIZE_LINES_SEGMENT] == (1, 2, 3, 4, 5, 8)
    assert dist.samples[Submetric.COMPLEXITY_TOTAL_AREA] == (1, 2, 3, 5, 6, 15)
    assert dist.samples[Submetric.KEYWORD_TOTAL] == (1, 1, 2, 2, 4, 4)
    payload = {
        "sampleSize": dist.sample_size,
        "samples": {m.value: list(dist.samples[m]) for m in Submetric},
    }
    serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    golden = (GOLDEN_DIR / "distribution_demo.json").read_text(encoding="utf-8")
    assert serialized == golden


def test_method_and_segment_scopes_coincide_for_whole_bodies():
    session = open_project(FIXTURES_DIR / "distribution_demo")
    for method in session.methods:
        vector = method_vector(method, KEYWORD_CATALOGUE)
        assert vector[Submetric.SIZE_LINES_SEGMENT] == vector[Submetric.SIZE_LINES_METHOD]
        assert (
            vector[Submetric.COMPLEXITY_TOTAL_AREA]
            == vector[Submetric.COMPLEXITY_METHOD_AREA]
        )


SHADOWED_SOURCE = """\
class S {
    int count;

    void f() {
        count++;
        {
            int count = 0;
            count++;
        }
        count++;
        {
            int count = 1;
        }
    }
}
"""


def test_method_vector_shadows_fields_from_the_first_local_declaration():
    (method,), _ = index_file(tokenize(SHADOWED_SOURCE), "S.java")
    assert method_vector(method, KEYWORD_CATALOGUE)[Submetric.COUPLING_TOTAL_FIELD] == 1


def test_method_vector_equals_its_body_measured_as_a_fragment():
    """The stored declarations give the coupling a fresh scan of the body gives."""
    roots = sorted(p for p in CORPUS_DIR.glob("*/project") if p.is_dir())
    roots += [FIXTURES_DIR / "distribution_demo", FIXTURES_DIR / "extract_demo"]
    methods = [(m, SHADOWED_SOURCE) for m in index_file(tokenize(SHADOWED_SOURCE), "S.java")[0]]
    for root in roots:
        session = open_project(root)
        methods += [(m, session.files[m.file_path]) for m in session.methods]
    compared = 0
    for method, text in methods:
        lines, (lo, hi) = method.tokens.lines, method.body
        if lines[lo - 1] == method.start_line or lines[hi] == method.end_line:
            continue
        body_lines = text.split("\n")[method.start_line - 1 : method.end_line]
        try:
            fragment = validate_fragment("\n".join(body_lines))
        except InvalidFragment:
            continue
        expected = compute_vector(fragment, method, KEYWORD_CATALOGUE)
        assert method_vector(method, KEYWORD_CATALOGUE) == expected, method.id
        compared += 1
    assert compared >= 20


# --- coupling and declarations against their token-walk oracles --------------

COUPLING_CASES = """\
class Cases {
    int x;
    int both;

    int both(int a) { return a; }

    void m() { }

    int host(int[] xs) {
        x = x + this.x;
        both(both);
        m /*c*/ (); m
            ();
        int y = x;
        int x = 2;
        x++;
        return y + below + x;
    }

    int below;
}
"""


def _stored_coupling(unit):
    return coupling_counts(unit.tokens, unit.body, unit.bag, unit.owner)


def test_coupling_counts_fields_below_shadowed_locals_and_split_calls():
    """`x` counts 4 times before its local shadows it, `both` twice, `below` once; 3 calls."""
    methods, _ = index_file(tokenize(COUPLING_CASES), "Cases.java")
    host = next(m for m in methods if m.name == "host")
    assert _stored_coupling(host) == (7, 3)
    for unit in methods:
        declared = local_declarations(unit.tokens, *unit.body)
        assert _stored_coupling(unit) == token_walk_coupling(unit.tokens, unit.body, unit.owner, declared)
        assert declarations_of(body_tokens(unit)) == candidate_declarations(body_tokens(unit))


def test_fields_initialized_by_calls_or_constructors_count_toward_coupling():
    """Fields are read whatever their initializer; `Math.max` does not make `max` a method of the class."""
    source = """\
class Counter {
    private int count = Math.max(1, 2);
    private final List<String> names = new ArrayList<>();
    private @Deprecated String s;

    int total(int[] xs) {
        count += xs.length;
        names.add(s);
        return count + max(xs);
    }

    int largest(int[] xs) {
        return xs.length;
    }
}
"""
    total, largest = index_file(tokenize(source), "Counter.java")[0]
    assert _stored_coupling(total) == (4, 0)
    assert _stored_coupling(largest) == (0, 0)


def test_coupling_and_declarations_equal_the_oracles_on_corpus_and_fixture_methods():
    """Each body is measured in its file and as a fragment's run, which starts at token 0 of its own tokens."""
    roots = sorted(p for p in CORPUS_DIR.glob("*/project") if p.is_dir())
    roots += sorted(p / "project" if (p / "project").is_dir() else p for p in FIXTURES_DIR.iterdir())
    compared = 0
    for root in roots:
        session = open_project(root)
        for unit in session.methods:
            tokens = body_tokens(unit)
            declared = declarations_of(tokens)
            assert declared == candidate_declarations(tokens), unit.id
            # The body's own declarations, moved to their indices in the file.
            lo = unit.body[0]
            in_file = {name: replace(d, token_index=d.token_index + lo) for name, d in declared.items()}
            # Where a fragment may start, each name means the declaration the block rule gives.
            for at in statement_starts(unit):
                assert method_declarations(unit, at) == declarations_in_scope(unit, at), (unit.id, at)
            assert unit.vector == full_scan_vector(unit, session.settings.keywords), unit.id
            expected = token_walk_coupling(unit.tokens, unit.body, unit.owner, in_file)
            assert _stored_coupling(unit) == expected, unit.id
            run = (0, len(tokens))
            assert coupling_counts(tokens, run, token_bag(tokens.texts), unit.owner) == expected, unit.id
            compared += 1
    assert compared >= 50


_OWNER = ClassContext("Gen", {"f", "both", "below"}, {"m", "both"})
_PIECES = [
    "int", "final", "long", "String", "List", "var", "f", "both", "below", "m", "x", "this",
    "for", "catch", "try", "new", "return", "1", "<", ">", ">>", ".", "...", "(", ")", "{", "}",
    "[", "]", ";", ",", "=", ":", "++",
]
_SEPARATORS = [" ", "\n", "\t", " /*c*/ ", ""]


@given(
    st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(_SEPARATORS)), max_size=30).map(
        lambda pairs: "".join(piece + gap for piece, gap in pairs)
    )
)
@example("f = f + 1; int f = 2; f++; return f;")
@example("both(both); both /*c*/ (1); both\n(f);")
@example("this.f = this.both; final long below = 1, x; x = below;")
@example("for (int f : xs) { f++; } try (R both = open()) { } catch (E f) { }")
@example("final")
@example("int")
@example("List<List<String>> f = null; String... both;")
@example("int[] f = xs; String[][] both, x[];")
# The declaration after the `;` inside the parens declares `f` before the outer one's second declarator does.
@example("int x = g(both; int f = 1), f; f++;")
def test_coupling_and_declarations_equal_the_oracles_on_generated_bodies(text):
    tokens = tokenize(text)
    declared = declarations_of(tokens)
    assert declared == candidate_declarations(tokens)
    body = (0, len(tokens))
    expected = token_walk_coupling(tokens, body, _OWNER, declared)
    assert coupling_counts(tokens, body, token_bag(tokens.texts), _OWNER) == expected


def _method_over(body: str, after: str) -> MethodUnit:
    """`void m()` of class _OWNER with the given body, followed in its file by `after`.

    The body's delimiters need not pair, and a stray one may pair in `after`.
    """
    tokens = tokenize("void m() {" + body + "}" + after)
    lo, hi = 5, len(tokens) - len(tokenize(after)) - 1
    assert tokens.texts[lo - 1] == "{" and tokens.texts[hi] == "}"
    bag = token_bag(tokens.texts[lo:hi])
    return MethodUnit(
        id="m", name="m", tokens=tokens, body=(lo, hi), start_line=1, end_line=1, owner=_OWNER,
        symbol_count=0, area=0, header=0, bag=bag, bag_size=bag.total(),
    )


@given(
    st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(_SEPARATORS)), max_size=30).map(
        lambda pairs: "".join(piece + gap for piece, gap in pairs)
    ),
    st.sampled_from(["", " )", ") ) ]", ") int f = 1;", "] ) both;"]),
)
@example("g(x, f); h(f, both);", "")
@example("String s = null, f = s;", "")
@example("int x, f = 1, both[] = {};", "")
@example("for (int f = 0; f < 1; f++) { }", "")
@example("for (final String f : xs) { }", "")
@example("try { } catch (E f) { }", "")
@example("try (R f = open()) { }", "")
@example("var f = 1;", "")
@example("int f[] = xs;", "")
@example("int[] f = xs;", "")
@example("String... f;", "")
@example("List<String> f;", "")
@example("List<List<String>> f;", "")
@example("A<B<C<D>>> f;", "")
@example("g(int f; m(", ") )")
@example("List<@A( String> x; f = 1;", ") > f;")
@example("m(f, (both) -> below);", ") int f = 1;")
def test_coupling_equals_the_token_walk_over_the_full_scan_on_generated_bodies(body, after):
    """Coupling counts what the token walk over every local declaration counts, stray parens and all,
    for a method's body and for the same tokens as a fragment, which starts at token 0 of its own;
    `method_declarations` of a method without parameters gives what the block rule gives."""
    unit = _method_over(body, after)
    lo, hi = unit.body
    declared = local_declarations(unit.tokens, lo, hi)
    assert _stored_coupling(unit) == token_walk_coupling(unit.tokens, unit.body, _OWNER, declared)
    for at in statement_starts(unit):
        assert method_declarations(unit, at) == declarations_in_scope(unit, at), at
    tokens = tokenize(body)
    run = (0, len(tokens))
    expected = token_walk_coupling(tokens, run, _OWNER, declarations_of(tokens))
    assert coupling_counts(tokens, run, token_bag(tokens.texts), _OWNER) == expected


@pytest.mark.parametrize(
    "text, reads, counts",
    [
        ("f = g(both); both(f);", 0, (4, 1)),
        # A fragment's run starts at token 0; the token before its first `f` is not its last `x`.
        ("f = 1; both = x", 0, (2, 0)),
        ("x = f; int f = 1; f++;", 1, (1, 0)),
        ("String s = null, f = s; both = f;", 1, (1, 0)),
        ("int f = 1; long both = f;", 1, (0, 0)),
    ],
)
def test_coupling_reads_the_declarations_once_and_only_where_a_field_may_be_declared(monkeypatch, text, reads, counts):
    calls = count_calls(monkeypatch, local_declarations)
    tokens = tokenize(text)
    assert coupling_counts(tokens, (0, len(tokens)), token_bag(tokens.texts), _OWNER) == counts
    assert len(calls) == reads


# --- percentile thresholds ---------------------------------------------------

def test_percentile_examples_on_one_to_ten():
    sample = tuple(range(1, 11))
    assert percentile_threshold(sample, 50) == 5
    assert percentile_threshold(sample, 100) == 10
    assert percentile_threshold(sample, 1) == 1


def test_percentile_rejects_bad_inputs():
    with pytest.raises(EmptyDistribution):
        percentile_threshold((), 50)
    with pytest.raises(InvalidSensitivity):
        percentile_threshold((1.0,), 0)
    with pytest.raises(InvalidSensitivity):
        percentile_threshold((1.0,), 101)


@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=120),
    st.integers(1, 100),
)
def test_percentile_matches_exact_fraction_oracle(values, sensitivity):
    sample = tuple(sorted(values))
    expected = sample[ceil(Fraction(sensitivity * len(sample), 100)) - 1]
    actual = percentile_threshold(sample, sensitivity)
    assert actual == expected
    assert actual in sample


@given(st.lists(st.integers(0, 50), min_size=1, max_size=60))
def test_percentile_is_monotone_in_sensitivity(values):
    sample = tuple(sorted(values))
    thresholds = [percentile_threshold(sample, s) for s in range(1, 101)]
    assert thresholds == sorted(thresholds)


# --- vector-level properties -------------------------------------------------

def _vector_fixture():
    methods = _owner_methods()
    fragment = validate_fragment(GUARDED)
    return compute_vector(fragment, methods[0], KEYWORD_CATALOGUE), fragment, methods[0]


def test_every_density_times_lines_equals_its_total():
    vector, fragment, host = _vector_fixture()
    pairs = [
        (Submetric.KEYWORD_DENSITY, Submetric.KEYWORD_TOTAL, fragment.line_count),
        (Submetric.COUPLING_DENSITY_TOTAL, Submetric.COUPLING_TOTAL_TOTAL, fragment.line_count),
        (Submetric.COUPLING_DENSITY_FIELD, Submetric.COUPLING_TOTAL_FIELD, fragment.line_count),
        (Submetric.COUPLING_DENSITY_METHOD, Submetric.COUPLING_TOTAL_METHOD, fragment.line_count),
        (Submetric.COMPLEXITY_AREA_DENSITY, Submetric.COMPLEXITY_TOTAL_AREA, fragment.line_count),
        (Submetric.COMPLEXITY_METHOD_DEPTH_DENSITY, Submetric.COMPLEXITY_METHOD_AREA, host.line_count),
        (Submetric.SIZE_SYMBOL_DENSITY_SEGMENT, Submetric.SIZE_SYMBOLS_SEGMENT, fragment.line_count),
        (Submetric.SIZE_SYMBOL_DENSITY_METHOD, Submetric.SIZE_SYMBOLS_METHOD, host.line_count),
    ]
    for density_id, total_id, lines in pairs:
        assert vector[density_id] * lines == pytest.approx(vector[total_id], abs=1e-9)


def test_appending_a_blank_line_keeps_totals_and_never_raises_densities():
    methods = _owner_methods()
    host = methods[0]
    base = validate_fragment(GUARDED)
    v_base = compute_vector(base, host, KEYWORD_CATALOGUE)
    # Trailing blank lines are trimmed away entirely.
    trailing = validate_fragment(GUARDED + "\n   \n")
    assert compute_vector(trailing, host, KEYWORD_CATALOGUE) == v_base
    # An interior blank line keeps totals and can only lower densities.
    padded = validate_fragment(GUARDED + "\n    \nx();")
    v_padded = compute_vector(padded, host, KEYWORD_CATALOGUE)
    assert v_padded[Submetric.KEYWORD_TOTAL] == v_base[Submetric.KEYWORD_TOTAL]
    assert v_padded[Submetric.KEYWORD_DENSITY] <= v_base[Submetric.KEYWORD_DENSITY]


def test_vector_covers_all_submetrics_with_nonnegative_values():
    vector, _, _ = _vector_fixture()
    assert set(vector) == set(Submetric)
    assert all(v >= 0 for v in vector.values())


# Few distinct values, so removals meet runs of equal ones.
_VECTORS = st.lists(st.tuples(*[st.sampled_from((0, 1, 2, 0.5, 2.5))] * len(Submetric)), max_size=8)


@given(_VECTORS, _VECTORS, st.sets(st.integers(0, 7)))
def test_updating_a_distribution_equals_sorting_what_remains(vectors, added, drop):
    removed = [v for i, v in enumerate(vectors) if i in drop]
    remaining = [v for i, v in enumerate(vectors) if i not in drop] + added
    before = build_distributions(vectors)
    after = update_distributions(before, removed, added)
    assert after == build_distributions(remaining)
    # The snapshot a caller holds stays as it was, and a column whose values did not change is shared.
    assert before == build_distributions(vectors)
    for i, m in enumerate(Submetric):
        if sorted(v[i] for v in removed) == sorted(v[i] for v in added):
            assert after.samples[m] is before.samples[m]
    assert update_distributions(before, [], []) is before
