from __future__ import annotations

import json
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anticopypaster.errors import (
    EmptyDistribution,
    InvalidSensitivity,
    MissingContext,
)
from anticopypaster.metrics import (
    CONFIGURABLE_KEYWORDS,
    KEYWORD_CATALOGUE,
    Submetric,
    build_distributions,
    complexity_metrics,
    compute_vector,
    coupling_metrics,
    keyword_metrics,
    method_vector,
    percentile_threshold,
    size_metrics,
)
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import FIXTURES_DIR, GOLDEN_DIR

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


def _owner():
    methods, classes = index_file(OWNER_SOURCE, "Owner.java")
    return methods, classes[0]


def test_keyword_catalogue_has_exactly_31_entries():
    assert len(CONFIGURABLE_KEYWORDS) == 31
    assert len(KEYWORD_CATALOGUE) == 31
    assert {"if", "strictfp", "this", "super"} <= KEYWORD_CATALOGUE
    assert {"public", "private", "static", "void"} & KEYWORD_CATALOGUE == set()


def test_keyword_metrics_on_the_guarded_fragment():
    fragment = validate_fragment(GUARDED)
    assert keyword_metrics(fragment, KEYWORD_CATALOGUE) == (1, pytest.approx(1 / 3))


def test_keyword_metrics_with_disjoint_selection():
    fragment = validate_fragment(GUARDED)
    assert keyword_metrics(fragment, frozenset({"for"})) == (0, 0)


def test_keyword_metrics_counts_repeats_across_lines():
    fragment = validate_fragment("return x;\nreturn y;")
    assert keyword_metrics(fragment, KEYWORD_CATALOGUE) == (2, 1.0)


def test_empty_keyword_set_yields_zero_not_error():
    fragment = validate_fragment(GUARDED)
    assert keyword_metrics(fragment, frozenset()) == (0, 0)


@given(st.sets(st.sampled_from(sorted(KEYWORD_CATALOGUE))))
def test_keyword_total_is_monotone_in_enabled_set(subset):
    fragment = validate_fragment("if (a) { return b; } else { while (c) { d++; } }")
    small, _ = keyword_metrics(fragment, frozenset(subset))
    grown, _ = keyword_metrics(fragment, frozenset(subset) | {"if", "while"})
    assert grown >= small


def test_field_connectivity_on_the_guarded_fragment():
    _, owner = _owner()
    fragment = validate_fragment(GUARDED)
    assert coupling_metrics(fragment, owner, "field") == (1, pytest.approx(1 / 3))
    assert coupling_metrics(fragment, owner, "method") == (0, 0)
    assert coupling_metrics(fragment, owner, "total") == (1, pytest.approx(1 / 3))


def test_local_declaration_shadows_field():
    _, owner = _owner()
    fragment = validate_fragment("int sum = 0;\nsum++;")
    assert coupling_metrics(fragment, owner, "field") == (0, 0)


def test_occurrence_before_the_declaration_still_counts():
    _, owner = _owner()
    fragment = validate_fragment("sum++;\nint sum = 0;")
    assert coupling_metrics(fragment, owner, "field")[0] == 1


def test_method_connectivity_counts_calls():
    _, owner = _owner()
    fragment = validate_fragment("helper();")
    assert coupling_metrics(fragment, owner, "method") == (1, 1.0)
    assert coupling_metrics(fragment, owner, "total") == (1, 1.0)


def test_missing_owner_raises():
    fragment = validate_fragment("x = 1;")
    with pytest.raises(MissingContext):
        coupling_metrics(fragment, None, "total")


def test_complexity_of_guarded_fragment():
    methods, _ = _owner()
    host = methods[0]
    fragment = validate_fragment(GUARDED)
    total_area, area_density, method_area, depth_density = complexity_metrics(
        fragment, host
    )
    assert total_area == 4
    assert area_density == pytest.approx(4 / 3)
    assert method_area == 1  # one flat body line
    assert depth_density == 1.0


def test_two_flat_lines_have_area_two():
    methods, _ = _owner()
    fragment = validate_fragment("a();\nb();")
    total_area, area_density, _, _ = complexity_metrics(fragment, methods[0])
    assert (total_area, area_density) == (2, 1.0)


def test_size_of_guarded_fragment():
    fragment = validate_fragment(GUARDED)
    lines, symbols, density = size_metrics(fragment, None, "segment")
    assert (lines, symbols) == (3, 16)
    assert density == pytest.approx(16 / 3)


def test_size_of_single_statement():
    fragment = validate_fragment("x = 1;")
    assert size_metrics(fragment, None, "segment") == (1, 4, 4.0)


def test_method_scope_size_ignores_the_fragment():
    methods, _ = _owner()
    host = methods[0]  # body: "        sum += x;" -> 1 line, 7 symbols
    fragment = validate_fragment(GUARDED)
    assert size_metrics(fragment, host, "methodDeclaration") == (1, 7, 7.0)


def test_method_scope_requires_the_method():
    fragment = validate_fragment("x = 1;")
    with pytest.raises(MissingContext):
        size_metrics(fragment, None, "methodDeclaration")


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
    methods, _ = index_file(source, "S.java")
    dist = build_distributions(methods, KEYWORD_CATALOGUE)
    assert dist.samples[Submetric.SIZE_LINES_SEGMENT] == (2, 5, 9)
    assert dist.sample_size == 3


def test_empty_project_raises_empty_distribution():
    with pytest.raises(EmptyDistribution):
        build_distributions([], KEYWORD_CATALOGUE)


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
    methods, owner = _owner()
    fragment = validate_fragment(GUARDED)
    return compute_vector(fragment, methods[0], owner, KEYWORD_CATALOGUE), fragment, methods[0]


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
    methods, owner = _owner()
    host = methods[0]
    base = validate_fragment(GUARDED)
    v_base = compute_vector(base, host, owner, KEYWORD_CATALOGUE)
    # Trailing blank lines are trimmed away entirely.
    trailing = validate_fragment(GUARDED + "\n   \n")
    assert compute_vector(trailing, host, owner, KEYWORD_CATALOGUE) == v_base
    # An interior blank line keeps totals and can only lower densities.
    padded = validate_fragment(GUARDED + "\n    \nx();")
    v_padded = compute_vector(padded, host, owner, KEYWORD_CATALOGUE)
    assert v_padded[Submetric.KEYWORD_TOTAL] == v_base[Submetric.KEYWORD_TOTAL]
    assert v_padded[Submetric.KEYWORD_DENSITY] <= v_base[Submetric.KEYWORD_DENSITY]


def test_vector_covers_all_submetrics_with_nonnegative_values():
    vector, _, _ = _vector_fixture()
    assert set(vector) == set(Submetric)
    assert all(v >= 0 for v in vector.values())
