from __future__ import annotations

import json
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anticopypaster.errors import EmptyDistribution, InvalidSensitivity
from anticopypaster.metrics import (
    CONFIGURABLE_KEYWORDS,
    KEYWORD_CATALOGUE,
    Submetric,
    compute_vector,
    fresh_distributions,
    method_vector,
    percentile_threshold,
)
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import CORPUS_DIR, FIXTURES_DIR, GOLDEN_DIR

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


def _vector(text: str, keywords: frozenset[str] = KEYWORD_CATALOGUE):
    methods, owner = _owner()
    return compute_vector(validate_fragment(text), methods[0], owner, keywords)


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
    methods, _ = index_file(source, "S.java")
    dist = fresh_distributions(methods, KEYWORD_CATALOGUE)
    assert dist.samples[Submetric.SIZE_LINES_SEGMENT] == (2, 5, 9)
    assert dist.sample_size == 3


def test_empty_project_raises_empty_distribution():
    with pytest.raises(EmptyDistribution):
        fresh_distributions([], KEYWORD_CATALOGUE)


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
    (method,), _ = index_file(SHADOWED_SOURCE, "S.java")
    assert method_vector(method, KEYWORD_CATALOGUE)[Submetric.COUPLING_TOTAL_FIELD] == 1


def test_method_vector_equals_its_body_measured_as_a_fragment():
    """The stored declarations give the coupling a fresh scan of the body gives."""
    roots = sorted(p for p in CORPUS_DIR.glob("*/project") if p.is_dir())
    roots += [FIXTURES_DIR / "distribution_demo", FIXTURES_DIR / "extract_demo"]
    methods = [(m, SHADOWED_SOURCE) for m in index_file(SHADOWED_SOURCE, "S.java")[0]]
    for root in roots:
        session = open_project(root)
        methods += [(m, session.files[m.file_path]) for m in session.methods]
    compared = 0
    for method, text in methods:
        if method.open_brace_line == method.start_line or method.close_brace_line == method.end_line:
            continue
        body_lines = text.split("\n")[method.start_line - 1 : method.end_line]
        fragment = validate_fragment("\n".join(body_lines))
        if not fragment.valid:
            continue
        expected = compute_vector(fragment, method, method.owner, KEYWORD_CATALOGUE)
        assert method_vector(method, KEYWORD_CATALOGUE) == expected, method.id
        compared += 1
    assert compared >= 20


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
