"""Metric families, per-project distributions, and percentile thresholds.

Four families are exposed: keyword counts, class connectivity
(coupling), nesting area (complexity), and size. Every family comes in
a total and a per-line density flavor; density denominators are always
the scope's line count. Thresholds are nearest-rank percentiles over
the per-method samples of the project, so a threshold is always a value
some real method attains.

A method's vector depends only on its own file and the keyword set, so
a session computes it once, when the file is indexed, and keeps it on
the MethodUnit. The distribution is then re-sorted from the stored
vectors on open and after every edit; only an edited file's methods get
new vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EmptyDistribution, InvalidSensitivity
from .lexer import Token, TokenKind
from .source_model import (
    ClassContext,
    Fragment,
    MethodUnit,
    nesting_profile,
    scan_declarations,
)

# The configurable keyword catalogue: 31 statement/type/flow keywords,
# visibility modifiers deliberately excluded.
CONFIGURABLE_KEYWORDS = (
    "continue", "for", "new", "switch", "assert", "synchronized", "boolean",
    "do", "if", "this", "break", "double", "throw", "byte", "else", "case",
    "instanceof", "return", "transient", "catch", "int", "short", "try",
    "char", "final", "finally", "long", "float", "super", "while", "strictfp",
)

KEYWORD_CATALOGUE = frozenset(CONFIGURABLE_KEYWORDS)

CATEGORIES = ("keyword", "coupling", "complexity", "size")


class Submetric(str, Enum):
    """Stable submetric identifiers; values double as serialization names."""

    KEYWORD_TOTAL = "keyword.total"
    KEYWORD_DENSITY = "keyword.density"
    COUPLING_TOTAL_TOTAL = "coupling.total.total"
    COUPLING_TOTAL_FIELD = "coupling.total.field"
    COUPLING_TOTAL_METHOD = "coupling.total.method"
    COUPLING_DENSITY_TOTAL = "coupling.density.total"
    COUPLING_DENSITY_FIELD = "coupling.density.field"
    COUPLING_DENSITY_METHOD = "coupling.density.method"
    COMPLEXITY_TOTAL_AREA = "complexity.total_area"
    COMPLEXITY_AREA_DENSITY = "complexity.area_density"
    COMPLEXITY_METHOD_AREA = "complexity.method_area"
    COMPLEXITY_METHOD_DEPTH_DENSITY = "complexity.method_depth_density"
    SIZE_LINES_SEGMENT = "size.lines.segment"
    SIZE_LINES_METHOD = "size.lines.method_declaration"
    SIZE_SYMBOLS_SEGMENT = "size.symbols.segment"
    SIZE_SYMBOLS_METHOD = "size.symbols.method_declaration"
    SIZE_SYMBOL_DENSITY_SEGMENT = "size.symbol_density.segment"
    SIZE_SYMBOL_DENSITY_METHOD = "size.symbol_density.method_declaration"

    @property
    def category(self) -> str:
        return self.value.split(".", 1)[0]


ALL_SUBMETRICS = tuple(Submetric)
SUBMETRIC_BY_NAME = {m.value: m for m in Submetric}

MetricVector = dict[Submetric, float]


@dataclass(frozen=True)
class CouplingCounts:
    field: int
    method: int

    @property
    def total(self) -> int:
        return self.field + self.method


def coupling_counts(
    tokens: list[Token], owner: ClassContext, shadow_from: dict[str, int]
) -> CouplingCounts:
    """Count references from a token sequence into its owning class.

    Field connectivity counts identifiers matching a declared field
    unless a local declaration of the same name textually precedes the
    occurrence (the declaring occurrence itself is shadowed).
    `shadow_from` maps each locally declared name to the token index of
    its first declaration. Method connectivity counts identifiers
    immediately followed by '(' that match a declared method name.
    """
    field_refs = 0
    method_refs = 0
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.IDENTIFIER:
            continue
        name = tok.text
        followed_by_call = i + 1 < len(tokens) and tokens[i + 1].text == "("
        if followed_by_call and name in owner.method_names:
            method_refs += 1
        if name in owner.field_names:
            if name in shadow_from and shadow_from[name] <= i:
                continue
            field_refs += 1
    return CouplingCounts(field_refs, method_refs)


def _vector(
    keyword_total: int, coupling: CouplingCounts,
    segment_lines: int, segment_symbols: int, segment_area: int,
    method_lines: int, method_symbols: int, method_area: int,
) -> MetricVector:
    """The 18 submetric values; densities divide by their scope's lines."""
    return {
        Submetric.KEYWORD_TOTAL: keyword_total,
        Submetric.KEYWORD_DENSITY: keyword_total / segment_lines,
        Submetric.COUPLING_TOTAL_TOTAL: coupling.total,
        Submetric.COUPLING_TOTAL_FIELD: coupling.field,
        Submetric.COUPLING_TOTAL_METHOD: coupling.method,
        Submetric.COUPLING_DENSITY_TOTAL: coupling.total / segment_lines,
        Submetric.COUPLING_DENSITY_FIELD: coupling.field / segment_lines,
        Submetric.COUPLING_DENSITY_METHOD: coupling.method / segment_lines,
        Submetric.COMPLEXITY_TOTAL_AREA: segment_area,
        Submetric.COMPLEXITY_AREA_DENSITY: segment_area / segment_lines,
        Submetric.COMPLEXITY_METHOD_AREA: method_area,
        Submetric.COMPLEXITY_METHOD_DEPTH_DENSITY: method_area / method_lines,
        Submetric.SIZE_LINES_SEGMENT: segment_lines,
        Submetric.SIZE_SYMBOLS_SEGMENT: segment_symbols,
        Submetric.SIZE_SYMBOL_DENSITY_SEGMENT: segment_symbols / segment_lines,
        Submetric.SIZE_LINES_METHOD: method_lines,
        Submetric.SIZE_SYMBOLS_METHOD: method_symbols,
        Submetric.SIZE_SYMBOL_DENSITY_METHOD: method_symbols / method_lines,
    }


def compute_vector(
    fragment: Fragment,
    enclosing: MethodUnit,
    owner: ClassContext,
    keywords: frozenset[str],
) -> MetricVector:
    """All submetric values for a fragment pasted inside a method.

    Area is the sum of per-line nesting depths, so it grows with both
    length and nesting. Raises EmptyScope for a fragment without lines
    or one that is not a valid statement sequence.
    """
    area = sum(nesting_profile(fragment))
    keyword_total = sum(1 for tok in fragment.tokens if tok.text in keywords)
    shadow_from: dict[str, int] = {}
    for name, decl in scan_declarations(fragment.tokens):
        shadow_from.setdefault(name, decl.token_index)
    return _vector(
        keyword_total, coupling_counts(fragment.tokens, owner, shadow_from),
        fragment.line_count, fragment.symbol_count, area,
        enclosing.line_count, enclosing.symbol_count, enclosing.area,
    )


def method_vector(method: MethodUnit, keywords: frozenset[str]) -> MetricVector:
    """Submetric values of a method, treating the whole body as the segment.

    Shadowing reads the declarations scanned when the method was indexed.
    """
    lines = method.line_count
    keyword_total = sum(1 for tok in method.body_tokens if tok.text in keywords)
    shadow_from = {name: decl.token_index for name, decl in method.local_declarations.items()}
    return _vector(
        keyword_total, coupling_counts(method.body_tokens, method.owner, shadow_from),
        lines, method.symbol_count, method.area,
        lines, method.symbol_count, method.area,
    )


def vector_values(vector: MetricVector) -> tuple[float, ...]:
    """The vector's values in ALL_SUBMETRICS order, as a MethodUnit stores them."""
    return tuple(vector[m] for m in ALL_SUBMETRICS)


@dataclass(frozen=True)
class ProjectDistribution:
    """Ascending per-method samples for every submetric."""

    samples: dict[Submetric, tuple[float, ...]]
    sample_size: int


def build_distributions(vectors: list[tuple[float, ...]]) -> ProjectDistribution:
    """Sort per-method vectors, each in ALL_SUBMETRICS order, into samples."""
    if not vectors:
        raise EmptyDistribution("no indexed methods to sample")
    columns = zip(*vectors)
    return ProjectDistribution(
        {m: tuple(sorted(column)) for m, column in zip(ALL_SUBMETRICS, columns)},
        len(vectors),
    )


def fresh_distributions(
    methods: list[MethodUnit], keywords: frozenset[str]
) -> ProjectDistribution:
    """The distribution recomputed from scratch, ignoring stored vectors.

    The oracle for a session's distribution, which is sorted from the
    vectors computed when each file was indexed.
    """
    return build_distributions([vector_values(method_vector(m, keywords)) for m in methods])


def percentile_threshold(sample: tuple[float, ...], sensitivity: int) -> float:
    """Nearest-rank percentile: sample[ceil(s/100 * n)], 1-based.

    Integer arithmetic keeps the rank exact for any n and s.
    """
    if not isinstance(sensitivity, int) or isinstance(sensitivity, bool):
        raise InvalidSensitivity(f"sensitivity must be an integer, got {sensitivity!r}")
    if not 1 <= sensitivity <= 100:
        raise InvalidSensitivity(f"sensitivity {sensitivity} outside 1..100")
    if not sample:
        raise EmptyDistribution("empty sample")
    rank = (sensitivity * len(sample) + 99) // 100
    return sample[rank - 1]


def thresholds_for(
    distribution: ProjectDistribution,
    sensitivities: dict[str, int],
    submetrics: tuple[Submetric, ...] = ALL_SUBMETRICS,
) -> dict[Submetric, float]:
    """Per-submetric thresholds at each category's sensitivity."""
    return {
        m: percentile_threshold(distribution.samples[m], sensitivities[m.category])
        for m in submetrics
    }
