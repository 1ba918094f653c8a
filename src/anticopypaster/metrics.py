"""Metric families, per-project distributions, and percentile thresholds.

Four families are exposed: keyword counts, class connectivity
(coupling), nesting area (complexity), and size. Every family comes in
a total and a per-line density flavor; density denominators are always
the scope's line count. Thresholds are nearest-rank percentiles over
the per-method samples of the project, so a threshold is always a value
some real method attains.

One function measures both scopes: a pasted fragment, from the facts built
once when it is validated, and a method's whole body, from those built when
it is indexed; coupling is one pass over the names in the bag of the
method's class (`MethodUnit.owner`). A method's vector depends only on
its own file and the keyword set, so a session computes it once, when the
file is indexed, and keeps it on the MethodUnit. The distribution is
sorted from the stored vectors on open; a save takes out the vectors that
changed and puts their new values in where bisection places them, and a
column none of them changes stays the same tuple. A project without
methods has a distribution of empty samples, on which every threshold
raises EmptyDistribution.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum

from .errors import EmptyDistribution, InvalidSensitivity
from .lexer import Tokens, TokenKind
from .source_model import PRIMITIVE_TYPES, ClassContext, Fragment, MethodUnit, local_declarations

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


# What a declared name follows besides an identifier: a type's last token, or the `,` between declarators.
_BEFORE_NAME = PRIMITIVE_TYPES | {">", ">>", ">>>", "]", "...", ","}


def coupling_counts(tokens: Tokens, body: tuple[int, int], bag: dict[str, int], owner: ClassContext) -> tuple[int, int]:
    """Count field and method references from the run tokens[lo:hi] (`body`), whose `token_bag` is `bag`, into its class.

    One walk visits each occurrence of the class's field and method names.
    Method connectivity counts those immediately followed by '('. Field
    connectivity counts identifiers matching a declared field unless a
    local declaration of the same name textually precedes the occurrence
    (the declaring occurrence itself is shadowed). The run's
    `local_declarations` are read once, and only when a field name follows
    what a declared name follows; mostly none does, and none is read.
    """
    texts, kinds, (lo, hi) = tokens.texts, tokens.kinds, body
    field_refs = method_refs = 0
    fields, methods = owner.field_names, owner.method_names
    declared = None
    for name in bag.keys() & (fields | methods):
        i = lo - 1
        for _ in range(bag[name]):
            i = texts.index(name, i + 1, hi)
            method_refs += name in methods and texts[i + 1 : i + 2] == ("(",)
            if name in fields:
                # A declared name never starts the run, and a fragment's tokens[lo - 1] is its last token.
                if declared is None and i > lo and (kinds[i - 1] is TokenKind.IDENTIFIER or texts[i - 1] in _BEFORE_NAME):
                    declared = local_declarations(tokens, lo, hi)
                decl = declared.get(name) if declared else None
                field_refs += decl is None or i < decl.token_index
    return field_refs, method_refs


def _measure(segment: Fragment | MethodUnit, method: MethodUnit, keywords: frozenset[str]) -> MetricVector:
    """The 18 submetric values of a segment inside `method`, whose class is `method.owner`.

    Every fact but coupling was built once, when the segment was
    validated or indexed; its bag holds every keyword, since no
    keyword is punctuation. Area is the sum of per-line nesting depths, so
    it grows with both length and nesting. Densities divide by their
    scope's lines.
    """
    tokens, body, bag = segment.tokens, segment.body, segment.bag
    keyword_total = sum(bag[k] for k in bag.keys() & keywords)
    fields, calls = coupling_counts(tokens, body, bag, method.owner)
    coupling = fields + calls
    lines, symbols, area = segment.line_count, segment.symbol_count, segment.area
    method_lines = method.line_count
    return {
        Submetric.KEYWORD_TOTAL: keyword_total,
        Submetric.KEYWORD_DENSITY: keyword_total / lines,
        Submetric.COUPLING_TOTAL_TOTAL: coupling,
        Submetric.COUPLING_TOTAL_FIELD: fields,
        Submetric.COUPLING_TOTAL_METHOD: calls,
        Submetric.COUPLING_DENSITY_TOTAL: coupling / lines,
        Submetric.COUPLING_DENSITY_FIELD: fields / lines,
        Submetric.COUPLING_DENSITY_METHOD: calls / lines,
        Submetric.COMPLEXITY_TOTAL_AREA: area,
        Submetric.COMPLEXITY_AREA_DENSITY: area / lines,
        Submetric.COMPLEXITY_METHOD_AREA: method.area,
        Submetric.COMPLEXITY_METHOD_DEPTH_DENSITY: method.area / method_lines,
        Submetric.SIZE_LINES_SEGMENT: lines,
        Submetric.SIZE_SYMBOLS_SEGMENT: symbols,
        Submetric.SIZE_SYMBOL_DENSITY_SEGMENT: symbols / lines,
        Submetric.SIZE_LINES_METHOD: method_lines,
        Submetric.SIZE_SYMBOLS_METHOD: method.symbol_count,
        Submetric.SIZE_SYMBOL_DENSITY_METHOD: method.symbol_count / method_lines,
    }


def compute_vector(fragment: Fragment, enclosing: MethodUnit, keywords: frozenset[str]) -> MetricVector:
    """All submetric values for a fragment pasted inside a method; coupling reads the method's class."""
    return _measure(fragment, enclosing, keywords)


def method_vector(method: MethodUnit, keywords: frozenset[str]) -> MetricVector:
    """Submetric values of a method, treating the whole body as the segment."""
    return _measure(method, method, keywords)


def vector_values(vector: MetricVector) -> tuple[float, ...]:
    """The vector's values in ALL_SUBMETRICS order, as a MethodUnit stores them."""
    return tuple(vector[m] for m in ALL_SUBMETRICS)


@dataclass(frozen=True)
class ProjectDistribution:
    """Ascending per-method samples for every submetric."""

    samples: dict[Submetric, tuple[float, ...]]
    sample_size: int


def build_distributions(vectors: list[tuple[float, ...]]) -> ProjectDistribution:
    """Sort per-method vectors, each in ALL_SUBMETRICS order, into samples; no vectors give empty ones."""
    columns = zip(*vectors) if vectors else [()] * len(ALL_SUBMETRICS)
    return ProjectDistribution(
        {m: tuple(sorted(column)) for m, column in zip(ALL_SUBMETRICS, columns)},
        len(vectors),
    )


def update_distributions(
    distribution: ProjectDistribution,
    removed: list[tuple[float, ...]],
    added: list[tuple[float, ...]],
) -> ProjectDistribution:
    """The distribution with the `removed` vectors taken out and `added` put in.

    Equals `build_distributions` of the vectors that remain, at the cost
    of the change. A column whose removed and added values are the same
    is kept as it is; in every other column each value is taken out or put
    in at the place bisection finds, so nothing is sorted again. No vectors
    at all give `distribution` itself. Every removed vector must be in
    `distribution`, which, like every snapshot, never changes.
    """
    if not removed and not added:
        return distribution
    fresh = build_distributions(added)
    samples = {}
    for i, m in enumerate(ALL_SUBMETRICS):
        column, came = distribution.samples[m], fresh.samples[m]
        gone = sorted(v[i] for v in removed)
        if gone == list(came):
            samples[m] = column
            continue
        spliced = list(column)
        for value in gone:
            del spliced[bisect_left(spliced, value)]
        for value in came:
            insort(spliced, value)
        samples[m] = tuple(spliced)
    return ProjectDistribution(samples, distribution.sample_size - len(removed) + len(added))


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
) -> dict[Submetric, float]:
    """Every submetric's threshold at its category's sensitivity."""
    return {
        m: percentile_threshold(distribution.samples[m], sensitivities[m.category])
        for m in ALL_SUBMETRICS
    }
