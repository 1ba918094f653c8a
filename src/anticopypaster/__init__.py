"""Headless duplicate-paste detection and Extract Method recommendation."""

from .clones import CloneMatch, TokenBag, find_duplicates, normalize_bag, overlap_similarity
from .decision import (
    DropRecord,
    GateReport,
    PasteEvent,
    Recommendation,
    enqueue_paste,
    evaluate_gate,
    evaluate_paste,
    tick,
    with_duplicates,
)
from .extraction import (
    DataFlowSummary,
    ExtractionPlan,
    analyze_extractability,
    apply_extraction,
    plan_extraction,
    verify_by_inlining,
)
from .lexer import Token, TokenKind, tokenize
from .metrics import (
    KEYWORD_CATALOGUE,
    ProjectDistribution,
    Submetric,
    build_distributions,
    compute_vector,
    fresh_distributions,
    percentile_threshold,
)
from .settings import Settings, default_settings, load_settings
from .source_model import (
    ClassContext,
    Fragment,
    MethodUnit,
    index_file,
    nesting_profile,
    validate_fragment,
)
from .workspace import ProjectSession, open_project, refresh_index

__version__ = "0.1.0"

__all__ = [
    "CloneMatch",
    "TokenBag",
    "find_duplicates",
    "normalize_bag",
    "overlap_similarity",
    "DropRecord",
    "GateReport",
    "PasteEvent",
    "Recommendation",
    "enqueue_paste",
    "evaluate_gate",
    "evaluate_paste",
    "tick",
    "with_duplicates",
    "DataFlowSummary",
    "ExtractionPlan",
    "analyze_extractability",
    "apply_extraction",
    "plan_extraction",
    "verify_by_inlining",
    "Token",
    "TokenKind",
    "tokenize",
    "KEYWORD_CATALOGUE",
    "ProjectDistribution",
    "Submetric",
    "build_distributions",
    "compute_vector",
    "fresh_distributions",
    "percentile_threshold",
    "Settings",
    "default_settings",
    "load_settings",
    "ClassContext",
    "Fragment",
    "MethodUnit",
    "index_file",
    "nesting_profile",
    "validate_fragment",
    "ProjectSession",
    "open_project",
    "refresh_index",
]
