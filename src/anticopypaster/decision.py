"""Just-in-time gate: paste queue, delay handling, and rule evaluation.

Paste events wait out a configurable delay in a per-session queue.
When due, the fragment, validated once when it was queued, is
re-verified against the paste file's stored tokens, duplicates are
re-scanned, and the enabled/required submetric rule is evaluated
against percentile thresholds. Time is a logical clock injected by the
caller; nothing in here owns a timer, which keeps replays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Union

from .clones import CloneMatch, find_duplicates
from .errors import InvalidFragment
from .lexer import find_run
from .metrics import MetricVector, Submetric, compute_vector, thresholds_for
from .settings import Settings, SubmetricFlags
from .source_model import Fragment, MethodUnit, method_at, validate_fragment

if TYPE_CHECKING:
    from .workspace import ProjectSession

# Drop reasons surfaced in simulator logs.
INVALID_FRAGMENT = "InvalidFragment"
NO_ENCLOSING_METHOD = "NoEnclosingMethod"
FILE_MISSING = "FileMissing"
EDITED = "Edited"
NOT_TRIGGERED = "NotTriggered"

ACTION_EXTRACT_METHOD = "extract-method"

Timestamp = Union[int, float]


@dataclass(frozen=True)
class PasteEvent:
    project_root: str
    file_path: str
    paste_line: int
    fragment_text: str
    timestamp: Timestamp


@dataclass(frozen=True)
class GateEntry:
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class GateReport:
    entries: dict[Submetric, GateEntry]
    required_all_passed: bool
    any_enabled_passed: bool
    metrics_passed: bool
    duplicate_method_count: int = 0
    triggered: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class Recommendation:
    event: PasteEvent
    report: GateReport
    matches: tuple[CloneMatch, ...]
    emitted_at: Timestamp
    action: str = ACTION_EXTRACT_METHOD


@dataclass(frozen=True)
class DropRecord:
    event: PasteEvent
    reason: str
    at: Timestamp
    report: GateReport | None = None


Outcome = Union[Recommendation, DropRecord]


def evaluate_gate(
    vector: MetricVector,
    thresholds: dict[Submetric, float],
    flags: dict[Submetric, SubmetricFlags],
) -> GateReport:
    """Apply the enabled/required rule to one metric vector.

    A submetric passes when value >= threshold (nearest-rank thresholds
    are sample members, so ties must pass). Required submetrics are
    conjoined; enabled-but-not-required ones are disjoined; with no
    enabled submetrics the gate never passes. Duplicate counting is
    layered on afterwards via with_duplicates.
    """
    enabled = [m for m in Submetric if m in flags and flags[m].enabled]
    if not enabled:
        return GateReport({}, False, False, False, reason="NoSubmetricsEnabled")
    entries = {
        m: GateEntry(vector[m], thresholds[m], vector[m] >= thresholds[m])
        for m in enabled
    }
    required = [m for m in enabled if flags[m].required]
    optional = [m for m in enabled if not flags[m].required]
    required_all = all(entries[m].passed for m in required)
    any_optional = any(entries[m].passed for m in optional)
    passed = required_all and (any_optional or not optional)
    return GateReport(entries, required_all, any_optional, passed)


def with_duplicates(report: GateReport, count: int, min_required: int) -> GateReport:
    triggered = count >= min_required and report.metrics_passed
    return replace(report, duplicate_method_count=count, triggered=triggered)


@dataclass
class _Pending:
    event: PasteEvent
    fragment: Fragment
    due: Timestamp
    seq: int


@dataclass
class PasteQueue:
    """Pending paste events keyed by site; re-pastes reset the timer."""

    entries: dict[tuple[str, int], _Pending] = field(default_factory=dict)
    _seq: int = 0

    def put(self, event: PasteEvent, fragment: Fragment, due: Timestamp) -> None:
        self._seq += 1
        key = (event.file_path, event.paste_line)
        self.entries[key] = _Pending(event, fragment, due, self._seq)

    def take_due(self, now: Timestamp) -> list[_Pending]:
        due = sorted(
            (p for p in self.entries.values() if p.due <= now),
            key=lambda p: (p.due, p.seq),
        )
        for pending in due:
            del self.entries[(pending.event.file_path, pending.event.paste_line)]
        return due

    def next_due(self) -> Timestamp | None:
        if not self.entries:
            return None
        return min(p.due for p in self.entries.values())


def enqueue_paste(session: "ProjectSession", event: PasteEvent) -> DropRecord | None:
    """Queue a paste for delayed evaluation; returns a drop when rejected.

    Invalid fragments and pastes outside any indexed method body are
    dropped immediately. The validated fragment is queued with the event,
    so it is lexed only here.
    """
    try:
        fragment = validate_fragment(event.fragment_text)
    except InvalidFragment:
        return DropRecord(event, INVALID_FRAGMENT, event.timestamp)
    if method_at(session.methods, event.file_path, event.paste_line) is None:
        return DropRecord(event, NO_ENCLOSING_METHOD, event.timestamp)
    session.queue.put(event, fragment, event.timestamp + session.settings.delay_seconds)
    return None


def tick(session: "ProjectSession", now: Timestamp) -> list[Outcome]:
    """Process every queued event that is due at `now`."""
    return [
        evaluate_paste(session, pending.event, pending.fragment, now)
        for pending in session.queue.take_due(now)
    ]


def locate(
    session: "ProjectSession", file_path: str, line: int, fragment: Fragment
) -> tuple[MethodUnit, tuple[CloneMatch, ...], int] | str:
    """The method a fragment pasted at `line` sits in, its duplicates, and where its run starts; else the drop reason.

    The fragment's normalized token run must start on that line of the
    file's stored tokens; any token-level change there cancels the paste
    as `Edited`, and so does a file that no longer lexes.
    """
    if file_path not in session.files:
        return FILE_MISSING
    tokens = session.tokens.get(file_path)
    at = -1 if tokens is None else find_run(tokens, fragment.tokens.texts, line)
    if at < 0:
        return EDITED
    enclosing = method_at(session.methods, file_path, line)
    if enclosing is None:
        return NO_ENCLOSING_METHOD
    matches = find_duplicates(
        fragment,
        session.search_methods(file_path),
        session.settings.near_match_threshold,
        session.index,
    )
    return enclosing, tuple(matches), at


def evaluate_paste(
    session: "ProjectSession", event: PasteEvent, fragment: Fragment, now: Timestamp
) -> Outcome:
    """The due-time pipeline: re-verify and re-scan duplicates (`locate`), gate.

    Precondition: `fragment == validate_fragment(event.fragment_text)`;
    the caller validates once and passes the result.
    """
    located = locate(session, event.file_path, event.paste_line, fragment)
    if isinstance(located, str):
        return DropRecord(event, located, now)
    enclosing, matches, _ = located
    settings: Settings = session.settings
    vector = compute_vector(fragment, enclosing, settings.keywords)
    # An enclosing method means the distribution holds a sample; the gate reads the enabled submetrics' thresholds.
    thresholds = thresholds_for(session.distribution, settings.sensitivity)
    report = evaluate_gate(vector, thresholds, settings.flags)
    report = with_duplicates(report, len(matches), settings.min_duplicate_methods)
    if report.triggered:
        return Recommendation(event, report, matches, now)
    return DropRecord(event, NOT_TRIGGERED, now, report)


# ---------------------------------------------------------------------------
# Serialization (the simulator-log wire format)

def match_to_dict(match: CloneMatch) -> dict:
    return {
        "method": match.method_id,
        "kind": match.kind,
        "similarity": match.similarity,
        "span": list(match.match_span) if match.match_span else None,
    }


def report_to_dict(report: GateReport) -> dict:
    return {
        "submetrics": {
            m.value: {
                "value": entry.value,
                "threshold": entry.threshold,
                "passed": entry.passed,
            }
            for m, entry in sorted(report.entries.items(), key=lambda kv: kv[0].value)
        },
        "requiredAllPassed": report.required_all_passed,
        "anyEnabledPassed": report.any_enabled_passed,
        "duplicateMethodCount": report.duplicate_method_count,
        "triggered": report.triggered,
        "reason": report.reason,
    }


def outcome_to_dict(outcome: Outcome) -> dict:
    event = outcome.event
    base = {
        "project": event.project_root,
        "file": event.file_path,
        "line": event.paste_line,
        "pastedAt": event.timestamp,
    }
    if isinstance(outcome, Recommendation):
        base.update(
            type="recommendation",
            t=outcome.emitted_at,
            action=outcome.action,
            matches=[match_to_dict(m) for m in outcome.matches],
            gate=report_to_dict(outcome.report),
        )
    else:
        base.update(type="drop", t=outcome.at, reason=outcome.reason)
        if outcome.report is not None:
            base["gate"] = report_to_dict(outcome.report)
    return base
