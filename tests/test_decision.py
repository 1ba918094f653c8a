from __future__ import annotations

import random

import pytest

from anticopypaster.decision import (
    EDITED,
    FILE_MISSING,
    INVALID_FRAGMENT,
    NO_ENCLOSING_METHOD,
    NOT_TRIGGERED,
    DropRecord,
    GateReport,
    PasteEvent,
    Recommendation,
    enqueue_paste,
    evaluate_gate,
    tick,
    with_duplicates,
)
from anticopypaster.errors import NotComputable
from anticopypaster.metrics import Submetric
from anticopypaster.settings import SubmetricFlags
from anticopypaster.workspace import open_project

from helpers import write_project

HOST_SOURCE = """\
public class Host {
    private int total;

    public int first(int[] xs) {
        int n = 0;
        for (int x : xs) {
            if (x > 0) {
                n += x;
            }
        }
        total = n;
        return n;
    }

    public int second(int[] xs) {
        int n = 0;
        for (int x : xs) {
            if (x > 0) {
                n += x;
            }
        }
        return n + 1;
    }
}
"""

FRAGMENT = "int n = 0;\nfor (int x : xs) {\n    if (x > 0) {\n        n += x;\n    }\n}"


@pytest.fixture
def session(tmp_path):
    root = write_project(tmp_path / "proj", {"Host.java": HOST_SOURCE})
    return open_project(root, declared_root="proj")


def paste(t=0, line=5, file="Host.java", text=FRAGMENT):
    return PasteEvent("proj", file, line, text, t)


# --- gate rule ---------------------------------------------------------------

def _flags(required=(), enabled=()):
    flags = {m: SubmetricFlags(enabled=False) for m in Submetric}
    for m in enabled:
        flags[m] = SubmetricFlags(enabled=True)
    for m in required:
        flags[m] = SubmetricFlags(enabled=True, required=True)
    return flags


AREA = Submetric.COMPLEXITY_TOTAL_AREA
LINES = Submetric.SIZE_LINES_SEGMENT
KW = Submetric.KEYWORD_TOTAL


def test_required_pass_plus_any_enabled_pass_triggers():
    report = evaluate_gate(
        vector={AREA: 10, LINES: 2, KW: 5},
        thresholds={AREA: 8, LINES: 5, KW: 4},
        flags=_flags(required=[AREA], enabled=[LINES, KW]),
    )
    assert report.required_all_passed
    assert report.any_enabled_passed  # keyword passes even though lines fail
    assert report.metrics_passed
    assert with_duplicates(report, 2, 2).triggered


def test_any_required_failure_blocks_everything():
    report = evaluate_gate(
        vector={AREA: 1, LINES: 9, KW: 9},
        thresholds={AREA: 8, LINES: 5, KW: 4},
        flags=_flags(required=[AREA], enabled=[LINES, KW]),
    )
    assert not report.required_all_passed
    assert not report.metrics_passed
    assert not with_duplicates(report, 99, 2).triggered


def test_zero_enabled_submetrics_never_triggers():
    report = evaluate_gate({}, {}, _flags())
    assert not report.metrics_passed
    assert report.reason == "NoSubmetricsEnabled"


def test_all_required_vacuous_or_rule():
    # Only required submetrics enabled: the OR side is vacuously satisfied.
    report = evaluate_gate(
        vector={AREA: 10},
        thresholds={AREA: 8},
        flags=_flags(required=[AREA]),
    )
    assert report.metrics_passed


def test_ties_pass():
    report = evaluate_gate(
        vector={LINES: 5},
        thresholds={LINES: 5},
        flags=_flags(enabled=[LINES]),
    )
    assert report.entries[LINES].passed


def test_missing_threshold_raises_not_computable():
    with pytest.raises(NotComputable):
        evaluate_gate({LINES: 1}, {}, _flags(enabled=[LINES]))


def test_duplicate_count_gates_the_final_verdict():
    report = evaluate_gate(
        vector={LINES: 9}, thresholds={LINES: 5}, flags=_flags(enabled=[LINES])
    )
    assert not with_duplicates(report, 1, 2).triggered
    assert with_duplicates(report, 2, 2).triggered


def test_report_only_contains_enabled_submetrics():
    report = evaluate_gate(
        vector={m: 1 for m in Submetric},
        thresholds={m: 0 for m in Submetric},
        flags=_flags(enabled=[LINES, KW]),
    )
    assert set(report.entries) == {LINES, KW}


# --- queue semantics ----------------------------------------------------------

def test_enqueued_event_is_due_after_the_default_delay(session):
    assert enqueue_paste(session, paste(t=0)) is None
    assert session.queue.next_due() == 10


def test_invalid_fragment_is_dropped_immediately(session):
    drop = enqueue_paste(session, paste(text="if (x {"))
    assert isinstance(drop, DropRecord)
    assert drop.reason == INVALID_FRAGMENT


def test_paste_outside_any_method_is_dropped(session):
    drop = enqueue_paste(session, paste(line=2))
    assert drop is not None and drop.reason == NO_ENCLOSING_METHOD


def test_repaste_at_same_site_resets_the_timer(session):
    enqueue_paste(session, paste(t=0))
    enqueue_paste(session, paste(t=3))
    assert len(session.queue.entries) == 1
    assert session.queue.next_due() == 13


def test_different_sites_queue_independently(session):
    enqueue_paste(session, paste(t=0, line=5))
    enqueue_paste(session, paste(t=1, line=16, text="int n = 0;"))
    assert len(session.queue.entries) == 2


def test_nothing_fires_before_due_time(session):
    enqueue_paste(session, paste(t=0))
    assert tick(session, 9) == []
    outcomes = tick(session, 10)
    assert len(outcomes) == 1
    assert isinstance(outcomes[0], Recommendation)
    assert outcomes[0].emitted_at == 10
    assert tick(session, 11) == []  # queue drained


def test_recommendation_carries_matches_and_report(session):
    enqueue_paste(session, paste(t=0))
    (outcome,) = tick(session, 10)
    assert outcome.report.duplicate_method_count == 2
    assert {m.kind for m in outcome.matches} == {"exact"}


def test_edited_site_cancels_the_event(session):
    enqueue_paste(session, paste(t=0))
    session.apply_edit("Host.java", HOST_SOURCE.replace("int n = 0;", "int n = 9;", 1))
    (outcome,) = tick(session, 10)
    assert isinstance(outcome, DropRecord)
    assert outcome.reason == EDITED


def test_missing_file_is_reported_at_tick(session):
    enqueue_paste(session, paste(t=0))
    session.apply_edit("Host.java", None)
    (outcome,) = tick(session, 10)
    assert outcome.reason == FILE_MISSING


def test_gate_failure_surfaces_as_not_triggered_drop(tmp_path):
    root = write_project(tmp_path / "p", {"Host.java": HOST_SOURCE})
    (root / ".anticopypaster.json").write_text(
        '{"submetrics": {"size.lines.segment": {"required": true}},'
        ' "sensitivity": {"size": 100}}',
        encoding="utf-8",
    )
    session = open_project(root, declared_root="p")
    enqueue_paste(session, paste(t=0))
    (outcome,) = tick(session, 10)
    assert isinstance(outcome, DropRecord)
    assert outcome.reason == NOT_TRIGGERED
    assert outcome.report is not None and not outcome.report.triggered


# --- randomized monotonicity --------------------------------------------------

def _random_instance(rng: random.Random):
    submetrics = list(Submetric)
    vector = {m: rng.uniform(0, 20) for m in submetrics}
    samples = {
        m: tuple(sorted(rng.uniform(0, 20) for _ in range(rng.randint(1, 30))))
        for m in submetrics
    }
    flags = {}
    for m in submetrics:
        enabled = rng.random() < 0.6
        required = enabled and rng.random() < 0.3
        flags[m] = SubmetricFlags(enabled=enabled, required=required)
    sensitivities = {c: rng.randint(1, 100) for c in ("keyword", "coupling", "complexity", "size")}
    return vector, samples, flags, sensitivities


def _evaluate(vector, samples, flags, sensitivities) -> bool:
    from anticopypaster.metrics import percentile_threshold

    thresholds = {
        m: percentile_threshold(samples[m], sensitivities[m.category])
        for m in Submetric
        if flags[m].enabled
    }
    report = evaluate_gate(vector, thresholds, flags)
    return report.metrics_passed


def test_raising_sensitivity_never_enables_a_trigger():
    rng = random.Random(1234)
    for _ in range(150):
        vector, samples, flags, sens = _random_instance(rng)
        before = _evaluate(vector, samples, flags, sens)
        category = rng.choice(list(sens))
        raised = dict(sens)
        raised[category] = rng.randint(sens[category], 100)
        after = _evaluate(vector, samples, flags, raised)
        if not before:
            assert not after


def test_adding_a_required_flag_never_grows_the_triggered_set():
    rng = random.Random(4321)
    for _ in range(150):
        vector, samples, flags, sens = _random_instance(rng)
        before = _evaluate(vector, samples, flags, sens)
        enabled = [m for m in Submetric if flags[m].enabled and not flags[m].required]
        if not enabled:
            continue
        target = rng.choice(enabled)
        stricter = dict(flags)
        stricter[target] = SubmetricFlags(enabled=True, required=True)
        after = _evaluate(vector, samples, stricter, sens)
        if not before:
            assert not after
