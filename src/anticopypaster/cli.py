"""Command-line surface.

Subcommands: analyze (index + distribution summary), check (evaluate a
fragment as an already-due paste), simulate (replay a scenario file),
extract (plan and apply the refactoring, printing a unified diff), and
thresholds (print percentile thresholds). Exit codes: 0 success or
triggered, 1 not triggered (check only), 2 usage, 3 analysis error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from .decision import (
    INVALID_FRAGMENT,
    NOT_TRIGGERED,
    DropRecord,
    PasteEvent,
    Recommendation,
    evaluate_paste,
    locate,
    match_to_dict,
    report_to_dict,
)
from .errors import EngineError, InvalidFragment
from .extraction import analyze_extractability, apply_extraction, plan_extraction
from .metrics import Submetric, thresholds_for
from .scenario import load_scenario, run_scenario, serialize_log
from .settings import with_sensitivity
from .source_model import validate_fragment
from .workspace import open_project

EXIT_OK = 0
EXIT_NOT_TRIGGERED = 1
EXIT_USAGE = 2
EXIT_ANALYSIS = 3


class _Fail(Exception):
    """A command that cannot go on: exit 3 with the message."""


def _site(value: str) -> tuple[str, int]:
    path, sep, line = value.rpartition(":")
    if not sep or not path:
        raise argparse.ArgumentTypeError(f"expected FILE:LINE, got {value!r}")
    try:
        number = int(line)
    except ValueError:
        raise argparse.ArgumentTypeError(f"line must be an integer in {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError("line numbers are 1-based")
    return path, number


def _sensitivity_override(value: str) -> tuple[str, int]:
    category, sep, number = value.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected CATEGORY=N, got {value!r}")
    try:
        parsed = int(number)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sensitivity must be an integer in {value!r}")
    return category, parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticopypaster",
        description="Detect duplicated paste fragments and recommend Extract Method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="index a project and summarize distributions")
    analyze.add_argument("root")
    analyze.add_argument("--config")
    analyze.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="evaluate a fragment as an already-due paste")
    check.add_argument("root")
    check.add_argument("--fragment", required=True)
    check.add_argument("--at", required=True, type=_site, metavar="FILE:LINE")
    check.add_argument("--config")
    check.add_argument("--json", action="store_true")

    simulate = sub.add_parser("simulate", help="replay a scenario file")
    simulate.add_argument("scenario")
    simulate.add_argument("--json", action="store_true")

    extract = sub.add_parser("extract", help="plan and apply the extraction")
    extract.add_argument("root")
    extract.add_argument("--fragment", required=True)
    extract.add_argument("--at", required=True, type=_site, metavar="FILE:LINE")
    extract.add_argument("--name", required=True)
    extract.add_argument("--config")
    extract.add_argument("--write", action="store_true")

    thresholds = sub.add_parser("thresholds", help="print percentile thresholds")
    thresholds.add_argument("root")
    thresholds.add_argument("--config")
    thresholds.add_argument(
        "--sensitivity",
        action="append",
        default=[],
        type=_sensitivity_override,
        metavar="CATEGORY=N",
    )
    thresholds.add_argument("--json", action="store_true")

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    commands = {"analyze": _cmd_analyze, "check": _cmd_check, "simulate": _cmd_simulate,
                "extract": _cmd_extract, "thresholds": _cmd_thresholds}
    try:
        return commands[args.command](args)
    except (_Fail, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


def main(argv: list[str] | None = None) -> int:
    """Run a command to its own exit code; once a reader closes stdout (`| head`), output goes to os.devnull."""
    stdout = sys.stdout

    def unless_gone(call, *args) -> None:  # a pipe that breaks mid-output or at the final flush stops no command
        try:
            call(*args)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())

    sys.stdout = SimpleNamespace(write=partial(unless_gone, stdout.write), flush=partial(unless_gone, stdout.flush))
    try:
        return run_command(sys.argv[1:] if argv is None else argv)
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Fail(f"cannot read {path}: {exc}") from exc


def _json_dump(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _cmd_analyze(args: argparse.Namespace) -> int:
    session = open_project(args.root, args.config)
    names = sorted(m.value for m in Submetric)
    summary: dict[str, dict] = {}
    if session.methods:
        thresholds = thresholds_for(session.distribution, session.settings.sensitivity)
        for submetric in Submetric:
            sample = session.distribution.samples[submetric]
            summary[submetric.value] = {
                "min": min(sample),
                "median": statistics.median(sample),
                "max": max(sample),
                "threshold": thresholds[submetric],
            }
    if args.json:
        _json_dump(
            {
                "methods": len(session.methods),
                "files": len(session.files),
                "warnings": sorted(session.warnings),
                "submetrics": summary,
            }
        )
        return EXIT_OK
    print(f"files read: {len(session.files)}")
    print(f"methods indexed: {len(session.methods)}")
    for warning in session.warnings:
        print(f"warning: {warning}")
    if summary:
        print(f"{'submetric':<40} {'min':>10} {'median':>10} {'max':>10} {'threshold':>10}")
        for name in names:
            row = summary[name]
            print(
                f"{name:<40} {_fmt(row['min']):>10} {_fmt(row['median']):>10}"
                f" {_fmt(row['max']):>10} {_fmt(row['threshold']):>10}"
            )
    else:
        print("no methods indexed; distributions are empty")
    return EXIT_OK


def _print_report(outcome: Recommendation | DropRecord) -> None:
    report = outcome.report
    print(f"triggered: {'yes' if isinstance(outcome, Recommendation) else 'no'}")
    if isinstance(outcome, DropRecord):
        print(f"reason: {outcome.reason}")
    if report is None:
        return
    print(
        f"duplicate methods: {report.duplicate_method_count}"
        f" | required all passed: {report.required_all_passed}"
        f" | any enabled passed: {report.any_enabled_passed}"
    )
    if report.reason:
        print(f"gate note: {report.reason}")
    if report.entries:
        print(f"{'submetric':<40} {'value':>10} {'threshold':>10} {'passed':>7}")
        for submetric in sorted(report.entries, key=lambda m: m.value):
            entry = report.entries[submetric]
            print(
                f"{submetric.value:<40} {_fmt(entry.value):>10}"
                f" {_fmt(entry.threshold):>10} {'yes' if entry.passed else 'no':>7}"
            )


def _print_matches(outcome: Recommendation | DropRecord) -> None:
    matches = outcome.matches if isinstance(outcome, Recommendation) else ()
    if matches:
        print("matches:")
        for match in matches:
            span = (
                f" lines {match.match_span[0]}-{match.match_span[1]}"
                if match.match_span
                else ""
            )
            print(f"  {match.kind:<5} {match.similarity:.3f} {match.method_id}{span}")


def _cmd_check(args: argparse.Namespace) -> int:
    session = open_project(args.root, args.config)
    fragment_text = _read_file(args.fragment)
    file_path, line = args.at
    event = PasteEvent(args.root, file_path, line, fragment_text, 0)
    why = ""
    try:
        fragment = validate_fragment(fragment_text)
    except InvalidFragment as exc:
        outcome, why = DropRecord(event, INVALID_FRAGMENT, 0), f": {exc}"
    else:
        outcome = evaluate_paste(session, event, fragment, session.settings.delay_seconds)

    if isinstance(outcome, DropRecord) and outcome.reason != NOT_TRIGGERED:
        if args.json:
            _json_dump({"triggered": False, "reason": outcome.reason})
        print(f"error: {outcome.reason} at {file_path}:{line}{why}", file=sys.stderr)
        return EXIT_ANALYSIS

    triggered = isinstance(outcome, Recommendation)
    if args.json:
        payload: dict = {"triggered": triggered}
        report = outcome.report
        if report is not None:
            payload["gate"] = report_to_dict(report)
        if triggered:
            payload["matches"] = [match_to_dict(m) for m in outcome.matches]
        else:
            payload["reason"] = outcome.reason
        _json_dump(payload)
    else:
        _print_report(outcome)
        _print_matches(outcome)
    return EXIT_OK if triggered else EXIT_NOT_TRIGGERED


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    log = run_scenario(scenario)
    if args.json:
        print(serialize_log(log), end="")
        return EXIT_OK
    if not log:
        print("no recommendations")
        return EXIT_OK
    for entry in log:
        if entry["type"] == "recommendation":
            gate = entry["gate"]
            print(
                f"t={entry['t']} recommendation {entry['project']}"
                f" {entry['file']}:{entry['line']}"
                f" duplicates={gate['duplicateMethodCount']} action={entry['action']}"
            )
        else:
            print(
                f"t={entry['t']} drop {entry['project']}"
                f" {entry['file']}:{entry['line']} reason={entry['reason']}"
            )
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    session = open_project(args.root, args.config)
    fragment_text = _read_file(args.fragment)
    file_path, line = args.at
    try:
        fragment = validate_fragment(fragment_text)
    except InvalidFragment as exc:
        raise _Fail(f"{INVALID_FRAGMENT} at {file_path}:{line}: {exc}") from None
    located = locate(session, file_path, line, fragment)
    if isinstance(located, str):
        raise _Fail(f"{located} at {file_path}:{line}")
    enclosing, matches, at = located
    summary = analyze_extractability(fragment, enclosing, enclosing.owner, at)
    plan = plan_extraction(summary, args.name, fragment, enclosing, enclosing.owner, matches, session.methods_by_id)
    result = apply_extraction(plan, session.files, session.tokens)
    for site, refusal in plan.left_alone:
        print(f"note: {site.file_path}:{site.start_line} left as it is: {refusal}", file=sys.stderr)
    if args.write:
        changed = {
            session.root / path: text
            for path, text in sorted(result.sources.items())
            if text != session.files.get(path)
        }
        _write_all(changed)
        for target in changed:
            print(f"wrote {target}")
    else:
        print(result.diff, end="")
    return EXIT_OK


def _write_all(contents: dict[Path, str]) -> None:
    """Write every file, or leave every file as it was.

    Each text is staged in a sibling temporary file, with its target's
    mode, and only when all are staged does each replace its target.
    Each replacement is atomic; only a failure between two of them can
    leave some files written and others not.
    """
    staged: dict[Path, Path] = {}
    try:
        for target, text in contents.items():
            staged[target] = temp = target.with_name(f".{target.name}.tmp")
            temp.write_text(text, encoding="utf-8")
            shutil.copymode(target, temp)
        for target, temp in staged.items():
            os.replace(temp, target)
    except OSError as exc:
        for temp in staged.values():
            temp.unlink(missing_ok=True)
        raise _Fail(f"cannot write {target}: {exc}") from exc


def _cmd_thresholds(args: argparse.Namespace) -> int:
    session = open_project(args.root, args.config)
    sensitivities = with_sensitivity(session.settings, dict(args.sensitivity)).sensitivity
    if not session.methods:
        raise _Fail("project has no indexed methods; thresholds are undefined")
    thresholds = thresholds_for(session.distribution, sensitivities)
    if args.json:
        _json_dump(
            {
                "sampleSize": session.distribution.sample_size,
                "sensitivity": sensitivities,
                "thresholds": {m.value: v for m, v in thresholds.items()},
                "samples": {
                    m.value: list(sample)
                    for m, sample in session.distribution.samples.items()
                },
            }
        )
        return EXIT_OK
    print(f"sample size: {session.distribution.sample_size}")
    print("sensitivity: " + ", ".join(f"{c}={sensitivities[c]}" for c in sorted(sensitivities)))
    print(f"{'submetric':<40} {'threshold':>10}")
    for submetric in sorted(thresholds, key=lambda m: m.value):
        print(f"{submetric.value:<40} {_fmt(thresholds[submetric]):>10}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
