"""Deterministic scenario replay.

A scenario declares project roots and a time-ordered list of paste and
edit events plus a final clock value. Replaying drives the per-session
queues with a logical clock: queued events are evaluated at exactly
their due instants, before any same-time scenario event is applied, so
identical scenarios always produce byte-identical logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .decision import PasteEvent, enqueue_paste, outcome_to_dict, tick
from .errors import EngineError
from .workspace import open_project


class ScenarioError(EngineError):
    """Scenario file is malformed or references undeclared projects."""


@dataclass(frozen=True)
class ScenarioProject:
    root: str
    config: str | None = None


@dataclass(frozen=True)
class ScenarioEvent:
    kind: str  # "paste" | "edit"
    t: float
    root: str
    file: str
    line: int | None = None
    fragment: str | None = None
    content: str | None = None


@dataclass(frozen=True)
class Scenario:
    projects: tuple[ScenarioProject, ...]
    events: tuple[ScenarioEvent, ...]
    until: float
    base_dir: Path

    def resolve(self, root: str) -> Path:
        return (self.base_dir / root).resolve()


def _is_number(value: object) -> bool:
    """A finite JSON number; JSON's NaN and Infinity would never fall due."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _list_field(data: dict, key: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"'{key}' must be a list")
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Read and check a scenario file; any malformed field is a ScenarioError."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")

    projects = []
    for item in _list_field(data, "projects"):
        if not isinstance(item, dict) or not isinstance(item.get("root"), str):
            raise ScenarioError("each project needs a string 'root'")
        config = item.get("config")
        if config is not None and not isinstance(config, str):
            raise ScenarioError("a project's 'config' must be a string")
        projects.append(ScenarioProject(item["root"], config))
    if not projects:
        raise ScenarioError("scenario declares no projects")
    declared = {p.root for p in projects}

    events = []
    last_t = None
    for item in _list_field(data, "events"):
        if not isinstance(item, dict):
            raise ScenarioError("each event must be a JSON object")
        kind = item.get("type")
        if kind not in ("paste", "edit"):
            raise ScenarioError(f"unknown event type {kind!r}")
        t = item.get("t")
        if not _is_number(t):
            raise ScenarioError("every event needs a finite numeric 't'")
        if last_t is not None and t < last_t:
            raise ScenarioError("event timestamps must be non-decreasing")
        last_t = t
        root = item.get("root")
        if not isinstance(root, str) or root not in declared:
            raise ScenarioError(f"event references undeclared project {root!r}")
        file = item.get("file")
        if not isinstance(file, str):
            raise ScenarioError(f"{kind} events need a string 'file'")
        if kind == "paste":
            line = item.get("line")
            fragment = item.get("fragment")
            if not isinstance(line, int) or isinstance(line, bool) or not isinstance(fragment, str):
                raise ScenarioError("paste events need an integer 'line' and a string 'fragment'")
            events.append(ScenarioEvent("paste", t, root, file, line=line, fragment=fragment))
        else:
            content = item.get("content")
            if content is not None and not isinstance(content, str):
                raise ScenarioError("an edit's 'content' must be a string, or null to delete")
            events.append(ScenarioEvent("edit", t, root, file, content=content))

    until = data.get("until", last_t if last_t is not None else 0)
    if not _is_number(until):
        raise ScenarioError("'until' must be a finite number")
    return Scenario(tuple(projects), tuple(events), until, path.parent)


def run_scenario(scenario: Scenario) -> list[dict]:
    """Replay all events; the log holds recommendations and drops in order."""
    sessions = []
    for project in scenario.projects:
        config = scenario.base_dir / project.config if project.config else None
        sessions.append(open_project(scenario.resolve(project.root), config))
    by_root = {session.root: session for session in sessions}

    log: list[dict] = []

    def drain(limit: float) -> None:
        while True:
            dues = [s.queue.next_due() for s in sessions]
            candidates = [d for d in dues if d is not None and d <= limit]
            if not candidates:
                return
            now = min(candidates)
            for session in sessions:
                for outcome in tick(session, now):
                    log.append(outcome_to_dict(outcome))

    for item in scenario.events:
        drain(item.t)
        session = by_root[scenario.resolve(item.root)]
        if item.kind == "paste":
            event = PasteEvent(item.root, item.file, item.line, item.fragment, item.t)
            drop = enqueue_paste(session, event)
            if drop is not None:
                log.append(outcome_to_dict(drop))
        else:
            session.apply_edit(item.file, item.content)
    drain(scenario.until)
    return log


def serialize_log(log: list[dict]) -> str:
    return json.dumps({"log": log}, indent=2, sort_keys=True) + "\n"
