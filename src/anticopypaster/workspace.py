"""Per-project sessions: scanning, settings, routing, index refresh.

A session owns one project root: its indexed methods, metric
distributions, settings, and pending paste queue. Sessions never share
mutable state, which is what makes multi-project runs equivalent to
running each project alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from .decision import PasteEvent, PasteQueue
from .errors import ConfigSyntax, EngineError, MissingRoot, UnknownProject
from .lexer import normalize_newlines
from .metrics import ProjectDistribution, build_distributions
from .settings import CONFIG_FILENAME, Settings, default_settings, load_settings
from .source_model import ClassContext, MethodUnit, index_file, method_at


@dataclass
class ProjectSession:
    root: Path
    declared_root: str
    settings: Settings
    files: dict[str, str] = field(default_factory=dict)
    methods: list[MethodUnit] = field(default_factory=list)
    classes: list[ClassContext] = field(default_factory=list)
    distribution: ProjectDistribution | None = None
    queue: PasteQueue = field(default_factory=PasteQueue)
    warnings: list[str] = field(default_factory=list)

    @property
    def methods_by_id(self) -> dict[str, MethodUnit]:
        return {m.id: m for m in self.methods}

    def method_at(self, file_path: str, line: int) -> MethodUnit | None:
        return method_at(self.methods, file_path, line)

    def search_methods(self, paste_file: str) -> list[MethodUnit]:
        if self.settings.search_scope == "file":
            return [m for m in self.methods if m.file_path == paste_file]
        return list(self.methods)

    def apply_edit(self, file_path: str, new_content: str | None) -> None:
        """Update the in-memory view of one file; None deletes it."""
        if new_content is None:
            self.files.pop(file_path, None)
        else:
            self.files[file_path] = normalize_newlines(new_content)
        refresh_index(self, [file_path])


def _ignored(rel_path: str, globs: tuple[str, ...]) -> bool:
    for pattern in globs:
        if fnmatch(rel_path, pattern):
            return True
        if pattern.startswith("**/") and fnmatch(rel_path, pattern[3:]):
            return True
    return False


def open_project(
    root: str | Path,
    config_path: str | Path | None = None,
    declared_root: str | None = None,
) -> ProjectSession:
    """Index a source tree and build its session.

    Settings come from the explicit config path, else from
    `<root>/.anticopypaster.json` when present, else defaults. Files
    that fail to index are skipped with a warning; the session still
    opens.
    """
    root_path = Path(root).resolve()
    if not root_path.is_dir():
        raise MissingRoot(f"project root {root} does not exist")

    if config_path is not None:
        settings = _read_settings(Path(config_path))
    else:
        default_config = root_path / CONFIG_FILENAME
        if default_config.is_file():
            settings = _read_settings(default_config)
        else:
            settings = default_settings()

    session = ProjectSession(root_path, declared_root or str(root), settings)
    for path in sorted(root_path.rglob("*.java")):
        rel = path.relative_to(root_path).as_posix()
        if _ignored(rel, settings.ignore):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            session.warnings.append(f"{rel}: {exc}")
            continue
        session.files[rel] = normalize_newlines(text)
    _index_files(session, sorted(session.files))
    _rebuild_distribution(session)
    return session


def _read_settings(path: Path) -> Settings:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigSyntax(f"cannot read config {path}: {exc}") from exc
    return load_settings(text)


def _index_files(session: ProjectSession, rel_paths: list[str]) -> None:
    for rel in rel_paths:
        try:
            methods, classes = index_file(session.files[rel], rel)
        except EngineError as exc:
            session.warnings.append(f"{rel}: {exc}")
            continue
        session.methods.extend(methods)
        session.classes.extend(classes)
    session.methods.sort(key=lambda m: m.id)


def _rebuild_distribution(session: ProjectSession) -> None:
    if session.methods:
        session.distribution = build_distributions(session.methods, session.settings.keywords)
    else:
        session.distribution = None


def refresh_index(session: ProjectSession, changed_paths: list[str]) -> None:
    """Re-index only the changed files and rebuild distributions.

    Deleted files lose their methods; pending events that point at them
    surface as FileMissing at the next tick. Untouched files keep their
    method ids, which are content-position based.
    """
    changed = set(changed_paths)
    session.methods = [m for m in session.methods if m.file_path not in changed]
    session.classes = [c for c in session.classes if c.file_path not in changed]
    _index_files(session, sorted(p for p in changed if p in session.files))
    _rebuild_distribution(session)


@dataclass
class Workspace:
    """Sessions keyed by canonical root path."""

    sessions: dict[Path, ProjectSession] = field(default_factory=dict)

    def open(
        self,
        root: str | Path,
        config_path: str | Path | None = None,
        declared_root: str | None = None,
    ) -> ProjectSession:
        session = open_project(root, config_path, declared_root)
        self.sessions[session.root] = session
        return session

    def route_event(self, event: PasteEvent) -> ProjectSession:
        key = Path(event.project_root).resolve()
        session = self.sessions.get(key)
        if session is None:
            raise UnknownProject(f"no open session for {event.project_root}")
        return session
