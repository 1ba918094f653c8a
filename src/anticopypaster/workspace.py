"""Per-project sessions: scanning, settings, index refresh.

A session owns one project root: its indexed methods, metric
distributions, settings, and pending paste queue. Sessions never share
mutable state, which is what makes multi-project runs equivalent to
running each project alone.

The session also keeps each file revision's tokens, lexed once when the
file is indexed, and the duplicate scan's word index; due pastes and
extraction read them instead of lexing the file again or visiting every
method. So `files[p]` is written only together with
`refresh_index(session, [p])`, as `apply_edit` does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from fnmatch import fnmatch
from operator import attrgetter
from pathlib import Path

from .clones import WordIndex
from .decision import PasteQueue
from .errors import ConfigSyntax, EngineError, MissingRoot
from .lexer import Token, normalize_newlines, tokenize
from .metrics import ProjectDistribution, build_distributions, method_vector, vector_values
from .settings import CONFIG_FILENAME, Settings, default_settings, load_settings
from .source_model import MethodUnit, index_file, method_at


@dataclass
class ProjectSession:
    root: Path
    settings: Settings
    files: dict[str, str] = field(default_factory=dict)
    # tokenize(files[p]) for every file that lexes; no entry for one that does not.
    tokens: dict[str, list[Token]] = field(default_factory=dict)
    # In source_position order, so method_at can bisect.
    methods: list[MethodUnit] = field(default_factory=list)
    # The bag words of every method in `methods`.
    index: WordIndex = field(default_factory=WordIndex)
    distribution: ProjectDistribution | None = None
    queue: PasteQueue = field(default_factory=PasteQueue)
    warnings: list[str] = field(default_factory=list)

    @property
    def methods_by_id(self) -> Mapping[str, MethodUnit]:
        return self.index.methods

    def method_at(self, file_path: str, line: int) -> MethodUnit | None:
        return method_at(self.methods, file_path, line)

    def search_methods(self, paste_file: str) -> list[MethodUnit]:
        """The methods a paste in `paste_file` is compared with.

        The project scope gives `methods` itself, not a copy, and the file
        scope bisects to the file's methods, so a due paste does not visit
        every method; callers must not modify the list.
        """
        if self.settings.search_scope == "file":
            lo, hi = _file_range(self.methods, paste_file)
            return self.methods[lo:hi]
        return self.methods

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


def open_project(root: str | Path, config_path: str | Path | None = None) -> ProjectSession:
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

    session = ProjectSession(root_path, settings)
    for path in sorted(root_path.rglob("*.java")):
        rel = path.relative_to(root_path).as_posix()
        if _ignored(rel, settings.ignore):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            session.warnings.append(f"{rel}: {exc}")
            continue
        except OSError as exc:
            # A directory named like a source file, or a file that cannot be read.
            session.warnings.append(f"{rel}: {exc.strerror}")
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


_file_of = attrgetter("file_path")


def _file_range(methods: list[MethodUnit], path: str) -> tuple[int, int]:
    """Where the file's methods sit: adjacent, in source_position order."""
    return bisect_left(methods, path, key=_file_of), bisect_right(methods, path, key=_file_of)


def _index_files(session: ProjectSession, rel_paths: list[str]) -> None:
    """Lex, index and compute each new method's metric vector.

    A file that lexes keeps its tokens even when indexing then fails.
    Warnings name the file here; indexing and lexing errors carry no path.
    The files must have no methods in the session yet. Each file's methods
    go in after those of the files whose paths sort before it, in the
    order the file declares them, which is also the order of their first
    lines, so `session.methods` stays in source_position order without a
    sort.
    """
    keywords = session.settings.keywords
    for rel in rel_paths:
        text = session.files[rel]
        try:
            tokens = session.tokens[rel] = tokenize(text)
            methods, _ = index_file(text, rel, tokens)
        except EngineError as exc:
            session.warnings.append(f"{rel}: {exc}")
            continue
        for method in methods:
            method.vector = vector_values(method_vector(method, keywords))
            session.index.add(method)
        at = bisect_left(session.methods, rel, key=_file_of)
        session.methods[at:at] = methods


def _rebuild_distribution(session: ProjectSession) -> None:
    if session.methods:
        session.distribution = build_distributions([m.vector for m in session.methods])
    else:
        session.distribution = None


def refresh_index(session: ProjectSession, changed_paths: list[str]) -> None:
    """Re-index only the changed files and re-sort the distributions.

    Deleted files lose their methods, tokens and indexed words; pending
    events that point at them surface as FileMissing at the next tick.
    Untouched files keep their method ids, which are content-position
    based.
    """
    changed = set(changed_paths)
    methods = session.methods
    for path in changed:
        session.tokens.pop(path, None)
        lo, hi = _file_range(methods, path)
        for method in methods[lo:hi]:
            session.index.remove(method)
        del methods[lo:hi]
    _index_files(session, sorted(p for p in changed if p in session.files))
    _rebuild_distribution(session)

