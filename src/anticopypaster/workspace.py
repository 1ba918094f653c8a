"""Per-project sessions: scanning, settings, index refresh.

A session owns one project root: its indexed methods, metric
distributions, settings, and pending paste queue. Sessions never share
mutable state, which is what makes multi-project runs equivalent to
running each project alone.

The session also keeps each file revision's tokens, lexed once when the
file is indexed, and the duplicate scan's word index; due pastes and
extraction read them instead of lexing the file again or visiting every
method. So `files[p]` is written only together with
`refresh_index(session, [p])`, as `apply_edit` does. The stored tokens
carry the text they were lexed from, so they are the previous revision a
refresh splices from: only the changed span is lexed and paired again. A
save parses and measures only the members that span touches: the file's
other methods are carried with their facts, their vectors unless their
bags name a field or method that came or went (compared once per class),
and their indexed words while their ids are, and the distribution is
updated by the vectors that changed instead of being sorted anew. A
project without methods has an empty distribution.
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
from .lexer import Tokens, normalize_newlines, tokenize
from .metrics import (
    ProjectDistribution,
    build_distributions,
    method_vector,
    update_distributions,
    vector_values,
)
from .settings import CONFIG_FILENAME, Settings, load_settings
from .source_model import MethodUnit, index_file, method_at


@dataclass
class ProjectSession:
    root: Path
    settings: Settings
    files: dict[str, str] = field(default_factory=dict)
    # tokenize(files[p]) for every file that lexes; no entry for one that does not.
    tokens: dict[str, Tokens] = field(default_factory=dict)
    # In source_position order, so method_at can bisect.
    methods: list[MethodUnit] = field(default_factory=list)
    # The bag words of every method in `methods`.
    index: WordIndex = field(default_factory=WordIndex)
    # Sorted from the vectors of `methods`; a snapshot, so sessions may share the empty one.
    distribution: ProjectDistribution = build_distributions([])
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
            settings = Settings()

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
    session.distribution = build_distributions([m.vector for m in session.methods])
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


def _index_files(session: ProjectSession, rel_paths: list[str]) -> tuple[list[tuple], list[tuple]]:
    """Index each file again, or drop a deleted one; return the vectors that went and those that came.

    A file's stored tokens and methods are its previous revision. One that
    lexes keeps its new tokens even when indexing then fails; one that does
    not has none. Warnings name the file; indexing and lexing errors carry
    no path. A file's methods go in after those of the files sorting before
    it, in the order of their first lines, so `session.methods` stays in
    source_position order without a sort. A carried method whose vector is
    kept is in neither list.
    """
    keywords, index, methods = session.settings.keywords, session.index, session.methods
    removed, added = [], []
    for rel in rel_paths:
        lo, hi = _file_range(methods, rel)
        old, new = methods[lo:hi], []
        del methods[lo:hi]
        text, tokens = session.files.get(rel), session.tokens.pop(rel, None)
        try:
            if text is not None:
                tokens = session.tokens[rel] = tokenize(text, tokens)
                new = index_file(tokens, rel, old)[0]
        except EngineError as exc:
            session.warnings.append(f"{rel}: {exc}")
        # A carried method shares its old unit's bag.
        was = {id(m.bag): m for m in old}
        priors = [was.pop(id(m.bag), None) for m in new]
        kept = {m.id for m, prior in zip(new, priors) if prior is not None and prior.id == m.id}
        for method in old:
            if method.id not in kept:
                index.remove(method)
        removed += [m.vector for m in was.values()]
        renamed: dict[tuple[int, int], set[str]] = {}  # per old and new class: the names that came or went
        for method, prior in zip(new, priors):
            if prior is not None and (key := (id(prior.owner), id(method.owner))) not in renamed:
                then, now = prior.owner, method.owner
                renamed[key] = (then.field_names ^ now.field_names) | (then.method_names ^ now.method_names)
            # The vector reads the class only through the field and method names in the method's bag.
            if prior is not None and not (renamed[key] and method.bag.keys() & renamed[key]):
                method.vector = prior.vector
            else:
                method.vector = vector_values(method_vector(method, keywords))
                if prior is None or method.vector != prior.vector:
                    added.append(method.vector)
                    removed.extend([prior.vector] if prior else [])
            if method.id in kept:
                index.methods[method.id] = method
            else:
                index.add(method)
        methods[lo:lo] = new
    return removed, added


def refresh_index(session: ProjectSession, changed_paths: list[str]) -> None:
    """Re-index only the changed files and update the distribution by the vectors that changed.

    A changed file is lexed and paired again only where its text differs
    from that of its stored tokens, and only the members whose runs that
    window touches are parsed and measured again. Deleted files lose their
    methods, tokens and indexed words; pending events that point at them
    surface as FileMissing at the next tick. Untouched files keep their
    method ids, which are content-position based.
    """
    removed, added = _index_files(session, sorted(set(changed_paths)))
    session.distribution = update_distributions(session.distribution, removed, added)
