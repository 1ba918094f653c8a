"""Computations the benchmark checks the engine against, made apart from it.

Nothing here imports the engine. The tokenizer covers the Java subset
that `javagen` emits; clone matching is the brute-force definition
(every offset for exact runs, then `|a ∩ b| / max(|a|, |b|)` over token
multisets); thresholds are nearest-rank percentiles in exact rational
arithmetic; and a unified-diff applier checks that a diff applies to
the sources it claims to change.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
      | (?P<num>\d+)
      | (?P<punct>\.\.\.|[;,(){}\[\]@])
      | (?P<op>>>>=|<<=|>>=|>>>|==|!=|<=|>=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=
               |<<|>>|->|::|[-+*/%=<>!&|^~?:.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Tok:
    text: str
    line: int
    punct: bool


def tokens(text: str, first_line: int = 1) -> list[Tok]:
    """Tokens of generated Java; separators are flagged as punctuation."""
    out: list[Tok] = []
    line = first_line
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"oracle tokenizer cannot read {text[pos:pos + 20]!r}")
        kind = m.lastgroup
        if kind == "ws":
            line += m.group().count("\n")
        else:
            out.append(Tok(m.group(), line, kind == "punct"))
        pos = m.end()
    return out


def bag(toks: list[Tok]) -> Counter:
    return Counter(t.text for t in toks if not t.punct)


@dataclass(frozen=True)
class Match:
    method_id: str
    similarity: float
    kind: str
    span: tuple[int, int] | None


class MethodTable:
    """Each method's token texts, lines and bag, built once per project."""

    def __init__(self, methods):
        self.rows = []
        for m in sorted(methods, key=lambda m: m.id):
            toks = tokens(m.body_text, m.start_line)
            self.rows.append((m.id, tuple(t.text for t in toks), [t.line for t in toks], bag(toks)))

    def duplicates(self, fragment_text: str, threshold: float) -> list[Match]:
        """Brute-force exact-then-near matches, one per method, by method id."""
        frag = tokens(fragment_text)
        seq = tuple(t.text for t in frag)
        frag_bag = bag(frag)
        frag_size = sum(frag_bag.values())
        width = len(seq)
        out = []
        for method_id, texts, lines, body_bag in self.rows:
            hit = next(
                (i for i in range(len(texts) - width + 1) if texts[i : i + width] == seq),
                None,
            )
            if hit is not None:
                out.append(Match(method_id, 1.0, "exact", (lines[hit], lines[hit + width - 1])))
                continue
            denom = max(frag_size, sum(body_bag.values()))
            if denom == 0:
                continue
            similarity = sum((frag_bag & body_bag).values()) / denom
            if similarity >= threshold:
                out.append(Match(method_id, similarity, "near", None))
        return out


def nearest_rank(sample, sensitivity: int):
    """The ceil(s/100 · n)-th smallest value, 1-based, in exact arithmetic."""
    ordered = sorted(sample)
    rank = math.ceil(Fraction(sensitivity, 100) * len(ordered))
    return ordered[max(rank, 1) - 1]


def count_occurrences(haystack: tuple[str, ...], needle: tuple[str, ...]) -> list[int]:
    width = len(needle)
    return [i for i in range(len(haystack) - width + 1) if haystack[i : i + width] == needle]


_HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


class DiffError(Exception):
    """The diff does not apply to the given sources."""


def apply_unified_diff(diff: str, sources: dict[str, str]) -> dict[str, str]:
    """Apply a `difflib.unified_diff` text; every context and removed line must match."""
    result = dict(sources)
    lines = diff.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    while i < len(lines):
        if not lines[i].startswith("--- a/") or not lines[i + 1].startswith("+++ b/"):
            raise DiffError(f"expected a file header at diff line {i + 1}")
        path = lines[i][len("--- a/") :]
        if path not in result:
            raise DiffError(f"diff names unknown file {path}")
        old = result[path].split("\n")
        new: list[str] = []
        cursor = 0  # next old line (0-based) not yet copied
        i += 2
        while i < len(lines) and lines[i].startswith("@@"):
            m = _HUNK.match(lines[i])
            if m is None:
                raise DiffError(f"bad hunk header {lines[i]!r}")
            old_start = int(m.group(1))
            old_left = int(m.group(2)) if m.group(2) is not None else 1
            new_left = int(m.group(4)) if m.group(4) is not None else 1
            start = old_start - 1 if old_left else old_start
            if start < cursor:
                raise DiffError(f"{path}: overlapping hunks")
            new.extend(old[cursor:start])
            cursor = start
            i += 1
            while old_left or new_left:
                if i >= len(lines) or lines[i][:1] not in (" ", "-", "+"):
                    raise DiffError(f"{path}: hunk shorter than its header says")
                tag, text = lines[i][0], lines[i][1:]
                if tag in (" ", "-"):
                    if cursor >= len(old) or old[cursor] != text:
                        raise DiffError(f"{path}:{cursor + 1}: context does not match")
                    cursor += 1
                    old_left -= 1
                if tag in (" ", "+"):
                    new.append(text)
                    new_left -= 1
                i += 1
            if old_left < 0 or new_left < 0:
                raise DiffError(f"{path}: hunk longer than its header says")
        new.extend(old[cursor:])
        result[path] = "\n".join(new)
    return result
