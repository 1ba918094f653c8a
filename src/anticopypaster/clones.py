"""Duplicate detection over normalized token sequences and token bags.

Exact (type-1) matches compare the fragment's normalized token sequence
against contiguous runs of a method body; near matches fall back to
multiset overlap between token bags, which tolerates statement
reordering and small edits. Only exact matches are ever rewritten.

The scan reads each method's fingerprint (`body_texts`, `bag`,
`bag_size`), built once at index time, so a paste costs one pass over
the fragment per method rather than a rebuild of every method's tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

from .errors import UndefinedSimilarity
from .lexer import Token, token_bag, token_texts
from .source_model import Fragment, MethodUnit

EXACT = "exact"
NEAR = "near"


@dataclass(frozen=True)
class TokenBag:
    counts: tuple[tuple[str, int], ...]
    total_count: int

    def counter(self) -> Counter[str]:
        return Counter(dict(self.counts))


@dataclass(frozen=True)
class CloneMatch:
    method_id: str
    similarity: float
    kind: str
    match_span: tuple[int, int] | None = None


def normalize_bag(tokens: list[Token]) -> TokenBag:
    """Order-insensitive multiset of token texts; punctuation excluded."""
    counter = token_bag(tokens)
    return TokenBag(tuple(sorted(counter.items())), counter.total())


def overlap_similarity(a: TokenBag, b: TokenBag) -> float:
    """|a ∩ b| / max(|a|, |b|) over multisets; symmetric, in [0, 1]."""
    if a.total_count == 0 and b.total_count == 0:
        raise UndefinedSimilarity("both token bags are empty")
    shared = sum((a.counter() & b.counter()).values())
    return shared / max(a.total_count, b.total_count)


def find_subsequence(haystack: tuple[str, ...], needle: tuple[str, ...], start: int = 0) -> int:
    """Index of the first contiguous occurrence of needle, or -1."""
    width = len(needle)
    if not width or width > len(haystack) - start:
        return -1
    first = needle[0]
    stop = len(haystack) - width + 1
    i = start
    try:
        while True:
            i = haystack.index(first, i, stop)
            if haystack[i : i + width] == needle:
                return i
            i += 1
    except ValueError:
        return -1


def find_duplicates(
    fragment: Fragment, methods: list[MethodUnit], near_threshold: float
) -> list[CloneMatch]:
    """All methods duplicating the fragment, at most one match each.

    Exact matches win over near matches; results are ordered by method
    id for determinism. The method hosting the paste site participates
    like any other, since the pasted copy makes it a duplicate host.

    Two exact filters skip work without changing the result. A method
    whose bag lacks the fragment's longest word cannot hold it verbatim,
    so its exact search is skipped. A method whose bag size is too far
    from the fragment's (min/max < threshold, while the shared count is
    at most min) cannot be a near match, so its overlap is not counted;
    this is the first of SourcererCC's filters.
    """
    if not fragment.valid:
        raise ValueError("find_duplicates requires a valid fragment")
    if not 0 < near_threshold <= 1:
        raise ValueError("near-match threshold must be in (0, 1]")
    frag_seq = token_texts(fragment.tokens)
    frag_bag = token_bag(fragment.tokens)
    frag_size = frag_bag.total()
    last = len(frag_seq) - 1
    probe = max(frag_bag, key=len, default=None)
    matches = []
    for method in sorted(methods, key=attrgetter("id")):
        if probe is None or probe in method.bag:
            at = find_subsequence(method.body_texts, frag_seq)
        else:
            at = -1
        if at >= 0:
            span = (method.body_tokens[at].line, method.body_tokens[at + last].line)
            matches.append(CloneMatch(method.id, 1.0, EXACT, span))
            continue
        size = method.bag_size
        larger = max(frag_size, size)
        if larger == 0 or min(frag_size, size) / larger < near_threshold:
            continue
        # |frag ∩ body|: each fragment word counts at most as often as the body holds it.
        in_body = map(method.bag.get, frag_bag, repeat(0))
        similarity = sum(map(min, frag_bag.values(), in_body)) / larger
        if similarity >= near_threshold:
            matches.append(CloneMatch(method.id, similarity, NEAR))
    return matches
