"""Duplicate detection over normalized token sequences and token bags.

Exact (type-1) matches compare the fragment's normalized token sequence
against contiguous runs of a method body; near matches fall back to
multiset overlap between token bags, which tolerates statement
reordering and small edits. Only exact matches are ever rewritten.

The scan reads each method's fingerprint (`body_texts`, `bag`,
`bag_size`), built once at index time, and a `WordIndex` from each bag
word to the methods holding it, which the session keeps up to date as
files are indexed and re-indexed. A paste looks up the fragment's rarest
words and compares only the methods holding them (SourcererCC's prefix
filter), so its cost follows the number of possible matches rather than
the size of the project.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
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


def find_subsequence(haystack: tuple[str, ...], needle: tuple[str, ...]) -> int:
    """Index of the first contiguous occurrence of needle, or -1."""
    width = len(needle)
    if not width or width > len(haystack):
        return -1
    first = needle[0]
    stop = len(haystack) - width + 1
    i = 0
    try:
        while True:
            i = haystack.index(first, i, stop)
            if haystack[i : i + width] == needle:
                return i
            i += 1
    except ValueError:
        return -1


class WordIndex:
    """Each bag word mapped to the ids of the methods whose bag holds it.

    A word held by one method maps straight to that method's id, and a set
    is kept only for words held by two or more: nearly every word of a
    project is held by a single method, and a set per word would cost more
    memory than the rest of the index. `methods` maps each id back to its
    method.
    """

    def __init__(self, methods: Iterable[MethodUnit] = ()) -> None:
        self.methods: dict[str, MethodUnit] = {}
        self.holders: dict[str, str | set[str]] = {}
        for method in methods:
            self.add(method)

    def add(self, method: MethodUnit) -> None:
        holders = self.holders
        key = method.id
        self.methods[key] = method
        for word in method.bag:
            held = holders.setdefault(word, key)
            if isinstance(held, set):
                held.add(key)
            elif held != key:
                holders[word] = {held, key}

    def remove(self, method: MethodUnit) -> None:
        holders = self.holders
        key = method.id
        self.methods.pop(key, None)
        for word in method.bag:
            held = holders.get(word)
            if held == key:
                del holders[word]
            elif isinstance(held, set):
                held.discard(key)
                if len(held) == 1:
                    holders[word] = held.pop()

    def count(self, word: str) -> int:
        """Number of methods whose bag holds the word."""
        held = self.holders.get(word)
        if held is None:
            return 0
        return 1 if isinstance(held, str) else len(held)


def find_duplicates(
    fragment: Fragment,
    methods: list[MethodUnit],
    near_threshold: float,
    index: WordIndex | None = None,
) -> list[CloneMatch]:
    """All methods duplicating the fragment, at most one match each.

    Exact matches win over near matches; results are ordered by method
    id for determinism. The method hosting the paste site participates
    like any other, since the pasted copy makes it a duplicate host.
    Only methods in `methods` are reported. `index` must hold at least
    those methods (a session's index holds all of its own); without one,
    a throwaway index of `methods` is built. When `methods` is everything
    the index holds, candidates are read from the index alone, so the scan
    never visits the methods it rules out.

    Two exact filters skip work without changing the result. The prefix
    filter takes the fragment's words from rarest to most common until
    the words not yet taken make up less than the threshold of the
    fragment's bag, and compares only methods holding a taken word: any
    other method shares at most the words not taken, so its similarity
    stays below the threshold, and an exact host holds every word. Then a
    method whose bag size is too far from the fragment's (min/max <
    threshold, while the shared count is at most min) cannot be a near
    match, so its overlap is not counted. Both are SourcererCC's filters.
    A method's body is searched for the exact sequence only when its bag
    is at least the fragment's size and holds the rarest word at least as
    often, as an exact host's must; most candidates hold only some other
    taken word, so the scan reads their stored sizes and bags, not their
    token sequences.
    """
    if not fragment.valid:
        raise ValueError("find_duplicates requires a valid fragment")
    if not 0 < near_threshold <= 1:
        raise ValueError("near-match threshold must be in (0, 1]")
    if index is None:
        index = WordIndex(methods)
    frag_seq = token_texts(fragment.tokens)
    frag_bag = token_bag(fragment.tokens)
    frag_size = frag_bag.total()
    last = len(frag_seq) - 1
    hosts = methods
    rarest, rarest_count = None, 0
    if frag_size:
        holders = index.holders
        ids: set[str] = set()
        rest = frag_size
        words = sorted(frag_bag, key=index.count)
        rarest = words[0]
        rarest_count = frag_bag[rarest]
        for word in words:
            held = holders.get(word)
            if isinstance(held, str):
                ids.add(held)
            elif held is not None:
                ids |= held
            rest -= frag_bag[word]
            if rest / frag_size < near_threshold:
                break
        if len(methods) == len(index.methods):
            hosts = [index.methods[key] for key in ids]
        else:
            hosts = [m for m in methods if m.id in ids]
    matches = []
    for method in hosts:
        size = method.bag_size
        if size >= frag_size and (rarest is None or method.bag.get(rarest, 0) >= rarest_count):
            at = find_subsequence(method.body_texts, frag_seq)
            if at >= 0:
                span = (method.body_tokens[at].line, method.body_tokens[at + last].line)
                matches.append(CloneMatch(method.id, 1.0, EXACT, span))
                continue
        larger = max(frag_size, size)
        if larger == 0 or min(frag_size, size) / larger < near_threshold:
            continue
        # |frag ∩ body|: each fragment word counts at most as often as the body holds it.
        in_body = map(method.bag.get, frag_bag, repeat(0))
        similarity = sum(map(min, frag_bag.values(), in_body)) / larger
        if similarity >= near_threshold:
            matches.append(CloneMatch(method.id, similarity, NEAR))
    matches.sort(key=attrgetter("method_id"))
    return matches
