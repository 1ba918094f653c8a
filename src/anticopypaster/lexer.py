"""Java lexer: one `findall` of a master regex, each match a gap (blanks and comments) and a lexeme.

No Python code runs per token: texts, kinds and lines are each one C-level
pass over the matches, and a column is counted from the gaps where read.
Each `Tokens` keeps the text it was lexed from, so it can serve as a file's
previous revision: given one, `tokenize` lexes only a window around the
change and reuses the old columns on either side (the incremental lexing of
Wagner & Graham, PLDI 1997), and pairs only the window when the previous
revision was paired: partners are offsets, so the rest copies as slices.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter
from typing import NamedTuple
from weakref import ref

from .errors import LexError


class TokenKind(str, Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    LITERAL = "literal"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.text!r}@{self.line}:{self.column})"


# The 50 reserved Java words. true/false/null are literals, not keywords.
JAVA_KEYWORDS = frozenset(
    {
        "abstract", "assert", "boolean", "break", "byte", "case", "catch",
        "char", "class", "const", "continue", "default", "do", "double",
        "else", "enum", "extends", "final", "finally", "float", "for",
        "goto", "if", "implements", "import", "instanceof", "int",
        "interface", "long", "native", "new", "package", "private",
        "protected", "public", "return", "short", "static", "strictfp",
        "super", "switch", "synchronized", "this", "throw", "throws",
        "transient", "try", "void", "volatile", "while",
    }
)

WORD_LITERALS = frozenset({"true", "false", "null"})

# The blanks and comments between two tokens.
_GAP = r"(?: \s+ | //[^\n]* | /\*[\s\S]*?\*/ )*"

# The gap, then one alternation tried left to right: the first alternative
# that matches wins, not the longest. So each closed form precedes its
# unclosed opener, `"""` is tried before `""`, and operators run longest
# first. Words, which never start at an ASCII digit as numbers do, go
# first. A character that starts no token is a lexeme of its own, and `\Z`
# ends the text, so the gap never has to give back what it took.
_TOKEN = re.compile(
    "(" + _GAP + r''')
    (   (?![0-9]) [\w$]+
      | [;,(){}\[\]@]
      | "{3} (?: [^"\\] | \\[\s\S] | "(?!"") )* "{3}
      | "(?!"") (?: [^"\\\n] | \\[\s\S] )* "
      | ' (?: [^'\\\n] | \\[\s\S] )* '
      | 0[xX][0-9a-fA-F_]* [lLfFdD]?
      | 0[bB][01_]* [lLfFdD]?
      | (?: [0-9][0-9_]* (?: \.[0-9][0-9_]* )? | \.[0-9][0-9_]* )
        (?: [eE][+-]?[0-9][0-9_]* )? [lLfFdD]?
      | /\* | "{3} | ["']
      | \.\.\.
      | >>>= | >>> | <<= | >>= | [-+*/%&|^=!<>]= | && | \|\| | \+\+ | --
      | << | >> | -> | :: | [-+*/%=<>!&|^~?:.]
      | [\s\S] | \Z
    )
    ''',
    re.VERBOSE,
)
_WHOLE_GAP = re.compile(_GAP, re.VERBOSE)

# Every lexeme the punctuation alternatives above can match.
PUNCTUATION_LEXEMES = frozenset({"...", ";", ",", "(", ")", "{", "}", "[", "]", "@"})
# Every lexeme the operator alternatives above can match.
_OPERATORS = (">>>= >>> <<= >>= -= += *= /= %= &= |= ^= == != <= >= && || ++ -- << >> -> :: "
              "- + * / % = < > ! & | ^ ~ ? : .")
# The kinds of reserved words, punctuation and operators; `_kind` gives the rest.
_KINDS = {**dict.fromkeys(JAVA_KEYWORDS, TokenKind.KEYWORD), **dict.fromkeys(WORD_LITERALS, TokenKind.LITERAL),
          **dict.fromkeys(PUNCTUATION_LEXEMES, TokenKind.PUNCTUATION),
          **dict.fromkeys(_OPERATORS.split(), TokenKind.OPERATOR)}
_UNCLOSED = {"/*": "unterminated block comment", '"""': "unterminated text block",
             '"': "unterminated string literal", "'": "unterminated string literal"}


def _kind(lexeme: str) -> TokenKind | None:
    """The kind of a lexeme not in `_KINDS`; None for one that is a lex error."""
    first = lexeme[0]
    if lexeme in _UNCLOSED:
        return None
    if first in "\"'0123456789.":
        return TokenKind.LITERAL
    # `[\w$]` also starts at `²`, `½` or `Ⅻ`; identifiers start only where str.isalpha holds.
    return TokenKind.IDENTIFIER if first.isalpha() or first in "_$" else None


def normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


@dataclass
class Tokens:
    """Token i is `Token(kinds[i], texts[i], lines[i], column(i))`; equal words share one `str`.

    `gaps[i]` is the text between token i - 1, or the start, and token i.
    `text` is the newline-normalized source the columns were lexed from.
    `pairs` is `match_delimiters(texts)`, paired when first read or spliced
    by `tokenize`, and kept as compactly as `lines`. On tokens spliced from a
    revision, `window` is (a weak reference to it, k, old_end, new_end): only
    tokens[k:new_end] were lexed again; from new_end on, token i is its token i - new_end + old_end.
    """

    texts: tuple[str, ...] = ()
    kinds: list[TokenKind] = field(default_factory=list)
    lines: array = field(default_factory=lambda: array("i"))
    gaps: tuple[str, ...] = ()
    text: str = field(default="", repr=False)
    window: tuple | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.texts)

    @cached_property
    def pairs(self) -> tuple[array, bool, bool]:
        return match_delimiters(self.texts)

    def column(self, i: int) -> int:
        """Column of token i, 1-based, counted back to the last line break before it."""
        width = 0
        while True:
            # The gap before the token, then the token before it; the text's start counts as a break.
            for piece in (self.gaps[i], self.texts[i - 1] if i else "\n"):
                if "\n" in piece:
                    return width + len(piece) - piece.rindex("\n")
                width += len(piece)
            i -= 1

    def __getitem__(self, i: int) -> Token:
        i = range(len(self.texts))[i]
        return Token(self.kinds[i], self.texts[i], self.lines[i], self.column(i))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.texts)))


def _lex(text: str, pos: int, endpos: int, line: int) -> tuple[Tokens, str, tuple[str, int] | None]:
    """Lex text[pos:endpos], which starts line `line`, as a whole text: the tokens, the gap after
    them, and the first lex error's message and line, if there is one."""
    items = _TOKEN.findall(text, pos, endpos)
    if len(items) > 1 and not items[-2][1]:
        items.pop()  # `\Z` matched after the gap at the end and again on its own
    end_gap = items.pop()[0]
    gaps = tuple(map(itemgetter(0), items))
    texts = list(map(itemgetter(1), items))
    shared: dict[str, str] = {}
    texts = tuple(map(shared.setdefault, texts, texts))
    kind_of = _KINDS.copy()
    bad, spans_lines = [], False  # lex errors; literals holding a line break
    for lexeme in shared.keys() - _KINDS.keys():
        kind = kind_of[lexeme] = _kind(lexeme)
        if kind is None:
            bad.append(lexeme)
        spans_lines = spans_lines or kind is TokenKind.LITERAL and "\n" in lexeme
    # Gaps repeat, so each distinct one's line breaks are counted once.
    breaks = map({gap: gap.count("\n") for gap in set(gaps)}.__getitem__, gaps)
    if spans_lines:
        breaks = map(add, breaks, chain((0,), map(str.count, texts, repeat("\n"))))
    lines = array("i", accumulate(breaks, initial=line))
    del lines[0]
    tokens = Tokens(texts, list(map(kind_of.__getitem__, texts)), lines, gaps, text[pos:endpos])
    if not bad:
        return tokens, end_gap, None
    i = min(map(texts.index, bad))
    return tokens, end_gap, (_UNCLOSED.get(texts[i], f"unexpected character {texts[i][0]!r}"), lines[i])


def tokenize(text: str, previous: Tokens | None = None) -> Tokens:
    """Lex arbitrary UTF-8 source text into token columns.

    Raises LexError with the starting line for unterminated block
    comments, string/char literals and text blocks, and for a character
    that starts no token. `previous`, the tokens of an earlier revision, lets it lex (and pair,
    if `previous` was paired) only a window around the change from `previous.text`, to the same result.
    """
    text = normalize_newlines(text)
    end = len(text)
    if previous is None:
        tokens, _, error = _lex(text, 0, end, 1)
        if error:
            raise LexError(*error)
        return tokens
    old, old_text = previous, previous.text
    prefix = _common_prefix(old_text, text)
    # The suffix may not overlap the prefix in either text.
    suffix = min(_common_prefix(old_text[::-1], text[::-1]), min(len(old_text), end) - prefix)
    # Start at a line start, at or before the change, where the old lex was between tokens.
    line = old_text.count("\n", 0, prefix) + 1
    start = old_text.rfind("\n", 0, prefix) + 1
    while line > 1:
        k, at = _split_at_line(old, line)
        if at >= 0:
            break
        for _ in range(line - (old.lines[k - 1] if k else 1)):
            start = old_text.rfind("\n", 0, start - 1) + 1
            line -= 1
    else:
        k, at = 0, 0
    # Stop at a line start in the unchanged tail where both lexes are between tokens: at the tail's
    # own start when both texts start a line there, so that a window of whole lines holds only the change.
    stop, delta = end - suffix, len(old_text) - end
    if not stop or text[stop - 1] != "\n" or old_text[stop + delta - 1 : stop + delta] != "\n":
        stop = text.find("\n", stop) + 1 or end
    while True:
        window, gap, error = _lex(text, start, stop, line)
        if stop == end and error:
            raise LexError(*error)
        old_line = line + old_text.count("\n", start, stop + delta)
        j, tail_at = (len(old), 0) if stop == end else _split_at_line(old, old_line)
        if not error and tail_at >= 0:
            break
        stop = text.find("\n", start + 2 * (stop - start)) + 1 or end
    # Join the gaps on either side of the window to the old ones; past the last token there is none.
    gaps = [*window.gaps, gap + "".join(old.gaps[j : j + 1])[tail_at:]]
    gaps[0] = "".join(old.gaps[k : k + 1])[:at] + gaps[0]
    if j == len(old):
        gaps.pop()
    lines = old.lines[j:]
    shift = text.count("\n", start, stop) - old_text.count("\n", start, stop + delta)
    if shift:
        lines = array("i", map(add, lines, repeat(shift)))
    tokens = Tokens(
        old.texts[:k] + window.texts + old.texts[j:],
        old.kinds[:k] + window.kinds + old.kinds[j:],
        old.lines[:k] + window.lines + lines,
        old.gaps[:k] + tuple(gaps) + old.gaps[j + 1 :],
        text,
        (ref(old), k, j, k + len(window)),
    )
    if "pairs" in old.__dict__:
        _splice_pairs(tokens, old)
    return tokens


def _splice_pairs(tokens: Tokens, old: Tokens) -> None:
    """Give `tokens` a pair table spliced from that of `old`, the revision it was spliced from.

    When each window pairs, and nests, among itself, every other pair keeps its offset but those
    enclosing the window, whose closers a walk of the tail finds by jumping over its own pairs.
    Otherwise the file pairs when read.
    """
    table, braces_paired, nested = old.pairs
    _, k, old_end, new_end = tokens.window
    inner = _own_pairs(tokens.texts[k:new_end])
    if not nested or inner is None or _own_pairs(old.texts[k:old_end]) is None:
        return
    spliced = table[:k] + inner + table[old_end:]
    shift, i, n = new_end - old_end, old_end, len(table)
    while shift and i < n:
        offset = table[i]
        if offset > 0:
            i += offset
        elif i + offset < k:
            spliced[i + shift] = offset - shift
            spliced[i + offset] += shift
        i += 1
    tokens.pairs = spliced, braces_paired, True


def _split_at_line(tokens: Tokens, line: int) -> tuple[int, int]:
    """(k, at): token k is the first on or after `line`, which starts at gaps[k][at].

    `at` is -1 when the line starts inside a token or comment, or past the last token."""
    lines = tokens.lines
    k = bisect_left(lines, line)
    if k == len(lines) or k and lines[k - 1] + tokens.texts[k - 1].count("\n") >= line:
        return k, -1
    gap = tokens.gaps[k]
    at = len(gap)
    for _ in range(lines[k] - line + 1):
        at = gap.rfind("\n", 0, at)
    at += 1
    # The lexer's own reading of the gap must reach the line start.
    return k, at if _WHOLE_GAP.match(gap, 0, at).end() == at else -1


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, by bisecting on slice equality."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def find_run(tokens: Tokens, run: tuple[str, ...], line: int, column: int = 1) -> int:
    """Index of the first token on `line`, at or after `column`, that starts `run`, or -1."""
    texts, lines = tokens.texts, tokens.lines
    for i in range(bisect_left(lines, line), bisect_left(lines, line + 1)):
        if texts[i : i + len(run)] == run and tokens.column(i) >= column:
            return i
    return -1


def token_bag(texts: tuple[str, ...]) -> Counter[str]:
    """Multiset of token texts, punctuation excluded.

    Keys keep the order of their first appearance in `texts`, so the
    duplicate scan breaks ties between equally rare words the same way
    on every run.
    """
    bag = Counter(texts)
    for text in PUNCTUATION_LEXEMES:
        bag.pop(text, None)
    return bag


_OPENER_OF = {")": "(", "]": "[", "}": "{"}
_DELIMITERS = frozenset("()[]{}")


def match_delimiters(texts: tuple[str, ...]) -> tuple[array, bool, bool]:
    """Offset from each token to its partner, 0 for none; whether every brace has one; whether the pairs nest.

    `(`, `[` and `{` are each matched by their own depth, so a stray
    token of one kind never shifts the pairs of another: in `( { ) }`
    the parens pair and the braces pair, and the pairs do not nest. One
    stack serves every kind until a closer meets another kind's opener;
    then the pairing starts again with a stack per kind, which never does.
    """
    for nested, pending in ((True, dict.fromkeys("([{", [])), (False, {"(": [], "[": [], "{": []})):
        match, braces_paired = array("i", [0]) * len(texts), True
        for i in compress(count(), map(_DELIMITERS.__contains__, texts)):
            text = texts[i]
            if text in pending:
                pending[text].append(i)
                continue
            opener = _OPENER_OF[text]
            stack = pending[opener]
            if not stack:
                braces_paired = braces_paired and text != "}"
            elif texts[stack[-1]] != opener:
                break
            else:
                j = stack.pop()
                match[i] = j - i
                match[j] = i - j
        else:
            return match, braces_paired and "{" not in map(texts.__getitem__, pending["{"]), nested


def _own_pairs(texts: tuple[str, ...]) -> array | None:
    """`match_delimiters(texts)`'s table when every delimiter of `texts` pairs, and nests, among them; else None."""
    table, _, nested = match_delimiters(texts)
    return table if nested and len(texts) - table.count(0) == sum(map(_DELIMITERS.__contains__, texts)) else None
