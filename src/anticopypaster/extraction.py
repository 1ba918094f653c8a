"""Extract Method feasibility, planning, rewriting, and verification.

Feasibility is a dataflow approximation: a fragment is extractable when
it needs at most one value back from the new method and contains no
control flow escaping it. A site is the run of tokens the duplicate scan
matched, at the index of its first token in its file; in the paste-site
method it is the run the flow analysis read. One rule, `_refusal`, says
which runs may become calls: the paste site must pass it, and an exact
copy that fails it is left alone. Application replaces each site's run
with a call and inserts the new method after the paste-site method; near
matches are never touched. An inlining check substitutes the generated
body back into each call and compares it with the run at the site.
"""

from __future__ import annotations

import difflib
import re
import textwrap
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Mapping

from .clones import EXACT, CloneMatch, find_subsequence
from .errors import (
    IllegalFlow,
    InvalidIdentifier,
    LexError,
    MissingContext,
    NameCollision,
    StaleSite,
    TooManyOutputs,
    UnresolvedType,
)
from .lexer import (
    JAVA_KEYWORDS,
    WORD_LITERALS,
    Tokens,
    TokenKind,
    find_run,
    tokenize,
)
from .source_model import ClassContext, Fragment, MethodUnit, local_declarations, method_declarations
from .statements import ASSIGNMENT_OPS

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")
# Identifiers that javac refuses as a method name, though they are not among the reserved words.
_RESTRICTED_NAMES = frozenset({"_", "yield"})
# What a site's run follows: the end of a statement or a block's brace, so that the run starts a statement.
_BEFORE_STATEMENT = frozenset({";", "{", "}"})


@dataclass(frozen=True)
class Parameter:
    name: str
    declared_type: str


@dataclass(frozen=True)
class DataFlowSummary:
    inputs: tuple[Parameter, ...]
    outputs: tuple[Parameter, ...]
    output_declared_inside: bool
    at: int  # the analyzed run's first token in the paste-site method's file


@dataclass(frozen=True)
class TargetSite:
    method_id: str
    file_path: str
    start_line: int
    end_line: int
    token: int  # the run's first token in the file's tokens


@dataclass(frozen=True)
class ExtractionPlan:
    """Extract `fragment` into a method after `enclosing`, with its modifiers; `left_alone`: each copy kept, and why."""

    method_name: str
    parameter_list: tuple[Parameter, ...]
    return_type: str
    body_text: str
    call_statement: str
    target_sites: tuple[TargetSite, ...]
    left_alone: tuple[tuple[TargetSite, str], ...]
    enclosing: MethodUnit
    fragment: Fragment

    @property
    def signature(self) -> str:
        params = ", ".join(f"{p.declared_type} {p.name}" for p in self.parameter_list)
        method = self.enclosing
        static = "static " if method.is_static else ""
        generic = f"{method.type_parameters} " if method.type_parameters else ""
        throws = f" throws {', '.join(method.thrown)}" if method.thrown else ""
        return f"private {static}{generic}{self.return_type} {self.method_name}({params}){throws}"


def analyze_extractability(
    fragment: Fragment, enclosing: MethodUnit, owner: ClassContext, at: int | None = None
) -> DataFlowSummary:
    """Infer the inputs, outputs, and flow violations of a fragment.

    The fragment is the run at token `at` of the method's file, by default
    its first copy in the body; `_refusal` must accept it. Inputs are
    variables used in the fragment that name a parameter, or a local in
    scope where it starts, ordered by first use. Outputs are locals
    declared or assigned in the fragment and read after it. Class fields
    never count: they stay visible to the new method.
    """
    frag_texts = fragment.tokens.texts
    texts, (lo, hi) = enclosing.tokens.texts, enclosing.body
    if at is None:
        at = find_subsequence(texts, frag_texts, lo, hi)
    frag_end = at + len(frag_texts)
    if at < lo or frag_end > hi or texts[at:frag_end] != frag_texts:
        raise MissingContext("fragment is not a contiguous span of the enclosing method")
    if refusal := _refusal(enclosing, at, enclosing):
        raise MissingContext(f"the fragment at {enclosing.file_path}:{enclosing.tokens.lines[at]} {refusal}")

    frag_decls = local_declarations(fragment.tokens, *fragment.body)
    # The parameter or local that each name means where the fragment starts.
    declared = method_declarations(enclosing, at)

    # One pass finds the inputs, in order of first use, and the token
    # index of each name's first write.
    kinds = fragment.tokens.kinds
    inputs: dict[str, Parameter] = {}
    assigned: dict[str, int] = {}
    for k, name in enumerate(frag_texts):
        prev = frag_texts[k - 1] if k > 0 else ""
        if kinds[k] is not TokenKind.IDENTIFIER or prev == ".":
            continue
        nxt = frag_texts[k + 1] if k + 1 < len(frag_texts) else ""
        if nxt in ASSIGNMENT_OPS or nxt in ("++", "--") or prev in ("++", "--"):
            assigned.setdefault(name, k)
        if nxt == "(" or name in inputs:
            continue
        decl = frag_decls.get(name)
        if decl is not None and decl.token_index <= k:
            continue
        if name in declared:
            inputs[name] = Parameter(name, declared[name].declared_type)
    for name, decl in frag_decls.items():
        assigned.setdefault(name, decl.token_index)

    # Names read after the fragment: identifiers not after '.' nor before a plain '='.
    method_kinds = enclosing.tokens.kinds
    read_after = {
        texts[k]
        for k in range(frag_end, hi)
        if method_kinds[k] is TokenKind.IDENTIFIER and texts[k - 1] != "." and texts[k + 1] != "="
    }
    outputs: list[Parameter] = []
    for name in sorted(assigned.keys() & read_after, key=assigned.get):
        decl = frag_decls.get(name) or declared.get(name)
        if decl is not None:
            outputs.append(Parameter(name, decl.declared_type))
        elif name not in owner.field_names and name not in owner.method_names:
            raise UnresolvedType(name)  # a class member persists without plumbing

    declared_inside = len(outputs) == 1 and outputs[0].name in frag_decls
    return DataFlowSummary(tuple(inputs.values()), tuple(outputs), declared_inside, at)


def _refusal(method: MethodUnit, token: int, enclosing: MethodUnit, params: tuple[Parameter, ...] = ()) -> str:
    """Why the run at `token` of `method` may not become a call of the method extracted from `enclosing`; "" if it may.

    The run starts a statement; its method is static only if `enclosing`
    is, and names each type `enclosing` throws, as written. Each of `params`
    is a parameter or local there with its paste-site type (a field is not).
    """
    if method.tokens.texts[token - 1] not in _BEFORE_STATEMENT:
        return "does not start a statement"
    if method.is_static and not enclosing.is_static:
        return f"{method.name} is static and {enclosing.name} is not"
    if missing := [t for t in enclosing.thrown if t not in method.thrown]:
        return f"{method.name} does not declare throws {', '.join(missing)}"
    declared = method_declarations(method, token) if params else {}
    for p in params:
        if p.name not in declared or declared[p.name].declared_type != p.declared_type:
            return f"{p.name} is not a parameter or local of type {p.declared_type} there"
    return ""


def plan_extraction(
    summary: DataFlowSummary,
    name: str,
    fragment: Fragment,
    enclosing: MethodUnit,
    owner: ClassContext,
    matches: list[CloneMatch],
    methods_by_id: Mapping[str, MethodUnit],
) -> ExtractionPlan:
    """Turn the summary of the fragment's flow in `enclosing` into a concrete rewrite plan.

    Each exact match is a run: the analyzed one (`summary.at`) in the
    paste-site method, the match's own elsewhere. It becomes a site if
    `_refusal` accepts it, given the inputs and an output declared outside
    the fragment as the names it passes; otherwise it is left alone.
    """
    if not _IDENTIFIER_RE.match(name) or name in JAVA_KEYWORDS or name in WORD_LITERALS or name in _RESTRICTED_NAMES:
        raise InvalidIdentifier(name)
    if name in owner.method_names:
        raise NameCollision(name)
    if fragment.illegal_flow:
        raise IllegalFlow(list(fragment.illegal_flow))
    if len(summary.outputs) > 1:
        raise TooManyOutputs([p.name for p in summary.outputs])

    output = summary.outputs[0] if summary.outputs else None
    return_type = output.declared_type if output else "void"
    body = textwrap.dedent(fragment.text)
    if output:
        body = f"{body}\nreturn {output.name};"

    args = ", ".join(p.name for p in summary.inputs)
    if output is None:
        call = f"{name}({args});"
    elif summary.output_declared_inside:
        call = f"{output.declared_type} {output.name} = {name}({args});"
    else:
        call = f"{output.name} = {name}({args});"

    params = summary.inputs if summary.output_declared_inside else summary.inputs + summary.outputs
    runs = []  # each exact match's site and its refusal
    for match in matches:
        if match.kind != EXACT:
            continue
        method = methods_by_id[match.method_id]
        token = summary.at if method.id == enclosing.id else match.token
        lines = method.tokens.lines
        site = TargetSite(method.id, method.file_path, lines[token], lines[token + len(fragment.tokens) - 1], token)
        runs.append((site, _refusal(method, token, enclosing, params)))
    runs.sort(key=lambda run: (run[0].file_path, run[0].token))

    return ExtractionPlan(
        method_name=name,
        parameter_list=summary.inputs,
        return_type=return_type,
        body_text=body,
        call_statement=call,
        target_sites=tuple(site for site, refusal in runs if not refusal),
        left_alone=tuple(run for run in runs if run[1]),
        enclosing=enclosing,
        fragment=fragment,
    )


@dataclass(frozen=True)
class AppliedSite:
    site: TargetSite
    call_line: int
    call_column: int


@dataclass(frozen=True)
class ApplyResult:
    sources: dict[str, str]
    diff: str
    call_sites: tuple[AppliedSite, ...]


def apply_extraction(
    plan: ExtractionPlan, sources: Mapping[str, str], tokens: Mapping[str, Tokens] | None = None
) -> ApplyResult:
    """Rewrite all exact sites and insert the new method; all-or-nothing.

    Every site is re-verified against the current sources first; one
    stale site aborts the whole application with the sources untouched.
    `tokens` may hold lexed files, such as a session's stored tokens; each
    is read only where its `text` is `sources[p]`, and other paths are
    lexed here.
    Each call replaces exactly the characters of its site's run, from the
    first token to the end of the last, so other statements on those
    lines stay. The method goes in just past the paste-site method's `}`.
    A source that is not newline-normalized, as a session's are, raises StaleSite.
    """
    # Each edit's start and end as (line, column), and its site; the
    # insertion has none. Column 0 of a line is the end of the line before.
    method, close = plan.enclosing, plan.enclosing.body[1]  # the method's `}`
    at = (method.tokens.lines[close], method.tokens.column(close) + 1)
    edits = {method.file_path: [(at, at, None)]}
    for site, (start, end) in zip(plan.target_sites, _verify_sites(plan, sources, tokens or {})):
        edits.setdefault(site.file_path, []).append((start, end, site))

    new_sources = dict(sources)
    call_sites: list[AppliedSite] = []
    diff_parts: list[str] = []
    for path in sorted(edits):
        old = sources[path]
        if "\r" in old:
            raise StaleSite(f"{path} has carriage returns; extraction rewrites newline-normalized sources")
        old_lines = old.split("\n")
        # The offset of (line, column) is before_line[line - 1] + column.
        before_line = list(accumulate((len(line) + 1 for line in old_lines), initial=-1))
        pieces: list[str] = []
        cursor = 0
        for start, end, site in sorted(edits[path], key=itemgetter(0)):
            pieces.append(old[cursor : before_line[start[0] - 1] + start[1]])
            if site is None:
                pieces.append(_render_method(plan, old_lines))
            else:
                done = "".join(pieces)  # the new text up to the call
                line = done.count("\n") + 1
                call_sites.append(AppliedSite(site, line, len(done) - done.rfind("\n")))
                pieces.append(plan.call_statement)
            cursor = before_line[end[0] - 1] + end[1]
        pieces.append(old[cursor:])
        new_sources[path] = new = "".join(pieces)
        diff_parts += difflib.unified_diff(old_lines, new.split("\n"), f"a/{path}", f"b/{path}", lineterm="")
    return ApplyResult(new_sources, "".join(line + "\n" for line in diff_parts), tuple(call_sites))


def _verify_sites(
    plan: ExtractionPlan, sources: Mapping[str, str], tokens: Mapping[str, Tokens]
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Where each site's run starts and ends, as (line, column); StaleSite at the first site without one.

    A site's run must still start at its token, on its start line. Sites
    come grouped by file, so each file without tokens of its current text
    is lexed once and only one such file's tokens are held at a time.
    """
    texts = plan.fragment.tokens.texts
    runs = []
    path, file_tokens = None, Tokens()
    for site in plan.target_sites:
        if site.file_path != path:
            path = site.file_path
            if path not in sources:
                raise StaleSite(f"{path} is missing")
            file_tokens = tokens.get(path)
            try:
                if file_tokens is None or file_tokens.text != sources[path]:
                    file_tokens = tokenize(sources[path])
            except LexError as exc:
                raise StaleSite(f"{path} no longer lexes: {exc}") from exc
        i = site.token
        if file_tokens.texts[i : i + len(texts)] != texts or file_tokens.lines[i] != site.start_line:
            raise StaleSite(f"{path}:{site.start_line}-{site.end_line} no longer matches the fragment")
        k = i + len(texts) - 1  # a fragment ends in a one-line token
        lines, column = file_tokens.lines, file_tokens.column
        runs.append(((lines[i], column(i)), (lines[k], column(k) + len(texts[-1]))))
    return runs


def _render_method(plan: ExtractionPlan, lines: list[str]) -> str:
    """The new method after a blank line, to be put after a method's closing brace."""
    header = plan.enclosing.tokens.lines[plan.enclosing.header]
    declaration = lines[header - 1] if 1 <= header <= len(lines) else ""
    decl_indent = declaration[: len(declaration) - len(declaration.lstrip())]
    body_indent = decl_indent + "    "
    rendered = ["", "", f"{decl_indent}{plan.signature} {{"]
    for line in plan.body_text.split("\n"):
        rendered.append(body_indent + line if line.strip() else "")
    rendered.append(f"{decl_indent}}}")
    return "\n".join(rendered)


@dataclass(frozen=True)
class SiteVerdict:
    site: TargetSite
    equivalent: bool


@dataclass(frozen=True)
class InliningVerdict:
    sites: tuple[SiteVerdict, ...]

    @property
    def all_equivalent(self) -> bool:
        return all(s.equivalent for s in self.sites)

    @property
    def mismatches(self) -> tuple[TargetSite, ...]:
        return tuple(s.site for s in self.sites if not s.equivalent)


def verify_by_inlining(
    plan: ExtractionPlan,
    before_sources: Mapping[str, str],
    after_sources: Mapping[str, str],
    result: ApplyResult,
) -> InliningVerdict:
    """Check each rewritten call reproduces the original tokens.

    The fragment, with its parameters renamed to the arguments actually
    present in the rewritten call, must be the run of "before" tokens
    that starts at the site, so argument-order mistakes surface as
    mismatches.
    """
    verdicts = []
    path, before, after = None, Tokens(), Tokens()
    call_texts = (plan.method_name, "(")
    for applied in result.call_sites:
        site = applied.site
        if site.file_path != path:  # call sites come grouped by file
            path = site.file_path
            before = tokenize(before_sources[path])
            after = tokenize(after_sources[path])
        at = find_run(after, call_texts, applied.call_line, applied.call_column)
        rename = None if at < 0 else _argument_renaming(plan, after, at)
        if rename is None:
            verdicts.append(SiteVerdict(site, False))
            continue
        inlined = tuple(rename.get(text, text) for text in plan.fragment.tokens.texts)
        verdicts.append(SiteVerdict(site, before.texts[site.token : site.token + len(inlined)] == inlined))
    return InliningVerdict(tuple(verdicts))


def _argument_renaming(plan: ExtractionPlan, tokens: Tokens, at: int) -> dict[str, str] | None:
    """Each parameter mapped to its argument in the call named by tokens[at]."""
    texts, match = tokens.texts, tokens.pairs[0]
    close = at + 1 + match[at + 1]
    if close == at + 1:
        return None
    args: list[str] = []
    k = at + 2
    while k < close:
        end = k  # past the argument's last token: skip each bracketed group whole
        while end < close and texts[end] != ",":
            end += max(match[end], 0) + 1
        args.append("".join(texts[k:end]))
        k = end + 1
    if len(args) != len(plan.parameter_list):
        return None
    return {p.name: arg for p, arg in zip(plan.parameter_list, args)}
