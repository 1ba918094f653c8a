"""Extract Method feasibility, planning, rewriting, and verification.

Feasibility is a dataflow approximation: a fragment is extractable when
it needs at most one value back from the new method and contains no
control flow escaping it. Application rewrites every exact clone site
into a call and inserts the new method after the paste-site method;
near matches are never touched. An inlining check closes the loop by
substituting the generated body back into each call and comparing
normalized token sequences with the original.
"""

from __future__ import annotations

import difflib
import re
import textwrap
from dataclasses import dataclass
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
    Token,
    TokenKind,
    match_delimiters,
    token_texts,
    tokenize,
)
from .source_model import (
    ClassContext,
    Fragment,
    MethodUnit,
    Parameter,
    scan_declarations,
)
from .statements import StatementParseError, control_flow_violations, parse_statements

_ASSIGNMENT_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)
_IDENTIFIER_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")


@dataclass(frozen=True)
class DataFlowSummary:
    inputs: tuple[Parameter, ...]
    outputs: tuple[Parameter, ...]
    illegal_flow: tuple[str, ...]
    output_declared_inside: bool

    @property
    def feasible(self) -> bool:
        return len(self.outputs) <= 1 and not self.illegal_flow


@dataclass(frozen=True)
class TargetSite:
    method_id: str
    file_path: str
    start_line: int
    end_line: int


@dataclass(frozen=True)
class ExtractionPlan:
    method_name: str
    parameter_list: tuple[Parameter, ...]
    return_type: str
    body_text: str
    call_statement: str
    target_sites: tuple[TargetSite, ...]
    insertion_file: str
    insertion_after_line: int
    declaration_line: int
    is_static: bool
    declares_output: bool
    output_name: str | None
    fragment_token_texts: tuple[str, ...]

    @property
    def signature(self) -> str:
        params = ", ".join(f"{p.declared_type} {p.name}" for p in self.parameter_list)
        static = "static " if self.is_static else ""
        return f"private {static}{self.return_type} {self.method_name}({params})"


def analyze_extractability(
    fragment: Fragment, enclosing: MethodUnit, owner: ClassContext
) -> DataFlowSummary:
    """Infer the inputs, outputs, and flow violations of a fragment.

    Inputs are variables used in the fragment but declared earlier in
    the method or among its parameters, ordered by first use. Outputs
    are locals declared or assigned in the fragment and read after it.
    Class fields never count: they stay visible to the new method.
    """
    if not fragment.valid:
        raise MissingContext("fragment is not a valid statement sequence")
    frag_texts = token_texts(fragment.tokens)
    offset = find_subsequence(enclosing.body_texts, frag_texts)
    if offset < 0:
        raise MissingContext("fragment is not a contiguous span of the enclosing method")
    frag_end = offset + len(frag_texts)

    frag_decls: dict[str, tuple[str, int]] = {}
    for name, decl in scan_declarations(fragment.tokens):
        frag_decls.setdefault(name, (decl.declared_type, decl.token_index))
    params = {p.name: p.declared_type for p in enclosing.parameter_list}

    def declared_before(name: str) -> str | None:
        local = enclosing.local_declarations.get(name)
        if local is not None and local.token_index < offset:
            return local.declared_type
        return params.get(name)

    tokens = fragment.tokens
    inputs: list[Parameter] = []
    seen_inputs: set[str] = set()
    for k, tok in enumerate(tokens):
        if tok.kind != TokenKind.IDENTIFIER:
            continue
        if k > 0 and tokens[k - 1].text == ".":
            continue
        if k + 1 < len(tokens) and tokens[k + 1].text == "(":
            continue
        name = tok.text
        if name in seen_inputs:
            continue
        if name in frag_decls and frag_decls[name][1] <= k:
            continue
        declared_type = declared_before(name)
        if declared_type is not None:
            inputs.append(Parameter(name, declared_type))
            seen_inputs.add(name)

    assigned: dict[str, int] = {}
    for k, tok in enumerate(tokens):
        if tok.kind != TokenKind.IDENTIFIER:
            continue
        if k > 0 and tokens[k - 1].text == ".":
            continue
        nxt = tokens[k + 1].text if k + 1 < len(tokens) else ""
        prev = tokens[k - 1].text if k > 0 else ""
        if nxt in _ASSIGNMENT_OPS or nxt in ("++", "--") or prev in ("++", "--"):
            assigned.setdefault(tok.text, k)
    for name, (_, decl_index) in frag_decls.items():
        assigned.setdefault(name, decl_index)

    outputs: list[Parameter] = []
    for name, first_write in sorted(assigned.items(), key=lambda kv: kv[1]):
        if not _read_after(enclosing, frag_end, name):
            continue
        if name in frag_decls:
            outputs.append(Parameter(name, frag_decls[name][0]))
            continue
        declared_type = declared_before(name)
        if declared_type is not None:
            outputs.append(Parameter(name, declared_type))
            continue
        if name in owner.field_names or name in owner.method_names:
            continue  # class member: persists without plumbing
        raise UnresolvedType(name)

    try:
        violations = tuple(control_flow_violations(parse_statements(fragment.tokens)))
    except StatementParseError:
        violations = ("fragment does not parse as a statement sequence",)

    declared_inside = len(outputs) == 1 and outputs[0].name in frag_decls
    return DataFlowSummary(tuple(inputs), tuple(outputs), violations, declared_inside)


def _read_after(enclosing: MethodUnit, frag_end: int, name: str) -> bool:
    tokens = enclosing.body_tokens
    for k in range(frag_end, len(tokens)):
        tok = tokens[k]
        if tok.kind != TokenKind.IDENTIFIER or tok.text != name:
            continue
        if k > 0 and tokens[k - 1].text == ".":
            continue
        nxt = tokens[k + 1].text if k + 1 < len(tokens) else ""
        if nxt == "=":
            continue  # plain overwrite, not a read
        return True
    return False


def plan_extraction(
    summary: DataFlowSummary,
    name: str,
    fragment: Fragment,
    enclosing: MethodUnit,
    owner: ClassContext,
    matches: list[CloneMatch],
    methods_by_id: Mapping[str, MethodUnit],
) -> ExtractionPlan:
    """Turn a feasible summary into a concrete rewrite plan.

    Only exact matches become call-replacement sites. The new method is
    private, inherits staticness from the paste-site method, and is
    inserted right after it.
    """
    if not _IDENTIFIER_RE.match(name) or name in JAVA_KEYWORDS or name in WORD_LITERALS:
        raise InvalidIdentifier(name)
    if name in owner.method_names:
        raise NameCollision(name)
    if summary.illegal_flow:
        raise IllegalFlow(list(summary.illegal_flow))
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

    sites = []
    for match in matches:
        if match.kind != EXACT or match.match_span is None:
            continue
        method = methods_by_id[match.method_id]
        sites.append(
            TargetSite(match.method_id, method.file_path, *match.match_span)
        )
    sites.sort(key=lambda s: (s.file_path, s.start_line))

    return ExtractionPlan(
        method_name=name,
        parameter_list=summary.inputs,
        return_type=return_type,
        body_text=body,
        call_statement=call,
        target_sites=tuple(sites),
        insertion_file=enclosing.file_path,
        insertion_after_line=enclosing.close_brace_line,
        declaration_line=enclosing.declaration_line,
        is_static=enclosing.is_static,
        declares_output=summary.output_declared_inside,
        output_name=output.name if output else None,
        fragment_token_texts=token_texts(fragment.tokens),
    )


@dataclass(frozen=True)
class AppliedSite:
    site: TargetSite
    call_line: int


@dataclass(frozen=True)
class ApplyResult:
    sources: dict[str, str]
    diff: str
    call_sites: tuple[AppliedSite, ...]
    inserted_span: tuple[int, int]  # first/last line of the inserted block


def apply_extraction(plan: ExtractionPlan, sources: Mapping[str, str]) -> ApplyResult:
    """Rewrite all exact sites and insert the new method; all-or-nothing.

    Every site is re-verified against the current sources first; one
    stale site aborts the whole application with the sources untouched.
    Replacement keeps the indentation of the first replaced line.
    """
    for site in plan.target_sites:
        _verify_site(plan, sources, site)

    edits: dict[str, list[tuple[int, int, list[str], TargetSite | None]]] = {}
    for site in plan.target_sites:
        lines = sources[site.file_path].split("\n")
        indent = _leading_ws(lines[site.start_line - 1])
        edits.setdefault(site.file_path, []).append(
            (site.start_line, site.end_line, [indent + plan.call_statement], site)
        )

    insertion_lines = _render_method(plan, sources)
    edits.setdefault(plan.insertion_file, []).append(
        (plan.insertion_after_line + 1, plan.insertion_after_line, insertion_lines, None)
    )

    new_sources = dict(sources)
    call_sites: list[AppliedSite] = []
    inserted_span = (0, 0)
    diff_parts: list[str] = []
    for path in sorted(edits):
        old_lines = sources[path].split("\n")
        new_lines: list[str] = []
        cursor = 1
        offset = 0
        for start, end, replacement, site in sorted(edits[path], key=lambda e: e[0]):
            new_lines.extend(old_lines[cursor - 1 : start - 1])
            new_start = start + offset
            new_lines.extend(replacement)
            if site is not None:
                call_sites.append(AppliedSite(site, new_start))
            else:
                inserted_span = (new_start, new_start + len(replacement) - 1)
            offset += len(replacement) - (end - start + 1)
            cursor = end + 1
        new_lines.extend(old_lines[cursor - 1 :])
        new_text = "\n".join(new_lines)
        new_sources[path] = new_text
        diff_parts.extend(
            difflib.unified_diff(
                old_lines, new_lines, fromfile=f"a/{path}", tofile=f"b/{path}", lineterm=""
            )
        )
    diff = "\n".join(diff_parts)
    if diff:
        diff += "\n"
    return ApplyResult(new_sources, diff, tuple(call_sites), inserted_span)


def _verify_site(plan: ExtractionPlan, sources: Mapping[str, str], site: TargetSite) -> None:
    text = sources.get(site.file_path)
    if text is None:
        raise StaleSite(f"{site.file_path} is missing")
    try:
        tokens = tokenize(text)
    except LexError as exc:
        raise StaleSite(f"{site.file_path} no longer lexes: {exc}") from exc
    site_texts = tuple(
        t.text for t in tokens if site.start_line <= t.line <= site.end_line
    )
    if site_texts != plan.fragment_token_texts:
        raise StaleSite(
            f"{site.file_path}:{site.start_line}-{site.end_line} no longer matches the fragment"
        )


def _leading_ws(line: str) -> str:
    return line[: len(line) - len(line.lstrip())]


def _render_method(plan: ExtractionPlan, sources: Mapping[str, str]) -> list[str]:
    decl_indent = ""
    text = sources.get(plan.insertion_file)
    if text is not None:
        lines = text.split("\n")
        if 1 <= plan.declaration_line <= len(lines):
            decl_indent = _leading_ws(lines[plan.declaration_line - 1])
    body_indent = decl_indent + "    "
    rendered = ["", f"{decl_indent}{plan.signature} {{"]
    for line in plan.body_text.split("\n"):
        rendered.append(body_indent + line if line.strip() else "")
    rendered.append(f"{decl_indent}}}")
    return rendered


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

    Parameters are renamed to the arguments actually present in the
    rewritten call, so argument-order mistakes surface as mismatches.
    """
    verdicts = []
    for applied in result.call_sites:
        site = applied.site
        before_tokens = tokenize(before_sources[site.file_path])
        expected = tuple(
            t.text for t in before_tokens if site.start_line <= t.line <= site.end_line
        )
        after_tokens = tokenize(after_sources[site.file_path])
        call_tokens = [t for t in after_tokens if t.line == applied.call_line]
        rename = _argument_renaming(plan, call_tokens)
        if rename is None:
            verdicts.append(SiteVerdict(site, False))
            continue
        inlined = tuple(rename.get(text, text) for text in plan.fragment_token_texts)
        verdicts.append(SiteVerdict(site, inlined == expected))
    return InliningVerdict(tuple(verdicts))


def _argument_renaming(plan: ExtractionPlan, call_tokens: list[Token]) -> dict[str, str] | None:
    texts = token_texts(call_tokens)
    try:
        at = texts.index(plan.method_name)
    except ValueError:
        return None
    if at + 1 >= len(texts) or texts[at + 1] != "(":
        return None
    match = match_delimiters(call_tokens)
    close = match[at + 1]
    if close < 0:
        return None
    args: list[str] = []
    current: list[str] = []
    k = at + 2
    while k < close:
        if texts[k] == ",":
            args.append("".join(current))
            current = []
            k += 1
            continue
        end = max(match[k], k) + 1
        current.extend(texts[k:end])
        k = end
    if current:
        args.append("".join(current))
    if len(args) != len(plan.parameter_list):
        return None
    return {p.name: arg for p, arg in zip(plan.parameter_list, args)}
