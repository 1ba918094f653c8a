from __future__ import annotations

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anticopypaster.errors import IndexingError, InvalidFragment, LexError
from anticopypaster.lexer import normalize_newlines, token_bag, tokenize
from anticopypaster.source_model import (
    _profile,
    index_file,
    local_declarations,
    method_declarations,
    validate_fragment,
)
from anticopypaster.statements import StatementParseError, parse_statements

from helpers import (
    body_texts,
    body_tokens,
    candidate_declarations,
    comma_split_parameters,
    declarations_of,
    parameters_of,
)

TWO_METHODS = """\
public class TwoMethods {
    public int first(int a) {
        int r = a + 1;
        r = r * 2;
        return r;
    }

    public int second(int a) {
        int r = a - 1;
        r = r * 3;
        return r;
    }
}
"""


def test_two_methods_fixture_has_hand_annotated_ranges():
    methods, classes = index_file(tokenize(TWO_METHODS), "TwoMethods.java")
    assert [m.name for m in methods] == ["first", "second"]
    first, second = methods
    assert (first.start_line, first.end_line) == (3, 5)
    assert (second.start_line, second.end_line) == (9, 11)
    assert first.id == "TwoMethods.java:3:first"
    assert classes[0].method_names == {"first", "second"}


def test_fields_only_file_produces_class_context_without_methods():
    source = "class Holder {\n    private int a;\n    private String b;\n}\n"
    methods, classes = index_file(tokenize(source), "Holder.java")
    assert methods == []
    assert classes[0].field_names == {"a", "b"}


def test_inner_class_methods_belong_to_the_inner_context():
    source = """\
class Outer {
    int outerField;

    void outerMethod() {
        outerField = 1;
    }

    class Inner {
        int innerField;

        void innerMethod() {
            innerField = 2;
        }
    }
}
"""
    methods, classes = index_file(tokenize(source), "Outer.java")
    by_name = {m.name: m for m in methods}
    assert by_name["innerMethod"].owner.class_name == "Inner"
    assert by_name["outerMethod"].owner.class_name == "Outer"
    inner = next(c for c in classes if c.class_name == "Inner")
    assert inner.field_names == {"innerField"}


def test_constructors_count_as_methods_and_bodiless_ones_do_not():
    source = """\
abstract class Shape {
    private int edges;

    Shape(int edges) {
        this.edges = edges;
    }

    abstract int area();
}
"""
    methods, classes = index_file(tokenize(source), "Shape.java")
    assert [m.name for m in methods] == ["Shape"]
    assert classes[0].method_names == {"Shape", "area"}


def test_type_parameters_are_read_from_the_header_past_modifiers_and_annotations():
    source = """\
class Util {
    public static <K, V extends Comparable<V>> int a(java.util.Map<K, V> m) { return 0; }
    @SafeVarargs final <@A T> void b(T... xs) { }
    <T> Util(T t) { }
    java.util.List<String> c() { return null; }
    private synchronized int d() { return 0; }
}
"""
    methods, _ = index_file(tokenize(source), "Util.java")
    assert [m.type_parameters for m in methods] == ["<K,V extends Comparable<V>>", "<@A T>", "<T>", "", ""]


def test_static_flag_and_parameters():
    source = """\
class Util {
    static java.util.List<String> wrap(String head, int[] tail) {
        return null;
    }
}
"""
    (method,), _ = index_file(tokenize(source), "Util.java")
    assert method.is_static
    assert [(name, d.declared_type) for name, d in parameters_of(method).items()] == [
        ("head", "String"),
        ("tail", "int[]"),
    ]


def test_field_initializer_with_braces_is_not_a_method():
    source = """\
class Table {
    private int[] sizes = {1, 2, 3};

    int lookup(int i) {
        return sizes[i];
    }
}
"""
    methods, classes = index_file(tokenize(source), "Table.java")
    assert [m.name for m in methods] == ["lookup"]
    assert "sizes" in classes[0].field_names


def test_unbalanced_braces_raise_indexing_error():
    with pytest.raises(IndexingError):
        index_file(tokenize("class A { void f() { }"), "A.java")


STRAY_DELIMITER_HOST = """\
class A {
    void f() {
        %s
    }
    void h() {
        k();
    }
}
"""


@pytest.mark.parametrize("broken", ["g(;", "g( { ) };"])
def test_stray_delimiters_in_a_body_do_not_hide_later_methods(broken):
    methods, _ = index_file(tokenize(STRAY_DELIMITER_HOST % broken), "A.java")
    assert [(m.name, m.start_line) for m in methods] == [("f", 3), ("h", 6)]


def test_method_declarations_give_each_name_the_declaration_in_scope():
    """A nested class's `String n` hides `f`'s `int n` inside its body, and after the body does not."""
    source = "class A { int f(int n, int[] xs) { Runnable r = new Runnable() { public void run() { String n = \"\"; n = n; } }; int k = n; k = n; } }"
    (method,), _ = index_file(tokenize(source), "A.java")
    texts = method.tokens.texts
    # The statements `n = n;` inside `run()` and `k = n;` after `int k = n;`.
    inside, after = (texts.index(";", texts.index(word)) + 1 for word in ("String", "k"))

    def types(at):
        return {name: d.declared_type for name, d in method_declarations(method, at).items()}

    assert types(inside) == {"n": "String", "xs": "int[]", "r": "Runnable"}
    assert types(after) == {"n": "int", "xs": "int[]", "r": "Runnable", "k": "int"}
    assert parameters_of(method) == {name: d for name, d in method_declarations(method, after).items() if name in ("n", "xs")}


def test_a_stray_paren_pairing_past_a_body_adds_no_local_to_it():
    """Locals are scanned in place; an annotation's `(` that pairs in the next method adds none."""
    source = "class A {\n    void f() { List<@A( String> x; }\n    void g() { int y = 0; ) > z; }\n}\n"
    (f, g), _ = index_file(tokenize(source), "A.java")
    assert method_declarations(f, f.body[1]) == {}
    assert list(method_declarations(g, g.body[1])) == ["y"]


def test_annotated_parameters_keep_their_types():
    """Annotations before a parameter are dropped; those inside its type (type-use ones) are kept."""
    source = """\
class A {
    void f(@Named(value = ("x")) int a, final @X List<Map<K,V>> b, List<@X String> c,
           List<@Size(max = 3) String> d, String @NonNull [] e, java.lang.@A String g,
           int h @A [] @B [], String @A ... i) {
        g();
    }
}
"""
    (method,), _ = index_file(tokenize(source), "A.java")
    assert [(name, d.declared_type) for name, d in parameters_of(method).items()] == [
        ("a", "int"),
        ("b", "List<Map<K,V>>"),
        ("c", "List<@X String>"),
        ("d", "List<@Size(max=3) String>"),
        ("e", "String @NonNull[]"),
        ("g", "java.lang.@A String"),
        ("h", "int[][]"),
        ("i", "String @A[]"),
    ]


def test_dimensions_after_a_parameter_or_component_name_join_its_type():
    source = "record R(int xs[], String[] rows[]) { int f(int xs[], String[] rows[][], int... ns) { return 0; } }"
    (method,), (record,) = index_file(tokenize(source), "R.java")
    assert [(name, d.declared_type) for name, d in parameters_of(method).items()] == [
        ("xs", "int[]"),
        ("rows", "String[][][]"),
        ("ns", "int[]"),
    ]
    assert record.field_names == {"xs", "rows"}


@pytest.mark.parametrize(
    "source",
    ["class A { void f(@X A this, int x) { } }", "class Outer { class A { A(Outer Outer.this, int x) { } } }"],
)
def test_a_receiver_parameter_declares_no_variable(source):
    """`A this`, or `Outer Outer.this` in an inner class's constructor, only lets the receiver take
    annotations; the parameters after it are read."""
    (method,), _ = index_file(tokenize(source), "A.java")
    assert [(name, d.declared_type) for name, d in parameters_of(method).items()] == [("x", "int")]


FIELD_INITIALIZERS = """\
import java.util.ArrayList;
import java.util.List;
import java.util.function.IntSupplier;

abstract class A {
    private int count = Math.max(1, 2);
    private final List<String> names = new ArrayList<>();
    private @Deprecated String s;
    static final IntSupplier next = () -> { int local = 1; return local; };
    int[] sizes = {1, 2}, more[] = {{3}};
    abstract int area();
    abstract <T> T pick(T a, T b);

    int total(int[] xs) {
        count += xs.length;
        names.add(s);
        return count + sizes[0] + next.getAsInt();
    }
}
"""


def test_fields_whose_initializers_call_construct_or_declare_are_fields():
    """Only a member that declares no field names a method; the lambda's local is no field."""
    (method,), (owner,) = index_file(tokenize(FIELD_INITIALIZERS), "A.java")
    assert owner.field_names == {"count", "names", "s", "next", "sizes", "more"}
    assert owner.method_names == {"area", "pick", "total"}
    assert method.name == "total"


def test_a_parenthesized_initializer_is_skipped_as_one_span():
    """The member scan jumps from `(` to its partner, so the anonymous class inside is not a member."""
    source = "class A { Object o = f(new Object() { int g() { return 1; } }); void h() { } }"
    methods, (owner,) = index_file(tokenize(source), "A.java")
    assert [m.name for m in methods] == ["h"]
    assert owner.field_names == {"o"}
    assert owner.method_names == {"h"}


@pytest.mark.parametrize("stray", [")", "]", "("])
def test_a_stray_bracket_in_a_member_runs_it_to_the_end_of_the_body(stray):
    source = f"class A {{ int a = 1 {stray}; void f() {{ }} }} class B {{ void g() {{ }} }}"
    methods, classes = index_file(tokenize(source), "A.java")
    assert [m.name for m in methods] == ["g"]
    assert [c.class_name for c in classes] == ["A", "B"]


def test_enum_constant_bodies_are_skipped():
    source = "enum E { A(1), B(2) { int f() { return 1; } }; int g() { return 0; } }"
    methods, _ = index_file(tokenize(source), "E.java")
    assert [m.name for m in methods] == ["g"]


def test_enum_with_unclosed_constant_arguments_indexes_nothing():
    source = "enum E { A(1, B(2; int g() { return 0; } }"
    methods, _ = index_file(tokenize(source), "E.java")
    assert methods == []


def test_indexing_is_deterministic():
    a = index_file(tokenize(TWO_METHODS), "TwoMethods.java")[0]
    b = index_file(tokenize(TWO_METHODS), "TwoMethods.java")[0]
    assert [m.id for m in a] == [m.id for m in b]
    assert [(m.start_line, m.end_line) for m in a] == [(m.start_line, m.end_line) for m in b]


def test_retokenizing_body_lines_reproduces_body_tokens():
    lines = TWO_METHODS.split("\n")
    methods, _ = index_file(tokenize(TWO_METHODS), "TwoMethods.java")
    for method in methods:
        body_source = "\n".join(lines[method.start_line - 1 : method.end_line])
        assert tokenize(body_source).texts == body_texts(method)


# --- fragment validity -------------------------------------------------------

def test_expression_statement_is_valid():
    validate_fragment("x = 1;")


def test_unbalanced_delimiters_are_invalid():
    with pytest.raises(InvalidFragment, match=r"^unclosed '\(' \(line 1\)$"):
        validate_fragment("if (x {")


@pytest.mark.parametrize("text", ["a[(b]);", "x = (a[b)];", "f((a);"])
def test_crossed_or_unmatched_delimiters_are_invalid(text):
    with pytest.raises(InvalidFragment):
        validate_fragment(text)


@pytest.mark.parametrize("text", ["public class A {}", "class A {}"])
def test_type_declaration_is_invalid(text):
    with pytest.raises(InvalidFragment):
        validate_fragment(text)


@pytest.mark.parametrize("text", ["void foo() { run(); }", "int foo() { return 1; }"])
def test_method_declaration_is_invalid(text):
    with pytest.raises(InvalidFragment):
        validate_fragment(text)


def test_empty_text_is_invalid():
    with pytest.raises(InvalidFragment):
        validate_fragment("")


@pytest.mark.parametrize(
    "text, message",
    [
        ("class A {}", "type declaration is not a statement (line 1)"),
        ("void foo() { run(); }", "method declaration is not a statement (line 1)"),
        ("", "expected a statement (line 1)"),
        ('x = "unclosed;', "unterminated string literal (line 1)"),
        ("a[(b]);", "']' does not close the innermost pair (line 1)"),
        # The parser names the line where it failed, and an unclosed delimiter names itself.
        ("a();\nb();\nint foo() { return 1; }", "unexpected '{' in statement (line 3)"),
        ("x = 1;\ny = (2;\nz = 3;", "unclosed '(' (line 2)"),
        ("x = 1;\n\ny = 2\n// no ';'", "statement not terminated by ';' (line 3)"),
        ("f();\ntry {\n    g();\n}", "try without catch, finally, or resources (line 2)"),
        ("switch (k) {\n  case 1 -> if (a) f();\n  case 2 -> g();\n}", "'if' statement cannot follow '->' (line 2)"),
    ],
)
def test_invalid_fragment_carries_the_lexer_or_parser_message(text, message):
    with pytest.raises(InvalidFragment) as raised:
        validate_fragment(text)
    assert str(raised.value) == message


def test_control_flow_statements_are_valid():
    validate_fragment("if (a) { b(); } else { c(); }")
    validate_fragment("for (int i = 0; i < n; i++) { f(i); }")
    validate_fragment("do { poll(); } while (busy);")
    validate_fragment("try { open(); } catch (Exception e) { log(e); }")
    validate_fragment("switch (k) { case 1: f(); break; default: g(); }")
    validate_fragment("synchronized (lock) { counter++; }")


@pytest.mark.parametrize(
    "text",
    [
        "switch (k) { case 1 -> a++; default -> a--; }",
        "switch (k) { case 1 -> { f(); } default -> throw e; }",
    ],
)
def test_arrow_case_labels_are_valid(text):
    validate_fragment(text)


@pytest.mark.parametrize("text", ["switch (k) { case 1 -> return; }", "switch (k) { case 1 -> }"])
def test_arrow_case_takes_only_a_block_throw_or_expression(text):
    with pytest.raises(InvalidFragment):
        validate_fragment(text)


def test_case_label_control_flow():
    colon = validate_fragment("switch (k) { case 1: f(); break; default: return; }")
    arrow = validate_fragment("switch (k) { case 1 -> { break; } default -> g(); }")
    assert parse_statements(colon.tokens) == ("return inside fragment",)
    assert parse_statements(arrow.tokens) == ()


RETURN = "return inside fragment"
BREAK = "break targets a loop or switch outside fragment"
CONTINUE = "continue targets a loop outside fragment"
YIELD = "yield targets a switch expression outside fragment"


@pytest.mark.parametrize(
    "text, jumps",
    [
        # labels inside and outside the fragment, nested, and out of scope
        ("outer: for (;;) { break outer; }", ()),
        ("outer: while (c) { continue outer; }", ()),
        ("break outer;", ("break targets label 'outer' outside fragment",)),
        ("continue outer;", ("continue targets label 'outer' outside fragment",)),
        ("a: while (c) { b: for (;;) { continue a; } }", ()),
        ("a: while (c) { b: for (;;) { break c; } }", ("break targets label 'c' outside fragment",)),
        ("a: for (;;) { } break a;", ("break targets label 'a' outside fragment",)),
        ("a: { } b: while (c) { continue a; }", ("continue targets label 'a' outside fragment",)),
        # a switch takes a bare break but not a continue
        ("switch (k) { case 1: f(); break; default: g(); }", ()),
        ("switch (k) { case 1: continue; }", (CONTINUE,)),
        ("while (c) { switch (k) { case 1: continue; } }", ()),
        ("switch (k) { case 1 -> { break; } default -> g(); }", ()),
        ("switch (k) { case 1 -> { continue; } }", (CONTINUE,)),
        # loop bodies, and bodies that are not loops
        ("do { break; } while (c);", ()),
        ("do continue; while (c);", ()),
        ("while (c) break;", ()),
        ("for (int i = 0; i < n; i++) { if (i > 2) continue; }", ()),
        ("if (c) break;", (BREAK,)),
        ("{ continue; }", (CONTINUE,)),
        ("try { f(); } finally { break; }", (BREAK,)),
        ("synchronized (o) { return; }", (RETURN,)),
        # a return in a lambda or anonymous class is part of an expression
        ("Runnable r = () -> { return; };", ()),
        ("f(new Runnable() { public void run() { return; } });", ()),
        ("while (c) { return x; } break;", (RETURN, BREAK)),
        # `yield` leaves the fragment unless it is a name in an expression or a label
        ("yield n + 1;", (YIELD,)),
        ("switch (k) { case 1: yield 2; }", (YIELD,)),
        ("int v = switch (k) { case 1 -> { yield 2; } default -> 0; };", ()),
        ("yield = 2;", ()),
        ("yield += 2;", ()),
        ("yield.run();", ()),
        ("yield[0] = 1;", ()),
        ("yield(1);", ()),
        ("yield++;", ()),
        ("yield: for (;;) { break yield; }", ()),
    ],
)
def test_parse_statements_reports_the_jumps_that_leave_the_fragment(text, jumps):
    tokens = tokenize(text)
    assert parse_statements(tokens) == jumps


def test_lambda_and_anonymous_class_statements_are_valid():
    validate_fragment("Runnable r = () -> { run(); };")
    validate_fragment("f(new Runnable() { public void run() { } });")


@pytest.mark.parametrize(
    "text, valid",
    [
        # javac: "not a statement"; a lambda is a value, so only an assignment or a value-taking statement holds one.
        ("a -> b;", False),
        ("(a) -> b;", False),
        ("x = a -> b;", True),
        ("r = () -> 1;", True),
        ("return a -> b;", True),
        ("switch (k) { case 1 -> a -> b; }", False),
        # A brace or lambda arrow after a bracketed group: what the group holds does not allow it at the statement's level.
        ("foo(x = 1) { };", False),  # javac: "';' expected"
        ("foo(new int[0]) { };", False),  # javac: "';' expected"
        ("m(a -> b) { };", False),  # javac: "';' expected"
        ("foo(x = 1) -> b;", False),  # javac: "';' expected"
        ("a[x = 1] { };", False),  # javac: "not a statement"
        ("foo(x = 1, () -> { });", True),
        # A value-taking statement allows a brace only where an expression may hold one.
        ("return { 1 };", False),  # javac: "illegal start of expression"
        ("throw { e };", False),  # javac: "illegal start of expression"
        ("assert x : { };", False),  # javac: "illegal start of expression"
        ("yield switch (k) { default -> 1; };", True),  # javac accepts it inside a switch expression
        ("x switch (k) { default -> 1; };", False),  # javac: "not a statement"
        # `final` starts a local declaration, never a type: javac takes a local class, but no fragment declares a type.
        ("final int x = 1;", True),  # javac accepts it
        ("final class X { }", False),
    ],
)
def test_a_bare_lambda_is_not_a_statement(text, valid):
    if valid:
        validate_fragment(text)
    else:
        with pytest.raises(InvalidFragment):
            validate_fragment(text)


def test_labeled_break_is_valid():
    validate_fragment("outer: for (;;) { break outer; }")


def test_try_without_catch_or_finally_is_invalid():
    with pytest.raises(InvalidFragment, match="try without catch"):
        validate_fragment("try { open(); }")


def test_line_count_trims_blank_edges():
    fragment = validate_fragment("\n\n  x = 1;\n\n")
    assert fragment.line_count == 1
    assert fragment.symbol_count == 4


# --- nesting profiles ---------------------------------------------------------

def fragment_profile(fragment):
    """Per-line depths of a fragment pasted at depth 1, whose sum is its area."""
    profile = _profile(fragment.tokens, 0, len(fragment.tokens), 1, fragment.line_count)
    assert fragment.area == sum(profile)
    return profile


def test_nesting_profile_of_guarded_block():
    fragment = validate_fragment("if (x > 0) {\n    sum += x;\n}")
    assert fragment_profile(fragment) == [1, 2, 1]


def test_flat_statements_profile_at_depth_one():
    assert fragment_profile(validate_fragment("a();\nb();")) == [1, 1]
    assert fragment_profile(validate_fragment("x = 1;")) == [1]


@pytest.mark.parametrize("text", ["", "// only a comment", "class C { }", "x = (1;"])
def test_text_without_a_statement_sequence_raises_invalid_fragment(text):
    with pytest.raises(InvalidFragment):
        validate_fragment(text)


def test_blank_interior_lines_keep_running_depth():
    fragment = validate_fragment("if (a) {\n\n    f();\n}")
    assert fragment_profile(fragment) == [1, 2, 2, 1]


def test_profile_changes_bounded_by_adjacent_brace_counts():
    # A line's depth can move by the braces after the previous line's first
    # token plus a leading '}' pre-decrement on the line itself.
    source = "while (a) {\n    if (b) { f(); }\n    g();\n}"
    fragment = validate_fragment(source)
    profile = fragment_profile(fragment)
    lines = source.split("\n")
    for i in range(1, len(profile)):
        budget = sum(lines[j].count("{") + lines[j].count("}") for j in (i - 1, i))
        assert abs(profile[i] - profile[i - 1]) <= budget


def test_method_profile_starts_at_depth_one():
    methods, _ = index_file(tokenize(TWO_METHODS), "TwoMethods.java")
    for method in methods:
        profile = _profile(method.tokens, *method.body, method.start_line, method.end_line)
        assert all(d >= 1 for d in profile)
        assert len(profile) == method.end_line - method.start_line + 1
        assert method.area == sum(profile)


def _by_line_profile(tokens, first_line, last_line):
    """The definition read line by line: group the tokens by line, then walk the lines."""
    by_line = {}
    for tok in tokens:
        by_line.setdefault(tok.line, []).append(tok)
    profile = []
    depth = 1
    for line in range(first_line, last_line + 1):
        recorded = False
        for tok in by_line.get(line, []):
            if tok.text == "}":
                depth -= 1
            if not recorded:
                profile.append(depth)
                recorded = True
            if tok.text == "{":
                depth += 1
        if not recorded:
            profile.append(depth)
    return profile


_BLOCK_STATEMENTS = st.recursive(
    st.sampled_from(["a();", "x = 1;", "int n = 0;", "int[] ys = {1, 2};", "return;"]),
    lambda inner: st.tuples(
        st.sampled_from(["if (c) {", "while (c) {", "{", "for (;;) {", "if (c) { } else {"]),
        st.lists(inner, max_size=3),
    ).map(lambda head_body: " ".join([head_body[0], *head_body[1], "}"])),
    max_leaves=10,
)
# What goes between two tokens: lines with no tokens, lines that start with
# a `}`, and several braces on one line all come out of these.
_TOKEN_GAPS = st.sampled_from([" ", " ", "\n", "\n\n", "\n  // note\n", " /* c\n */ "])


@st.composite
def _laid_out_statements(draw):
    texts = tokenize(" ".join(draw(st.lists(_BLOCK_STATEMENTS, min_size=1, max_size=4)))).texts
    gaps = draw(st.lists(_TOKEN_GAPS, min_size=len(texts) - 1, max_size=len(texts) - 1))
    return "".join(text + gap for text, gap in zip(texts, [*gaps, ""]))


@given(_laid_out_statements())
@example("if (c) {\n\n  a();\n  } { {\n}\n}")
@example("{ { { a(); } }\n} // c\n\n x = 1;")
def test_nesting_profile_agrees_with_the_by_line_definition(text):
    fragment = validate_fragment(text)
    assert fragment_profile(fragment) == _by_line_profile(fragment.tokens, 1, fragment.line_count)
    indented = "\n".join("    " + line for line in text.split("\n"))
    methods, _ = index_file(tokenize(f"class A {{\n  void m() {{\n{indented}\n  }}\n}}\n"), "A.java")
    (method,) = methods
    expected = _by_line_profile(body_tokens(method), method.start_line, method.end_line)
    assert _profile(method.tokens, *method.body, method.start_line, method.end_line) == expected
    assert method.area == sum(expected)


# Mostly invalid text, some of it lexing and some not.
_TOKEN_SOUP = st.lists(st.sampled_from([*"abn =;,(){}[]\n\"", "int ", "for ", "class "]), max_size=20).map("".join)


@given(st.one_of(_laid_out_statements(), _TOKEN_SOUP))
@example("int a = 1, b;\nfor (int i : xs) { int a = i; }\ntry (R r = open()) { } catch (E e) { }")
@example("class C { }")
@example('x = "unclosed;')
def test_fragment_fields_agree_with_their_per_token_definitions(text):
    """What validation stores is what the per-token definitions give; text it refuses does not lex or parse."""
    try:
        fragment = validate_fragment(text)
    except InvalidFragment:
        with pytest.raises((LexError, StatementParseError)):
            parse_statements(tokenize(normalize_newlines(text)))
        return
    tokens = fragment.tokens
    stored = (fragment.body, fragment.bag, fragment.bag_size, fragment.symbol_count, fragment.area,
              fragment.illegal_flow)
    assert stored == (
        (0, len(tokens)), token_bag(tokens.texts), token_bag(tokens.texts).total(),
        len("".join(text.split())), sum(_profile(tokens, 0, len(tokens), 1, fragment.line_count)),
        parse_statements(tokens),
    )
    # Its locals are read on demand, by the reader a method's go through.
    assert local_declarations(tokens, *fragment.body) == candidate_declarations(tokens)


# --- declaration scanning ----------------------------------------------------

def test_scan_finds_declarations_in_common_shapes():
    tokens = tokenize(
        "final int a = 1, b = 2;\n"
        "List<String> names = make();\n"
        "for (int i = 0; i < n; i++) { use(i); }\n"
        "for (String s : names) { use(s); }\n"
        "int xs[] = {1}; String[][] grid, rows[];\n"
        "Outer<K>.Inner node = root;\n"
        "try (Closeable c = open()) { c.hashCode(); } catch (Exception e) { log(e); }"
    )
    declared = {name: decl.declared_type for name, decl in declarations_of(tokens).items()}
    assert declared == {
        "a": "int",
        "b": "int",
        "names": "List<String>",
        "xs": "int[]",
        "grid": "String[][]",
        "rows": "String[][][]",
        "node": "Outer<K>.Inner",
        "i": "int",
        "s": "String",
        "c": "Closeable",
        "e": "Exception",
    }


def test_scan_does_not_mistake_assignments_or_calls_for_declarations():
    tokens = tokenize("x = 1;\nfoo(a);\na.b = 2;\nx < y;")
    assert declarations_of(tokens) == {}


# --- parameters against the comma-splitting oracle ----------------------------

_NAMES = st.sampled_from(["a", "b", "xs", "value", "record", "n2"])
_ANNOTATIONS = st.sampled_from(["@X", "@a.b.Y", '@Named(value = ("x"))', "@Size(min = 1, max = 2)", "@Z()"])


def _type_arguments(inner):
    """`<...>` written without blanks, so nested closes lex as `>>` and `>>>`; an annotation may mark an argument."""
    argument = st.one_of(
        inner,
        st.just("?"),
        inner.map(lambda t: "? extends " + t),
        inner.map(lambda t: "@X " + t),
        inner.map(lambda t: "@Size(max = 1) " + t),
    )
    return st.lists(argument, min_size=1, max_size=2).map(lambda args: "<" + ",".join(args) + ">")


_REFERENCE_TYPES = st.recursive(
    st.sampled_from(["String", "java.util.List", "Map.Entry", "T"]),
    lambda inner: st.tuples(
        st.sampled_from(["List", "java.util.Map", "Map.Entry"]),
        _type_arguments(inner),
        st.sampled_from(["", ".Inner", ".Inner<T>"]),
    ).map("".join),
    max_leaves=6,
)
_TYPES = st.tuples(
    st.one_of(st.sampled_from(["int", "boolean", "double"]), _REFERENCE_TYPES),
    st.lists(st.sampled_from(["[]", " @X []"]), max_size=2),
).map(lambda t: t[0] + "".join(t[1]))


@st.composite
def _parameter_lists(draw):
    """Well-formed parameter texts, and the dimensions each writes after its name."""
    texts, dims = [], []
    for k in range(draw(st.integers(0, 4))):
        prefix = draw(st.lists(st.one_of(_ANNOTATIONS, st.just("final")), max_size=3))
        declared = draw(_TYPES)
        after = draw(st.integers(0, 2))
        if draw(st.booleans()):
            declared, after = declared + "...", 0  # varargs, as any parameter's; javac wants it last
        texts.append(" ".join([*prefix, declared, draw(_NAMES) + "[]" * after]))
        dims.append(after)
    return ", ".join(texts), dims


def _without_type_annotations(declared_type: str) -> str:
    return re.sub(r" ?@[\w.]+(\([^)]*\))? ?", "", declared_type)


@given(_parameter_lists())
@example(("@Named(value = (\"x\")) final int a, final @X Map<K,List<Map<K,V>>> b, int... c", [0, 0, 0]))
@example(("java.util.Map.Entry<K,V>[] e[], List<@X String> f, Outer<K>.Inner g", [1, 0, 0]))
@example(("List<@Size(max = 3) String> names, String @X [] a, int[] xs", [0, 0, 0]))
def test_parameters_and_record_components_equal_the_comma_splitting_oracle(listed):
    """Only dimensions after a name and annotations inside a type, both now kept, and a varargs `...`, now `[]`, differ."""
    text, dims = listed
    source = f"class A {{ void f({text}) {{ }} }} record R({text}) {{ }}"
    tokens = tokenize(source)
    match = tokens.pairs[0]
    (method,), (_, record) = index_file(tokenize(source), "A.java")
    opens = [k for k, tok in enumerate(tokens) if tok.text == "(" and tokens[k - 1].text in ("f", "R")]
    expected = comma_split_parameters(tokens, opens[0] + 1, opens[0] + match[opens[0]])
    # A name declared twice, which javac rejects, keeps its first declaration.
    first: dict[str, str] = {}
    for p, k in zip(expected, dims):
        # A varargs parameter's `...` reads as the `[]` it is inside the body.
        first.setdefault(p.name, p.declared_type.replace("...", "[]") + "[]" * k)
    declared = parameters_of(method)
    assert [(name, _without_type_annotations(d.declared_type)) for name, d in declared.items()] == list(first.items())
    assert len(expected) == len(dims)
    assert record.field_names == {p.name for p in comma_split_parameters(tokens, opens[1] + 1, opens[1] + match[opens[1]])}
