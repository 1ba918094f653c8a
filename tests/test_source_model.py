from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anticopypaster.errors import EmptyScope, IndexingError
from anticopypaster.lexer import token_texts, tokenize
from anticopypaster.source_model import (
    index_file,
    nesting_profile,
    scan_declarations,
    validate_fragment,
)
from anticopypaster.statements import control_flow_violations, parse_statements

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
    methods, classes = index_file(TWO_METHODS, "TwoMethods.java")
    assert [m.name for m in methods] == ["first", "second"]
    first, second = methods
    assert (first.start_line, first.end_line) == (3, 5)
    assert (second.start_line, second.end_line) == (9, 11)
    assert first.id == "TwoMethods.java:3:first"
    assert classes[0].method_names == {"first", "second"}


def test_fields_only_file_produces_class_context_without_methods():
    source = "class Holder {\n    private int a;\n    private String b;\n}\n"
    methods, classes = index_file(source, "Holder.java")
    assert methods == []
    assert classes[0].field_names == {"a": "int", "b": "String"}


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
    methods, classes = index_file(source, "Outer.java")
    by_name = {m.name: m for m in methods}
    assert by_name["innerMethod"].owner.class_name == "Inner"
    assert by_name["outerMethod"].owner.class_name == "Outer"
    inner = next(c for c in classes if c.class_name == "Inner")
    assert inner.field_names == {"innerField": "int"}


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
    methods, classes = index_file(source, "Shape.java")
    assert [m.name for m in methods] == ["Shape"]
    assert classes[0].method_names == {"Shape", "area"}


def test_static_flag_and_parameters():
    source = """\
class Util {
    static java.util.List<String> wrap(String head, int[] tail) {
        return null;
    }
}
"""
    (method,), _ = index_file(source, "Util.java")
    assert method.is_static
    assert [(p.name, p.declared_type) for p in method.parameter_list] == [
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
    methods, classes = index_file(source, "Table.java")
    assert [m.name for m in methods] == ["lookup"]
    assert "sizes" in classes[0].field_names


def test_unbalanced_braces_raise_indexing_error():
    with pytest.raises(IndexingError):
        index_file("class A { void f() { }", "A.java")


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
    methods, _ = index_file(STRAY_DELIMITER_HOST % broken, "A.java")
    assert [(m.name, m.start_line) for m in methods] == [("f", 3), ("h", 6)]


def test_annotated_parameters_keep_their_types():
    source = """\
class A {
    void f(@Named(value = ("x")) int a, final @X List<Map<K,V>> b) {
        g();
    }
}
"""
    (method,), _ = index_file(source, "A.java")
    assert [(p.name, p.declared_type) for p in method.parameter_list] == [
        ("a", "int"),
        ("b", "List<Map<K,V>>"),
    ]


def test_enum_constant_bodies_are_skipped():
    source = "enum E { A(1), B(2) { int f() { return 1; } }; int g() { return 0; } }"
    methods, _ = index_file(source, "E.java")
    assert [m.name for m in methods] == ["g"]


def test_enum_with_unclosed_constant_arguments_indexes_nothing():
    source = "enum E { A(1, B(2; int g() { return 0; } }"
    methods, _ = index_file(source, "E.java")
    assert methods == []


def test_indexing_is_deterministic():
    a = index_file(TWO_METHODS, "TwoMethods.java")[0]
    b = index_file(TWO_METHODS, "TwoMethods.java")[0]
    assert [m.id for m in a] == [m.id for m in b]
    assert [(m.start_line, m.end_line) for m in a] == [(m.start_line, m.end_line) for m in b]


def test_retokenizing_body_lines_reproduces_body_tokens():
    lines = TWO_METHODS.split("\n")
    methods, _ = index_file(TWO_METHODS, "TwoMethods.java")
    for method in methods:
        body_source = "\n".join(lines[method.start_line - 1 : method.end_line])
        assert token_texts(tokenize(body_source)) == token_texts(method.body_tokens)


# --- fragment validity -------------------------------------------------------

def test_expression_statement_is_valid():
    assert validate_fragment("x = 1;").valid


def test_unbalanced_delimiters_are_invalid():
    assert not validate_fragment("if (x {").valid


@pytest.mark.parametrize("text", ["a[(b]);", "x = (a[b)];", "f((a);"])
def test_crossed_or_unmatched_delimiters_are_invalid(text):
    assert not validate_fragment(text).valid


def test_type_declaration_is_invalid():
    assert not validate_fragment("public class A {}").valid
    assert not validate_fragment("class A {}").valid


def test_method_declaration_is_invalid():
    assert not validate_fragment("void foo() { run(); }").valid
    assert not validate_fragment("int foo() { return 1; }").valid


def test_empty_text_is_invalid():
    fragment = validate_fragment("")
    assert not fragment.valid
    assert fragment.line_count == 0


def test_control_flow_statements_are_valid():
    assert validate_fragment("if (a) { b(); } else { c(); }").valid
    assert validate_fragment("for (int i = 0; i < n; i++) { f(i); }").valid
    assert validate_fragment("do { poll(); } while (busy);").valid
    assert validate_fragment("try { open(); } catch (Exception e) { log(e); }").valid
    assert validate_fragment("switch (k) { case 1: f(); break; default: g(); }").valid
    assert validate_fragment("synchronized (lock) { counter++; }").valid


@pytest.mark.parametrize(
    "text",
    [
        "switch (k) { case 1 -> a++; default -> a--; }",
        "switch (k) { case 1 -> { f(); } default -> throw e; }",
    ],
)
def test_arrow_case_labels_are_valid(text):
    assert validate_fragment(text).valid


def test_arrow_case_takes_only_a_block_throw_or_expression():
    assert not validate_fragment("switch (k) { case 1 -> return; }").valid
    assert not validate_fragment("switch (k) { case 1 -> }").valid


def test_case_label_control_flow():
    colon = validate_fragment("switch (k) { case 1: f(); break; default: return; }")
    arrow = validate_fragment("switch (k) { case 1 -> { break; } default -> g(); }")
    assert control_flow_violations(parse_statements(colon.tokens)) == ["return inside fragment"]
    assert control_flow_violations(parse_statements(arrow.tokens)) == []


def test_lambda_and_anonymous_class_statements_are_valid():
    assert validate_fragment("Runnable r = () -> { run(); };").valid
    assert validate_fragment("f(new Runnable() { public void run() { } });").valid


def test_labeled_break_is_valid():
    assert validate_fragment("outer: for (;;) { break outer; }").valid


def test_try_without_catch_or_finally_is_invalid():
    assert not validate_fragment("try { open(); }").valid


def test_line_count_trims_blank_edges():
    fragment = validate_fragment("\n\n  x = 1;\n\n")
    assert fragment.line_count == 1
    assert fragment.symbol_count == 4


# --- nesting profiles ---------------------------------------------------------

def test_nesting_profile_of_guarded_block():
    fragment = validate_fragment("if (x > 0) {\n    sum += x;\n}")
    assert nesting_profile(fragment) == [1, 2, 1]


def test_flat_statements_profile_at_depth_one():
    assert nesting_profile(validate_fragment("a();\nb();")) == [1, 1]
    assert nesting_profile(validate_fragment("x = 1;")) == [1]


def test_empty_scope_raises():
    with pytest.raises(EmptyScope):
        nesting_profile(validate_fragment(""))


def test_blank_interior_lines_keep_running_depth():
    fragment = validate_fragment("if (a) {\n\n    f();\n}")
    assert nesting_profile(fragment) == [1, 2, 2, 1]


def test_profile_changes_bounded_by_adjacent_brace_counts():
    # A line's depth can move by the braces after the previous line's first
    # token plus a leading '}' pre-decrement on the line itself.
    source = "while (a) {\n    if (b) { f(); }\n    g();\n}"
    fragment = validate_fragment(source)
    profile = nesting_profile(fragment)
    lines = source.split("\n")
    for i in range(1, len(profile)):
        budget = sum(lines[j].count("{") + lines[j].count("}") for j in (i - 1, i))
        assert abs(profile[i] - profile[i - 1]) <= budget


def test_method_profile_starts_at_depth_one():
    methods, _ = index_file(TWO_METHODS, "TwoMethods.java")
    for method in methods:
        profile = nesting_profile(method)
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
    texts = token_texts(tokenize(" ".join(draw(st.lists(_BLOCK_STATEMENTS, min_size=1, max_size=4)))))
    gaps = draw(st.lists(_TOKEN_GAPS, min_size=len(texts) - 1, max_size=len(texts) - 1))
    return "".join(text + gap for text, gap in zip(texts, [*gaps, ""]))


@given(_laid_out_statements())
@example("if (c) {\n\n  a();\n  } { {\n}\n}")
@example("{ { { a(); } }\n} // c\n\n x = 1;")
def test_nesting_profile_agrees_with_the_by_line_definition(text):
    fragment = validate_fragment(text)
    assert fragment.valid
    assert nesting_profile(fragment) == _by_line_profile(fragment.tokens, 1, fragment.line_count)
    indented = "\n".join("    " + line for line in text.split("\n"))
    methods, _ = index_file(f"class A {{\n  void m() {{\n{indented}\n  }}\n}}\n", "A.java")
    (method,) = methods
    expected = _by_line_profile(method.body_tokens, method.start_line, method.end_line)
    assert nesting_profile(method) == expected
    assert method.area == sum(expected)


# --- declaration scanning ----------------------------------------------------

def test_scan_finds_declarations_in_common_shapes():
    tokens = tokenize(
        "final int a = 1, b = 2;\n"
        "List<String> names = make();\n"
        "for (int i = 0; i < n; i++) { use(i); }\n"
        "for (String s : names) { use(s); }\n"
        "try (Closeable c = open()) { c.hashCode(); } catch (Exception e) { log(e); }"
    )
    declared = {name: decl.declared_type for name, decl in scan_declarations(tokens)}
    assert declared == {
        "a": "int",
        "b": "int",
        "names": "List<String>",
        "i": "int",
        "s": "String",
        "c": "Closeable",
        "e": "Exception",
    }


def test_scan_does_not_mistake_assignments_or_calls_for_declarations():
    tokens = tokenize("x = 1;\nfoo(a);\na.b = 2;\nx < y;")
    assert scan_declarations(tokens) == []
