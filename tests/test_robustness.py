"""Any text given as a Java file, a fragment or a config fails soft.

The engine's entry points for untrusted text, and `open_project` on a
tree of arbitrary bytes, raise only EngineError subclasses, which the
CLI turns into warnings or exit code 3; nothing else may escape as a
traceback.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticopypaster.cli import run_command
from anticopypaster.errors import EngineError
from anticopypaster.metrics import CATEGORIES, CONFIGURABLE_KEYWORDS, SUBMETRIC_BY_NAME
from anticopypaster.settings import load_settings
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import write_project

# Lexemes and pieces of them, so random joins reach the indexer and the
# statement parser, not only the lexer's error paths.
_JAVA_PIECES = st.sampled_from([
    "class ", "interface ", "enum ", "record ", "A ", "x", "n", "void ", "int ", "static ",
    "final ", "@Override ", "(", ")", "{", "}", "[", "]", "<", ">", ">>", ";", ",", ".", "=",
    "+", "++", "?", ":", "->", "::", "...", "if ", "else ", "for ", "while ", "do ", "switch ",
    "case ", "default", "return ", "break ", "new ", "try ", "catch ", "finally ", "1", "0x1F",
    "'c'", '"s"', '"""\n t"""', "/*", "*/", "// c\n", '"', "'", " ", "\n", "\t", "²", "\\",
])
_JAVA_TEXT = st.one_of(st.text(max_size=60), st.lists(_JAVA_PIECES, max_size=60).map("".join))


@settings(deadline=None)
@given(_JAVA_TEXT)
@example("class A { " * 5000 + "}" * 5000)
@example("x = " + "(" * 5000 + "1" + ")" * 5000 + ";")
def test_java_text_raises_only_engine_errors(text):
    try:
        index_file(text, "A.java")
    except EngineError:
        pass
    validate_fragment(text)  # invalidity is a value, never an error


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_NAMES = st.sampled_from([*CATEGORIES, *SUBMETRIC_BY_NAME, *CONFIGURABLE_KEYWORDS, "enabled",
                          "required", "file", "project", "**/build/**", "bulk"])
_VALUES = st.one_of(
    _JSON,
    _NAMES,
    st.lists(_NAMES, max_size=3),
    st.dictionaries(_NAMES, _JSON | st.dictionaries(_NAMES, _JSON, max_size=2), max_size=3),
)
_KEYS = st.sampled_from(["minDuplicateMethods", "delaySeconds", "sensitivity", "submetrics",
                         "keywords", "nearMatchThreshold", "searchScope", "ignore", "unknown"])
_CONFIG_TEXT = st.one_of(
    st.text(max_size=40),
    _JSON.map(json.dumps),
    st.dictionaries(_KEYS, _VALUES, max_size=4).map(json.dumps),
)


@given(_CONFIG_TEXT)
@example("[" * 100_000)
@example('{"delaySeconds": ' + "9" * 5000 + "}")
def test_config_text_raises_only_engine_errors(text):
    try:
        load_settings(text)
    except EngineError:
        pass


# Whole statements, so some files hold methods and some fragments parse,
# and the commands get past validation to the scan, the gate and the rewrite.
_STATEMENTS = st.sampled_from([
    "int n = 0;", "n += x;", "for (int x : xs) { n += x; }", "if (n > 0) { n--; }", "g(n);",
    "return n;", "break;", "int[] ys = {1, 2};", "String s = \"a\" + n;", "x = n;",
])
# Two methods with the same body; f's body starts on line 4.
_HOST = "class A {\n  int x;\n  int f(int[] xs) {\n%s\n  }\n  void g(int[] xs) {\n%s\n  }\n}\n"


@st.composite
def _cli_inputs(draw):
    """A file, a fragment and a paste line; often a run of the file's lines and where it starts."""
    line_texts = st.one_of(_STATEMENTS, _STATEMENTS, _STATEMENTS, _JAVA_PIECES)
    body = draw(st.lists(line_texts, min_size=1, max_size=8))
    source = draw(st.one_of(st.just(_HOST % ("\n".join(body), "\n".join(body))), _JAVA_TEXT))
    lo = draw(st.integers(0, len(body) - 1))
    hi = draw(st.integers(lo + 1, len(body)))
    fragment = draw(st.one_of(st.just("\n".join(body[lo:hi])), _JAVA_TEXT))
    line = draw(st.one_of(st.just(4 + lo), st.integers(0, 12)))
    return source, fragment, line


@settings(deadline=None, max_examples=50)
@given(_cli_inputs())
def test_cli_commands_exit_with_a_documented_code(inputs):
    source, fragment, line = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = write_project(Path(tmp) / "p", {"A.java": source})
        frag = Path(tmp) / "frag.java"
        frag.write_text(fragment, encoding="utf-8")
        at = ["--fragment", str(frag), "--at", f"A.java:{line}"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes = [
                run_command(["analyze", str(root), "--json"]),
                run_command(["check", str(root), *at, "--json"]),
                run_command(["extract", str(root), *at, "--name", "extracted"]),
                run_command(["thresholds", str(root), "--json"]),
            ]
    assert set(codes) <= {0, 1, 2, 3}


_SOURCE_BYTES = st.one_of(
    st.binary(max_size=60),
    _JAVA_TEXT.map(lambda text: text.encode("utf-8")),
    st.sampled_from(["utf-16", "latin-1", "cp1252"]).flatmap(
        lambda codec: _JAVA_TEXT.map(lambda text: text.encode(codec, errors="replace"))
    ),
)
# `d.java` is also the name of a directory in some trees.
_PATHS = st.sampled_from(["A.java", "p/B.java", "p/q/C.java", "p/q/r/D.java", "d.java/E.java", "d.java"])


@settings(deadline=None, max_examples=50)
@given(st.dictionaries(_PATHS, _SOURCE_BYTES, min_size=1, max_size=5), st.none() | st.binary(max_size=30))
@example({"A.java": b"\xff\xfeclass A {}", "p/B.java": "class B { void f() { g(); } }".encode()}, None)
@example({"d.java/E.java": b"class E {}"}, b"{}")
def test_open_project_on_arbitrary_bytes_only_warns(files, config):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, data in files.items():
            if rel == "d.java" and "d.java/E.java" in files:
                continue  # the directory takes the name
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        if config is not None:
            (root / ".anticopypaster.json").write_bytes(config)
        try:
            session = open_project(root)
        except EngineError:
            return
        for path in root.rglob("*.java"):
            rel = path.relative_to(root).as_posix()
            if path.is_file():
                try:
                    path.read_bytes().decode("utf-8")
                    continue
                except UnicodeDecodeError:
                    pass
            assert rel not in session.files
            assert any(w.startswith(f"{rel}: ") for w in session.warnings)
        assert all(m.file_path in session.files for m in session.methods)
