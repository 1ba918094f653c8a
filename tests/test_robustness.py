"""Any text given as a Java file, a fragment or a config fails soft.

The engine's entry points for untrusted text raise only EngineError
subclasses, which the CLI turns into warnings or exit code 3; nothing
else may escape as a traceback.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticopypaster.errors import EngineError
from anticopypaster.metrics import CATEGORIES, CONFIGURABLE_KEYWORDS, SUBMETRIC_BY_NAME
from anticopypaster.settings import load_settings
from anticopypaster.source_model import index_file, validate_fragment

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
