"""The tokenizer against a frozen copy of its one-pass dataclass version.

``_oracle_tokenize`` is the tokenizer as it stood when tokens were frozen
dataclasses; the tuple-backed ``Token`` must give the same
``(type, value, line, col)`` sequence and the same diagnostics on every
input: the aircraft, the benchmark's generated corpus, every string literal
in the test suite and generated text.
"""

import ast
import importlib.util
import pathlib
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from domcalc.diagnostics import Diagnostic, SourceSpan, error
from domcalc.dsl import Token, _tokenize, parse_model
from domcalc.units import UnitBoundError, parse_fraction

from conftest import CORPUS, oracle_budget

ROOT = pathlib.Path(__file__).resolve().parent.parent

_ORACLE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[{}();:,.=^*/x-])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _OracleToken:
    type: str
    value: str
    line: int
    col: int


def _oracle_tokenize(text: str, file: str) -> tuple[list[_OracleToken], list[Diagnostic]]:
    tokens: list[_OracleToken] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    for match in _ORACLE_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "bad":
            diagnostics.append(error(
                "E001", f"unexpected character {value!r}",
                SourceSpan.point(file, line, match.start() - line_start + 1)))
        elif kind != "ws" and kind != "comment":
            tokens.append(_OracleToken(kind, value, line, match.start() - line_start + 1))
        if (kind == "ws" or kind == "string") and "\n" in value:
            line += value.count("\n")
            line_start = match.start() + value.rfind("\n") + 1
    tokens.append(_OracleToken("eof", "", line, len(text) - line_start + 1))
    return tokens, diagnostics


def assert_same_tokens(text: str) -> None:
    expected, expected_diagnostics = _oracle_tokenize(text, "f.dom")
    tokens, diagnostics = _tokenize(text, "f.dom")
    assert [(t.type, t.value, t.line, t.col) for t in tokens] == \
        [(t.type, t.value, t.line, t.col) for t in expected]
    assert diagnostics == expected_diagnostics


def _benchmark_corpus() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, gen)  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return [gen.model_text(s) for s in gen.corpus(1, 120, tuple(range(10, 40)))]


def _test_suite_strings() -> list[str]:
    """Every string literal in the test modules: the ``.dom`` snippets and more."""
    found = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return sorted(found)


def test_aircraft_tokens_match_the_oracle():
    assert_same_tokens((CORPUS / "aircraft.dom").read_text(encoding="utf-8"))


def test_benchmark_corpus_tokens_match_the_oracle():
    texts = _benchmark_corpus()
    assert len(texts) == 150
    for text in texts:
        assert_same_tokens(text)


def test_test_suite_snippets_match_the_oracle():
    strings = _test_suite_strings()
    assert sum("part " in s for s in strings) > 50
    for text in strings:
        assert_same_tokens(text)


_FRAGMENTS = ["part", "A", " ", "\n", "\r\n", "\r", "\t", "µ", "Ω", "°", '"', '\\', "\\\n",
              '"open', '"a\\"b"', "--", "-- note\n", "1", "-2", "3.25", "1e5", "2E-3",
              "-", "->", ".", "x", "{", "}", ";", ":", "=", "^", "/", "*", "@", "#", "é",
              " ", "\x0b", "\x0c", "٣"]


@oracle_budget(400)
@given(st.lists(st.sampled_from(_FRAGMENTS), min_size=20, max_size=40).map("".join))
def test_generated_fragments_match_the_oracle(text):
    assert_same_tokens(text)


# Fragments that neither open a string nor end a comment.
_FILLER = st.lists(st.sampled_from(
    [f for f in _FRAGMENTS if '"' not in f and "\n" not in f and "\r" not in f])).map("".join)


@oracle_budget(100)
@given(_FILLER, _FILLER, _FILLER, _FILLER)
def test_generated_lone_quotes_around_a_comment_match_the_oracle(a, b, c, d):
    # A '"' that opens no string, then a comment ending in a backslash: the
    # blanked comment must not let the '"' pair with the one after it.
    assert_same_tokens(a + '"' + b + "--" + c + "\\\n" + d + '"')


@oracle_budget(200)
@given(st.text(max_size=60))
def test_generated_text_matches_the_oracle(text):
    assert_same_tokens(text)


def test_token_surface():
    assert Token._fields == ("type", "value", "line", "col")
    tok = Token("ident", "part", 2, 5)
    assert (tok.type, tok.value, tok.line, tok.col) == ("ident", "part", 2, 5)
    assert tok.span("f.dom") == SourceSpan("f.dom", 2, 5, 2, 9)
    assert Token("eof", "", 3, 1).span("f.dom") == SourceSpan("f.dom", 3, 1, 3, 2)
    assert tok == Token("ident", "part", 2, 5)
    assert tok != Token("ident", "part", 2, 6)
    assert hash(tok) == hash(Token("ident", "part", 2, 5))
    with pytest.raises(AttributeError):
        tok.value = "attr"
    tokens, _ = _tokenize("part A", "f.dom")
    assert all(type(t) is Token for t in tokens)
    assert tokens[1] == Token("ident", "A", 1, 6)


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"-?[0-9]{1,30}(\.[0-9]{1,30})?([eE][-+]?[0-9]{1,6})?", fullmatch=True))
def test_number_literals_parse_as_parse_fraction(literal):
    model, diagnostics = parse_model(f"conversion c : m -> q = affine({literal}, 0);")
    try:
        expected = parse_fraction(literal)
    except UnitBoundError:
        assert [d.code for d in diagnostics] == ["E208"]
        return
    assert not diagnostics
    assert model.conversions[0].scale == expected


@pytest.mark.parametrize("length", [1364, 1365, 1366, 1367])
def test_long_number_literals_keep_the_bound(length):
    # 4096 bits hold 1365 decimal digits; a leading '-' or '.' is not a digit.
    for literal in ("7" * length, "-" + "7" * length, "7." + "7" * (length - 1)):
        model, diagnostics = parse_model(f"conversion c : m -> q = affine({literal}, 0);")
        digits = sum(map(str.isdecimal, literal))
        if digits * 3 > 4096:
            assert [d.code for d in diagnostics] == ["E208"]
        else:
            assert not diagnostics
            assert model.conversions[0].scale == Fraction(literal)
