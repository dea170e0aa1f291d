import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from domcalc import analysis
from domcalc.diagnostics import SourceSpan, error
from domcalc.dsl import _tokenize, parse_model, print_model
from domcalc.model import MereologyExpr

from conftest import short_id
from modelgen import random_model
from test_tokens import assert_same_tokens


def test_aircraft_corpus_structure(aircraft_model):
    model = aircraft_model
    assert [e.name for e in model.endurants] == ["AC", "PP", "TD", "DP"]
    ac = model.endurant("AC")
    assert ac.children == ("PP", "TD", "DP")
    assert model.endurant("PP").mereology == MereologyExpr(("DPI",))
    assert model.endurant("TD").mereology == MereologyExpr(("DPI",))
    assert model.endurant("DP").mereology == MereologyExpr(("PPI", "TDI"))
    assert [str(e.mereology) for e in model.endurants] == ["empty", "DPI", "DPI", "PPI x TDI"]
    pp = model.endurant("PP")
    assert [(a.name, a.category) for a in pp.attributes] == [
        ("LO", "reactive"), ("LA", "reactive"), ("AL", "reactive")]
    td = model.endurant("TD")
    assert [a.name for a in td.attributes] == ["VEL", "ACC"]
    dp = model.endurant("DP")
    assert [a.name for a in dp.attributes] == ["dLO", "dLA", "dAL", "dVEL", "dACC"]
    assert all(a.category == "programmable" for a in dp.attributes)
    assert len(model.conversions) == 15
    assert len(model.axioms) == 1


def test_empty_file():
    model, diagnostics = parse_model("")
    assert model.is_empty
    assert diagnostics == []
    assert print_model(model) == ""


def test_duplicate_id_reported():
    _, diagnostics = parse_model("part PP { id PPI; id PPI2; mereo empty; }")
    assert [d.code for d in diagnostics] == ["E002"]


def test_duplicate_sorts_reported():
    text = """
    part PP { id PPI; mereo empty; }
    part PP { id QQI; mereo empty; }
    """
    _, diagnostics = parse_model(text)
    assert "E002" in {d.code for d in diagnostics}


def test_single_atomic_part_prints_one_block():
    model, diagnostics = parse_model("part PP { id PPI; mereo empty; }")
    assert not diagnostics
    text = print_model(model)
    assert text == "part PP {\n  id PPI;\n  mereo PP -> empty;\n}\n"


def test_print_contains_display_mereology(aircraft_model):
    assert "mereo DP -> PPI x TDI" in print_model(aircraft_model)


def test_roundtrip_aircraft(aircraft_model):
    reparsed, diagnostics = parse_model(print_model(aircraft_model))
    assert not diagnostics
    assert reparsed == aircraft_model


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_roundtrip_generated_models(seed):
    model = random_model(random.Random(seed))
    reparsed, diagnostics = parse_model(print_model(model))
    assert not diagnostics
    assert reparsed == model


def test_recovery_reports_multiple_errors():
    text = """
    part A { id AI; mereo empty; }
    part { broken
    part B { id BI; mereo empty; }
    channel ;
    part C { id CI; mereo empty; }
    """
    model, diagnostics = parse_model(text)
    assert len([d for d in diagnostics if d.code == "E001"]) >= 2
    assert {e.name for e in model.endurants} >= {"A", "C"}


def test_diagnostic_spans_inside_input():
    text = "part A {\n  id AI;\n  bogus;\n}\n"
    _, diagnostics = parse_model(text, file="t.dom")
    assert diagnostics
    lines = text.splitlines()
    for diag in diagnostics:
        assert diag.span.file == "t.dom"
        assert 1 <= diag.span.start_line <= len(lines)
        assert 1 <= diag.span.start_col <= len(lines[diag.span.start_line - 1]) + 1


def test_mereology_sort_prefix_must_match():
    _, diagnostics = parse_model("part A { id AI; mereo B -> AI; }")
    assert "E003" in {d.code for d in diagnostics}


def test_comments_and_doc_strings():
    text = """
    -- a line comment
    part A { doc "a \\"quoted\\" note"; id AI; mereo empty; } -- trailing
    """
    model, diagnostics = parse_model(text)
    assert not diagnostics
    assert model.endurant("A").doc == 'a "quoted" note'
    reparsed, _ = parse_model(print_model(model))
    assert reparsed == model


def test_mereology_set_form():
    model, diagnostics = parse_model(
        "part A { id AI; mereo set(BI); } part B { id BI; mereo empty; } "
        "part C { id CI; mereo BI; }")
    assert not diagnostics
    assert model.endurant("A").mereology.leaves() == ("BI",)
    assert "mereo A -> set(BI)" in print_model(model)
    assert str(model.endurant("A").mereology) == "set(BI)"
    # A set of BI is not BI, though both have the one leaf.
    set_form, one_id = model.endurant("A").mereology, model.endurant("C").mereology
    assert set_form != one_id and hash(set_form) != hash(one_id)


def test_bad_character_is_a_diagnostic_not_a_crash():
    model, diagnostics = parse_model("part A { id AI; mereo empty; } @")
    assert any(d.code == "E001" for d in diagnostics)
    assert model.endurant("A") is not None


def test_described_fragments_reparse(aircraft_model):
    # Idempotence on the corpus: prompt output re-parses and re-validates.
    for sort in ("AC", "PP", "TD", "DP"):
        for prompt in (analysis.observe_unique_identifier,
                       analysis.observe_mereology,
                       analysis.observe_attributes):
            source = prompt(aircraft_model, sort).source
            fragment, diagnostics = parse_model(source)
            assert not diagnostics, source
            assert analysis.check_wellformed(fragment) == []


def test_kitchen_sink_roundtrip():
    text = """
    part RT composite(A, B) { id RTI; mereo empty; }
    part A {
      doc "producer";
      behaviour alpha;
      id AI;
      mereo A -> set(BI);
      attr X : point m autonomous;
      attr S : kg static init 2.5;
    }
    part B { id BI; mereo AI; attr dX : point m programmable init 0; attr BD : m biddable init 1; }
    component CMP { id CMPI; }
    material GAS { doc "fuel"; }
    channel alpha_b_ch : point m;
    axiom ax { display(B.dX) tracks (A.X); }
    """
    model, diagnostics = parse_model(text)
    assert not diagnostics
    printed = print_model(model)
    reparsed, rediag = parse_model(printed)
    assert not rediag
    assert reparsed == model
    assert print_model(reparsed) == printed


def test_rational_affine_coefficients_roundtrip():
    from fractions import Fraction
    text = "conversion c : m -> q = affine(5/18, -1/3);"
    model, diagnostics = parse_model(text)
    assert not diagnostics
    conv = model.conversions[0]
    assert conv.scale == Fraction(5, 18) and conv.offset == Fraction(-1, 3)
    reparsed, _ = parse_model(print_model(model))
    assert reparsed == model


@pytest.mark.parametrize("literal", ["1e5000", "1e10000000", "1e-5000", "1" * 2000,
                                     "1/1e5000"], ids=short_id)
def test_affine_coefficient_beyond_bound_is_e208(literal):
    started = time.perf_counter()
    _, diagnostics = parse_model(f"conversion c : m -> q = affine({literal}, 0);")
    assert time.perf_counter() - started < 0.5
    assert [d.code for d in diagnostics] == ["E208"]
    assert "beyond 4096 bits" in diagnostics[0].message


def test_affine_zero_denominator_is_e001():
    _, diagnostics = parse_model("conversion c : m -> q = affine(5/0, 0);")
    assert [d.code for d in diagnostics] == ["E001"]


_TOKENIZER_CASES = {
    "multi-line string": ('doc "one\ntwo\n  three" x\n;', [
        ("ident", "doc", 1, 1), ("string", '"one\ntwo\n  three"', 1, 5),
        ("ident", "x", 3, 10), ("punct", ";", 4, 1), ("eof", "", 4, 2)], []),
    "crlf": ("part A {\r\n  id AI;\r\n}\r\n", [
        ("ident", "part", 1, 1), ("ident", "A", 1, 6), ("punct", "{", 1, 8),
        ("ident", "id", 2, 3), ("ident", "AI", 2, 6), ("punct", ";", 2, 8),
        ("punct", "}", 3, 1), ("eof", "", 4, 1)], []),
    "tab": ("attr\tx : m;", [
        ("ident", "attr", 1, 1), ("ident", "x", 1, 6), ("punct", ":", 1, 8),
        ("ident", "m", 1, 10), ("punct", ";", 1, 11), ("eof", "", 1, 12)], []),
    "unterminated string": ('doc "open\nx', [
        ("ident", "doc", 1, 1), ("ident", "open", 1, 6), ("ident", "x", 2, 1),
        ("eof", "", 2, 2)], [(1, 5, '"')]),
    "micro sign": ("attr x : µs;", [
        ("ident", "attr", 1, 1), ("ident", "x", 1, 6), ("punct", ":", 1, 8),
        ("ident", "s", 1, 11), ("punct", ";", 1, 12), ("eof", "", 1, 13)], [(1, 10, "µ")]),
    # A backslash escapes no newline, so the string does not match.
    "backslash-newline in string": ('doc "a\\\nb" y', [
        ("ident", "doc", 1, 1), ("ident", "a", 1, 6), ("ident", "b", 2, 1),
        ("ident", "y", 2, 4), ("eof", "", 2, 5)], [(1, 5, '"'), (1, 7, "\\"), (2, 2, '"')]),
    # A '"' that opens no string stays bad (E001) when a comment follows it:
    # it does not pair with the '"' after that comment.
    "lone quote before a comment": ('"x --\\\n"', [
        ("ident", "x", 1, 2), ("eof", "", 2, 2)], [(1, 1, '"'), (2, 1, '"')]),
    "empty": ("", [("eof", "", 1, 1)], []),
    # Whitespace and comments are skipped as a prefix of the next token's match.
    "ends inside a comment": ("part A -- no newline at the end", [
        ("ident", "part", 1, 1), ("ident", "A", 1, 6), ("eof", "", 1, 32)], []),
    "only whitespace and comments": ("  \n-- only comments\n\t\n  -- and blanks  ", [
        ("eof", "", 4, 18)], []),
    "20,000 lines of blanks and comments": (
        "part" + "".join("\n" if i % 2 else "  -- note\n" for i in range(20_000)) + "A", [
            ("ident", "part", 1, 1), ("ident", "A", 20_001, 1), ("eof", "", 20_001, 2)], []),
}


@pytest.mark.parametrize("case", sorted(_TOKENIZER_CASES))
def test_tokenizer_positions_and_diagnostics(case):
    text, tokens, bad = _TOKENIZER_CASES[case]
    assert_same_tokens(text)
    got_tokens, diagnostics = _tokenize(text, "f.dom")
    assert [(t.type, t.value, t.line, t.col) for t in got_tokens] == tokens
    assert diagnostics == [error("E001", f"unexpected character {char!r}",
                                 SourceSpan.point("f.dom", line, col))
                           for line, col, char in bad]

