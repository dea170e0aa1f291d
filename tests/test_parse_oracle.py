"""``parse_model`` against a frozen copy of the parser it replaced.

``_oracle_parse`` is the front end as it stood when ``_tokenize`` made one
``Token`` tuple per ``finditer`` match and ``_Parser`` read those tuples.
The parser under test reads plain token strings from one ``re.split`` scan
and makes lines and columns only for spans and diagnostics; it must give
equal models, equal spans on every declaration and attribute and equal
diagnostics on every input: the aircraft, the benchmark's generated corpus,
every string literal in the test suite, generated text and single edits of
the corpus models.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from hypothesis import given, strategies as st

from domcalc.diagnostics import Diagnostic, SourceSpan, error
from domcalc.dsl import parse_model
from domcalc.model import (
    CATEGORIES,
    CONTINUOUS,
    DISCRETE,
    ENDURANT_KINDS,
    MATERIAL,
    PART,
    STATIC,
    AttributeDecl,
    AxiomDecl,
    AxiomSource,
    ChannelDecl,
    ConversionDecl,
    DomainModel,
    EndurantDecl,
    MereologyExpr,
)
from domcalc.units import UnitBoundError, parse_fraction

from conftest import CORPUS, oracle_budget
from test_tokens import _FRAGMENTS, _benchmark_corpus, _test_suite_strings

# -- the frozen front end ------------------------------------------------------

_TOP_KEYWORDS = ("part", "material", "component", "conversion", "channel", "axiom")

# Whitespace and comments are a prefix of the next token's match, so one
# match is one token; ``eof`` matches at the end, after any trailing ones.
# The prefix is the longest run of whitespace and ``--`` comments, split at
# its first newline: group 1 holds the run from that newline on, so a token
# on the same line as the one before it costs no newline search.
_TOKEN_RE = re.compile(
    r"""
    [^\S\n]*(?:--[^\n]*)?(\n(?:\s+|--[^\n]*)*)?
    (?:
      (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
    | (?P<arrow>->)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<punct>[{}();:,.=^*/x-])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


# ``_join_ref`` puts a space between two adjacent pieces that are word-ish.
_WORDISH = re.compile(r"[A-Za-z_0-9µΩ°]")


class Token(NamedTuple):
    type: str  # ident | number | string | punct | arrow | eof
    value: str
    line: int
    col: int

    def span(self, file: str) -> SourceSpan:
        end_col = self.col + max(len(self.value), 1)
        return SourceSpan(file, self.line, self.col, self.line, end_col)


class _ParseError(Exception):
    def __init__(self, message: str, token: Token, code: str = "E001"):
        super().__init__(message)
        self.message = message
        self.token = token
        self.code = code


def _tokenize(text: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    """One ``finditer`` pass, one match per token: each match skips the
    whitespace and comments before its token, so the line advances by the
    newlines in that gap (group 1), and by those inside a string token (the
    pattern is not DOTALL, so ``\\.`` in a string escapes no newline).  Every
    other character is ``bad`` (E001).  The loop stops at the first ``eof``:
    ``finditer`` yields a second, empty one after trailing whitespace."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    make = tuple.__new__
    count, rfind = text.count, text.rfind
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        gap_end = match.end(1)
        if gap_end > 0:
            line += count("\n", match.start(), gap_end)
            line_start = rfind("\n", 0, gap_end) + 1
        kind = match.lastgroup
        if kind == "eof":
            break
        start = match.start(kind)
        if kind == "bad":
            diagnostics.append(error(
                "E001", f"unexpected character {text[start]!r}",
                SourceSpan.point(file, line, start - line_start + 1)))
            continue
        value = match.group(kind)
        tokens.append(make(Token, (kind, value, line, start - line_start + 1)))
        if kind == "string" and "\n" in value:
            line += value.count("\n")
            line_start = start + value.rfind("\n") + 1
    tokens.append(make(Token, ("eof", "", line, len(text) - line_start + 1)))
    return tokens, diagnostics


def _join_ref(parts: list[str]) -> str:
    """Canonical text for a quantity reference or value literal: spaces only
    between adjacent word-ish tokens ('point deg', 'km/h', 'm/s^2')."""
    out: list[str] = []
    for piece in parts:
        if out and _WORDISH.match(out[-1][-1]) and _WORDISH.match(piece[0]):
            out.append(" ")
        out.append(piece)
    return "".join(out)


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.index = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.type != "eof":
            self.index += 1
        return tok

    def at(self, value: str) -> bool:
        return self.peek().value == value and self.peek().type != "string"

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if tok.value != value or tok.type == "string":
            raise _ParseError(f"expected {value!r}, found {tok.value or 'end of file'!r}", tok)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.type != "ident":
            raise _ParseError(f"expected {what}, found {tok.value or 'end of file'!r}", tok)
        return self.next()

    def fail(self, message: str, token: Optional[Token] = None) -> "_ParseError":
        return _ParseError(message, token or self.peek())

    def report(self, code: str, message: str, token: Token) -> None:
        self.diagnostics.append(error(code, message, token.span(self.file)))

    def skip_to_top_level(self) -> None:
        """Recovery: consume tokens until the next plausible block boundary, a
        top-level keyword either at brace depth 0 or right after '}' or ';'
        (stray braces would otherwise swallow the rest of the file)."""
        depth = 0
        prev = ""
        while True:
            tok = self.peek()
            if tok.type == "eof":
                return
            if (tok.type == "ident" and tok.value in _TOP_KEYWORDS
                    and (depth == 0 or prev in ("}", ";"))):
                return
            if tok.value == "{":
                depth += 1
            elif tok.value == "}":
                if depth == 0:
                    self.next()
                    return
                depth -= 1
            prev = tok.value
            self.next()

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> DomainModel:
        endurants: list[EndurantDecl] = []
        conversions: list[ConversionDecl] = []
        channels: list[ChannelDecl] = []
        axioms: list[AxiomDecl] = []
        while self.peek().type != "eof":
            tok = self.peek()
            try:
                if tok.value in ENDURANT_KINDS:
                    endurants.append(self.parse_endurant(tok.value))
                elif tok.value == "conversion":
                    conversions.append(self.parse_conversion())
                elif tok.value == "channel":
                    channels.append(self.parse_channel())
                elif tok.value == "axiom":
                    axioms.append(self.parse_axiom())
                else:
                    raise self.fail(
                        f"expected a declaration keyword, found {tok.value!r}")
            except _ParseError as err:
                self.report(err.code, err.message, err.token)
                self.skip_to_top_level()
        model = DomainModel(tuple(endurants), tuple(conversions),
                            tuple(channels), tuple(axioms))
        self._check_duplicates(model)
        return model

    def parse_endurant(self, kind: str) -> EndurantDecl:
        start = self.next()  # keyword
        name = self.expect_ident("sort name")
        children: Optional[tuple[str, ...]] = None
        if self.at("composite"):
            if kind != PART:
                self.report("E001", f"{kind}s cannot be composite", self.peek())
            self.next()
            self.expect("(")
            kids = [self.expect_ident("child sort").value]
            while self.accept(","):
                kids.append(self.expect_ident("child sort").value)
            self.expect(")")
            children = tuple(kids)
        self.expect("{")

        doc: Optional[str] = None
        behaviour: Optional[str] = None
        id_type: Optional[str] = None
        mereology: Optional[MereologyExpr] = None
        attributes: list[AttributeDecl] = []
        while not self.at("}"):
            tok = self.peek()
            if tok.type == "eof":
                raise self.fail("unterminated block", tok)
            if tok.value == "doc":
                self.next()
                string = self.peek()
                if string.type != "string":
                    raise self.fail("expected string after 'doc'", string)
                self.next()
                doc = _unquote(string.value)
            elif tok.value == "behaviour":
                self.next()
                behaviour = self.expect_ident("behaviour name").value
            elif tok.value == "id":
                self.next()
                id_tok = self.expect_ident("identifier type")
                if id_type is not None:
                    self.report("E002", f"duplicate id declaration {id_tok.value!r}", id_tok)
                else:
                    id_type = id_tok.value
            elif tok.value == "mereo":
                self.next()
                mereology = self.parse_mereology(name.value)
            elif tok.value == "attr":
                self.next()
                attributes.append(self.parse_attribute())
                continue  # attribute parser consumes its ';'
            else:
                raise self.fail(f"unexpected clause {tok.value!r} in {kind} block", tok)
            self.expect(";")
        close = self.expect("}")
        discreteness = CONTINUOUS if kind == MATERIAL else DISCRETE
        return EndurantDecl(
            name=name.value, kind=kind, discreteness=discreteness,
            children=children, id_type=id_type, mereology=mereology,
            attributes=tuple(attributes), behaviour=behaviour, doc=doc,
            span=SourceSpan(self.file, start.line, start.col, close.line, close.col + 1))

    def parse_mereology(self, sort: str) -> MereologyExpr:
        # Accepts both 'mereo <expr>' and the canonical 'mereo <Sort> -> <expr>'.
        if self.peek().type == "ident" and self.tokens[self.index + 1].type == "arrow":
            named = self.next()
            if named.value != sort:
                self.report(
                    "E003",
                    f"mereology names {named.value!r} inside block for {sort!r}",
                    named)
            self.next()  # arrow
        if self.accept("empty"):
            return MereologyExpr()
        if self.at("set"):
            self.next()
            self.expect("(")
            inner = self.expect_ident("identifier type")
            self.expect(")")
            return MereologyExpr((inner.value,), is_set=True)
        first = self.expect_ident("identifier type")
        factors = [first.value]
        while self.at("x"):
            self.next()
            factors.append(self.expect_ident("identifier type").value)
        if len(factors) == 1:
            return MereologyExpr((factors[0],))
        return MereologyExpr(tuple(factors))

    def parse_attribute(self) -> AttributeDecl:
        name = self.expect_ident("attribute name")
        self.expect(":")
        quantity = self.collect_ref(stop=set(CATEGORIES) | {"init", ";"})
        if not quantity:
            raise self.fail("expected a quantity kind after ':'")
        category = STATIC
        if self.peek().type == "ident" and self.peek().value in CATEGORIES:
            category = self.next().value
        init: Optional[str] = None
        if self.at("init"):
            self.next()
            init = self.collect_ref(stop={";"})
            if not init:
                raise self.fail("expected a value after 'init'")
        semi = self.expect(";")
        return AttributeDecl(name.value, quantity, category, init,
                             span=SourceSpan(self.file, name.line, name.col,
                                             semi.line, semi.col + 1))

    def collect_ref(self, stop: set[str]) -> str:
        """Collect a quantity reference or value literal up to a stop token."""
        parts: list[str] = []
        while True:
            tok = self.peek()
            if tok.type == "eof" or tok.type == "string" or tok.value in stop:
                break
            if tok.value in ("{", "}"):
                break
            self.next()
            parts.append(tok.value)
        return _join_ref(parts)

    def parse_conversion(self) -> ConversionDecl:
        start = self.next()
        name = self.expect_ident("conversion name")
        self.expect(":")
        from_kind = self.collect_ref(stop={"->", "inverse", "="})
        if self.peek().type != "arrow":
            raise self.fail("expected '->' in conversion declaration")
        self.next()
        to_kind = self.collect_ref(stop={"inverse", "="})
        inverse: Optional[str] = None
        if self.at("inverse"):
            self.next()
            inverse = self.expect_ident("inverse conversion name").value
        self.expect("=")
        self.expect("affine")
        self.expect("(")
        scale = self.parse_number()
        self.expect(",")
        offset = self.parse_number()
        self.expect(")")
        semi = self.expect(";")
        if not from_kind or not to_kind:
            raise self.fail("conversion needs source and target kinds", start)
        return ConversionDecl(name.value, from_kind, to_kind, scale, offset, inverse,
                              span=SourceSpan(self.file, start.line, start.col,
                                              semi.line, semi.col + 1))

    def parse_number(self) -> Fraction:
        value = self.number_token("a number")
        if self.at("/"):  # exact rational literals: 5/18
            self.next()
            tok = self.peek()
            denominator = self.number_token("a denominator")
            if denominator == 0:
                raise self.fail("zero denominator in a rational literal", tok)
            value /= denominator
        return value

    def number_token(self, what: str) -> Fraction:
        tok = self.peek()
        if tok.type != "number":
            raise self.fail(f"expected {what}, found {tok.value!r}", tok)
        self.next()
        try:
            return parse_fraction(tok.value)
        except UnitBoundError as exc:
            raise _ParseError(str(exc), tok, "E208") from None

    def parse_channel(self) -> ChannelDecl:
        start = self.next()
        name = self.expect_ident("channel name")
        self.expect(":")
        kinds = [self.collect_ref(stop={"x", ";"})]
        while self.at("x"):
            self.next()
            kinds.append(self.collect_ref(stop={"x", ";"}))
        semi = self.expect(";")
        if any(not k for k in kinds):
            raise self.fail("channel declaration needs message kinds", start)
        return ChannelDecl(name.value, tuple(kinds),
                           span=SourceSpan(self.file, start.line, start.col,
                                           semi.line, semi.col + 1))

    def parse_axiom(self) -> AxiomDecl:
        start = self.next()
        name = self.expect_ident("axiom name")
        self.expect("{")
        self.expect("display")
        self.expect("(")
        target_sort, first_attr = self.parse_sort_attr()
        target_attrs = [first_attr]
        while self.accept(","):
            sort, attr = self.parse_sort_attr()
            if sort != target_sort:
                self.report("E001", "display attributes must share one sort", self.peek())
            target_attrs.append(attr)
        self.expect(")")
        self.expect("tracks")
        self.expect("(")
        sources = [self.parse_axiom_source()]
        while self.accept(";"):
            if self.at(")"):
                break
            sources.append(self.parse_axiom_source())
        self.expect(")")
        self.expect(";")
        close = self.expect("}")
        return AxiomDecl(name.value, target_sort, tuple(target_attrs), tuple(sources),
                         span=SourceSpan(self.file, start.line, start.col,
                                         close.line, close.col + 1))

    def parse_sort_attr(self) -> tuple[str, str]:
        sort = self.expect_ident("sort name")
        self.expect(".")
        attr = self.expect_ident("attribute name")
        return sort.value, attr.value

    def parse_axiom_source(self) -> AxiomSource:
        sort, attr = self.parse_sort_attr()
        chain: list[str] = []
        if self.at("via"):
            self.next()
            chain.append(self.expect_ident("conversion name").value)
            while self.accept(","):
                chain.append(self.expect_ident("conversion name").value)
        return AxiomSource(sort, attr, tuple(chain))

    # -- post-parse checks ---------------------------------------------------

    def _check_duplicates(self, model: DomainModel) -> None:
        def check(pairs, what: str) -> None:
            seen: dict[str, SourceSpan] = {}
            for name, span in pairs:
                if name in seen:
                    self.diagnostics.append(error(
                        "E002", f"duplicate {what} {name!r}",
                        span or SourceSpan.point(self.file, 1, 1)))
                else:
                    seen[name] = span

        check(((e.name, e.span) for e in model.endurants), "sort")
        check(((e.id_type, e.span) for e in model.endurants if e.id_type), "identifier type")
        check(((c.name, c.span) for c in model.conversions), "conversion")
        check(((c.name, c.span) for c in model.channels), "channel")
        check(((a.name, a.span) for a in model.axioms), "axiom")
        for endurant in model.endurants:
            check(((a.name, a.span) for a in endurant.attributes),
                  f"attribute of {endurant.name}")


def _unquote(raw: str) -> str:
    return raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")



def _oracle_parse(text: str, file: str) -> tuple[DomainModel, list[Diagnostic]]:
    tokens, diagnostics = _tokenize(text, file)
    parser = _Parser(tokens, file)
    model = parser.parse_model()
    return model, diagnostics + parser.diagnostics


# -- the comparison ------------------------------------------------------------

def _spans(model: DomainModel) -> list[str]:
    """The span of every declaration and attribute; model equality skips them."""
    decls = [*model.endurants, *model.conversions, *model.channels, *model.axioms]
    decls += [a for e in model.endurants for a in e.attributes]
    return [repr(d.span) for d in decls]


def assert_same_parse(text: str) -> None:
    expected, expected_diagnostics = _oracle_parse(text, "f.dom")
    model, diagnostics = parse_model(text, "f.dom")
    assert model == expected
    assert _spans(model) == _spans(expected)
    assert diagnostics == expected_diagnostics


# The aircraft, then the benchmark's 150 generated models.
_MODELS = [(CORPUS / "aircraft.dom").read_text(encoding="utf-8"), *_benchmark_corpus()]


def test_aircraft_parses_as_the_oracle():
    assert_same_parse(_MODELS[0])


def test_benchmark_corpus_parses_as_the_oracle():
    assert len(_MODELS) == 151
    for text in _MODELS[1:]:
        assert_same_parse(text)


def test_test_suite_strings_parse_as_the_oracle():
    strings = _test_suite_strings()
    assert sum("part " in s for s in strings) > 50
    for text in strings:
        assert_same_parse(text)


_WORDS = sorted({*_TOP_KEYWORDS, *CATEGORIES, "composite", "doc", "behaviour", "id", "mereo",
                 "attr", "empty", "set", "init", "inverse", "affine", "display", "tracks",
                 "via", "A", "AI", "m", "5/18", '"doc"', *"{}();:,.=^*/x-", "->"})
# Hypothesis draws about five elements for a list without a minimum size;
# the texts that hide a lone '"' (a '"', a comment ending in a backslash, a
# newline and a second '"') need more of them.
_TEXTS = st.lists(st.sampled_from(_WORDS) | st.sampled_from(_FRAGMENTS), min_size=20,
                  max_size=80)


@oracle_budget(400)
@given(st.sampled_from([" ", ""]), _TEXTS)
def test_generated_declarations_parse_as_the_oracle(separator, pieces):
    assert_same_parse(separator.join(pieces))


@oracle_budget(400)
@given(st.lists(st.sampled_from(_FRAGMENTS), min_size=20, max_size=60).map("".join))
def test_generated_fragments_parse_as_the_oracle(text):
    assert_same_parse(text)


@oracle_budget(200)
@given(st.data())
def test_single_edits_of_corpus_models_parse_as_the_oracle(data):
    """One edit of a model: up to three characters at one place replaced by
    a piece, which may be empty."""
    text = data.draw(st.sampled_from(_MODELS))
    start = data.draw(st.integers(0, len(text)))
    end = min(start + data.draw(st.integers(0, 3)), len(text))
    piece = data.draw(st.sampled_from(["", *_WORDS, *_FRAGMENTS]))
    assert_same_parse(text[:start] + piece + text[end:])
