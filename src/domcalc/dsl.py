"""Frontend for the ``.dom`` domain-description language.

The concrete grammar is keyword-block shaped::

    part <Sort> [composite(<Sort>, ...)] {
        doc "...";                        -- optional narrative note
        behaviour <name>;                 -- optional behaviour name
        id <IdType>;
        mereo <Sort> -> <expr>;           -- expr: empty | Pi | Pi x Pi ... | set(Pi)
        attr <name> : <quantity> [<category>] [init <value>];
    }
    material <Sort> { ... }
    component <Sort> { ... }
    conversion <name> : <K1> -> <K2> [inverse <name>] = affine(<scale>, <offset>);
    channel <name> : <kind> [x <kind> ...];
    axiom <name> {
        display(<Sort>.<attr>, ...) tracks (<Sort>.<attr> via <conv>, ...; ...);
    }

Files are UTF-8 with ``--`` line comments.  Parsing is total: errors are
reported as diagnostics and recovery resumes at the next block boundary, so
one run can report several problems.  ``print_model`` emits canonical text
with ``parse_model(print_model(m)) == m`` structurally.

One scan turns the text into two lists: the token strings and their
offsets.  A ``re.sub`` pre-pass blanks the ``--`` comments, and one
``re.split`` over the token alternation gives the gaps and the tokens.  The
parser reads a token's kind from its text and makes a line and column, by
bisection over the line starts, only for a span or a diagnostic.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, islice
from typing import NamedTuple, Optional

from .diagnostics import Diagnostic, SourceSpan, error
from .model import (
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
from .units import UnitBoundError, fraction_str, parse_fraction

_TOP_KEYWORDS = ("part", "material", "component", "conversion", "channel", "axiom")

_STRING = r'"(?:[^"\\]|\\.)*"'
# The pre-pass keeps each string, blanks each ``--`` comment to spaces and
# turns each ``"`` that opens no string into NUL, which starts no token:
# left as it is, an unterminated ``"`` would match as a string across a
# blanked comment.  Every replacement has the length of what it replaces.
_PREPASS_RE = re.compile(_STRING + r'|--[^\n]*|"')
# One capture group, so ``split`` alternates gaps and tokens.  A token's
# kind is read back from its text (``_kind``).
_SPLIT_RE = re.compile("(" + _STRING + r"""
    | -?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?   # number
    | ->                                 # arrow
    | [A-Za-z_][A-Za-z_0-9]*             # ident
    | [{}();:,.=^*/x-]                   # punct
    )""", re.VERBOSE)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

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
    def __init__(self, message: str, index: int, code: str = "E001"):
        super().__init__(message)
        self.message = message
        self.index = index
        self.code = code


def _blank(match: re.Match) -> str:
    found = match[0]
    if found[0] == "-":
        return " " * len(found)
    return found if len(found) > 1 else "\0"


def _scan(text: str) -> tuple[list[str], list[int], list[int]]:
    """The token strings, their offsets and the offsets of the characters
    that start no token (E001).  The end of the file is one last token
    ``""`` at ``len(text)``."""
    if '"' in text or "--" in text:
        text = _PREPASS_RE.sub(_blank, text)
    parts = _SPLIT_RE.split(text)
    bad: list[int] = []
    if "".join(parts[::2]).strip():
        gap_starts = islice(accumulate(map(len, parts), initial=0), 0, None, 2)
        for gap, start in zip(parts[::2], gap_starts):
            bad += (start + i for i, char in enumerate(gap) if not char.isspace())
    # Each gap ends where the token after it (or the end of the file) starts.
    offsets = list(islice(accumulate(map(len, parts)), 0, None, 2))
    del parts[::2]
    parts.append("")
    return parts, offsets, bad


def _kind(value: str) -> str:
    """A token's kind, read from its text."""
    head = value[:1]
    if head == '"':
        return "string"
    if head in _IDENT_START:
        return "ident"
    if value == "->":
        return "arrow"
    if head.isdecimal() or value[1:2].isdecimal():
        return "number"
    return "punct" if value else "eof"


def _tokenize(text: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    """``_scan`` as ``Token``s with their lines and columns, and the E001s."""
    parser = _Parser(text, file)
    return ([Token(_kind(value), value, *parser.locate(offset))
             for value, offset in zip(parser.values, parser.offsets)], parser.diagnostics)


def _join_ref(parts: list[str]) -> str:
    """Canonical text for a quantity reference or value literal: spaces only
    between adjacent word-ish tokens ('point deg', 'km/h', 'm/s^2')."""
    out: list[str] = []
    for piece in parts:
        if out and _WORDISH.match(out[-1][-1]) and _WORDISH.match(piece[0]):
            out.append(" ")
        out.append(piece)
    return "".join(out)


# What ends a quantity reference or value literal: the end of the file,
# a brace and the clause's own stop words (a string ends one too).
_STOP = frozenset(("", "{", "}"))
_ATTR_STOP = _STOP | set(CATEGORIES) | {"init", ";"}
_INIT_STOP = _STOP | {";"}
_FROM_STOP = _STOP | {"->", "inverse", "="}
_TO_STOP = _STOP | {"inverse", "="}
_CHANNEL_STOP = _STOP | {"x", ";"}
_CLAUSES = frozenset(("doc", "behaviour", "id", "mereo", "attr"))


class _Parser:
    """Recursive descent over ``values``, the token strings, with
    ``index`` at the next token; the last token, ``""``, is the end of the
    file and is never consumed."""

    def __init__(self, text: str, file: str):
        self.values, self.offsets, bad = _scan(text)
        self.file = file
        self.index = 0
        starts = list(accumulate(map((1).__add__, map(len, text.split("\n"))), initial=0))

        def locate(offset: int) -> tuple[int, int]:
            line = bisect_right(starts, offset)
            return line, offset - starts[line - 1] + 1

        self.locate = locate
        self.diagnostics: list[Diagnostic] = [
            error("E001", f"unexpected character {text[offset]!r}",
                  SourceSpan.point(file, *locate(offset)))
            for offset in bad]

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.values[self.index]

    def next(self) -> str:
        value = self.values[self.index]
        if value:
            self.index += 1
        return value

    def accept(self, value: str) -> bool:
        if self.values[self.index] == value:
            self.index += 1
            return True
        return False

    def expect(self, value: str) -> int:
        """Consume ``value``; its token index, for a span."""
        index = self.index
        found = self.values[index]
        if found != value:
            raise _ParseError(f"expected {value!r}, found {found or 'end of file'!r}", index)
        self.index = index + 1
        return index

    def expect_ident(self, what: str = "identifier") -> str:
        index = self.index
        found = self.values[index]
        if found[:1] not in _IDENT_START:
            raise _ParseError(f"expected {what}, found {found or 'end of file'!r}", index)
        self.index = index + 1
        return found

    def fail(self, message: str, index: Optional[int] = None) -> "_ParseError":
        return _ParseError(message, self.index if index is None else index)

    def report(self, code: str, message: str, index: int) -> None:
        line, col = self.locate(self.offsets[index])
        end_col = col + max(len(self.values[index]), 1)
        self.diagnostics.append(error(code, message,
                                      SourceSpan(self.file, line, col, line, end_col)))

    def span(self, first: int, last: int) -> SourceSpan:
        """From token ``first`` to just after the first character of ``last``."""
        line, col = self.locate(self.offsets[last])
        return SourceSpan(self.file, *self.locate(self.offsets[first]), line, col + 1)

    def skip_to_top_level(self) -> None:
        """Recovery: consume tokens until the next plausible block boundary, a
        top-level keyword either at brace depth 0 or right after '}' or ';'
        (stray braces would otherwise swallow the rest of the file)."""
        depth = 0
        prev = ""
        while True:
            value = self.peek()
            if not value:
                return
            if value in _TOP_KEYWORDS and (depth == 0 or prev in ("}", ";")):
                return
            if value == "{":
                depth += 1
            elif value == "}":
                if depth == 0:
                    self.next()
                    return
                depth -= 1
            prev = value
            self.next()

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> DomainModel:
        endurants: list[EndurantDecl] = []
        conversions: list[ConversionDecl] = []
        channels: list[ChannelDecl] = []
        axioms: list[AxiomDecl] = []
        while value := self.peek():
            try:
                if value in ENDURANT_KINDS:
                    endurants.append(self.parse_endurant(value))
                elif value == "conversion":
                    conversions.append(self.parse_conversion())
                elif value == "channel":
                    channels.append(self.parse_channel())
                elif value == "axiom":
                    axioms.append(self.parse_axiom())
                else:
                    raise self.fail(
                        f"expected a declaration keyword, found {value!r}")
            except _ParseError as err:
                self.report(err.code, err.message, err.index)
                self.skip_to_top_level()
        model = DomainModel(tuple(endurants), tuple(conversions),
                            tuple(channels), tuple(axioms))
        self._check_duplicates(model)
        return model

    def parse_endurant(self, kind: str) -> EndurantDecl:
        start = self.index  # keyword
        self.index += 1
        name = self.expect_ident("sort name")
        children: Optional[tuple[str, ...]] = None
        if self.peek() == "composite":
            if kind != PART:
                self.report("E001", f"{kind}s cannot be composite", self.index)
            self.index += 1
            self.expect("(")
            kids = [self.expect_ident("child sort")]
            while self.accept(","):
                kids.append(self.expect_ident("child sort"))
            self.expect(")")
            children = tuple(kids)
        self.expect("{")

        doc: Optional[str] = None
        behaviour: Optional[str] = None
        id_type: Optional[str] = None
        mereology: Optional[MereologyExpr] = None
        attributes: list[AttributeDecl] = []
        while (value := self.peek()) != "}":
            if not value:
                raise self.fail("unterminated block")
            if value not in _CLAUSES:
                raise self.fail(f"unexpected clause {value!r} in {kind} block")
            self.index += 1
            if value == "doc":
                string = self.peek()
                if string[:1] != '"':
                    raise self.fail("expected string after 'doc'")
                self.index += 1
                doc = _unquote(string)
            elif value == "behaviour":
                behaviour = self.expect_ident("behaviour name")
            elif value == "id":
                id_index = self.index
                id_value = self.expect_ident("identifier type")
                if id_type is not None:
                    self.report("E002", f"duplicate id declaration {id_value!r}", id_index)
                else:
                    id_type = id_value
            elif value == "mereo":
                mereology = self.parse_mereology(name)
            else:  # attr
                attributes.append(self.parse_attribute())
                continue  # attribute parser consumes its ';'
            self.expect(";")
        close = self.expect("}")
        discreteness = CONTINUOUS if kind == MATERIAL else DISCRETE
        return EndurantDecl(
            name=name, kind=kind, discreteness=discreteness,
            children=children, id_type=id_type, mereology=mereology,
            attributes=tuple(attributes), behaviour=behaviour, doc=doc,
            span=self.span(start, close))

    def parse_mereology(self, sort: str) -> MereologyExpr:
        # Accepts both 'mereo <expr>' and the canonical 'mereo <Sort> -> <expr>'.
        named = self.peek()
        if named[:1] in _IDENT_START and self.values[self.index + 1] == "->":
            if named != sort:
                self.report(
                    "E003",
                    f"mereology names {named!r} inside block for {sort!r}",
                    self.index)
            self.index += 2  # the sort and the arrow
        if self.accept("empty"):
            return MereologyExpr()
        if self.accept("set"):
            self.expect("(")
            inner = self.expect_ident("identifier type")
            self.expect(")")
            return MereologyExpr((inner,), is_set=True)
        factors = [self.expect_ident("identifier type")]
        while self.accept("x"):
            factors.append(self.expect_ident("identifier type"))
        return MereologyExpr(tuple(factors))

    def parse_attribute(self) -> AttributeDecl:
        first = self.index
        name = self.expect_ident("attribute name")
        self.expect(":")
        quantity = self.collect_ref(_ATTR_STOP)
        if not quantity:
            raise self.fail("expected a quantity kind after ':'")
        category = STATIC
        if self.peek() in CATEGORIES:
            category = self.next()
        init: Optional[str] = None
        if self.accept("init"):
            init = self.collect_ref(_INIT_STOP)
            if not init:
                raise self.fail("expected a value after 'init'")
        semi = self.expect(";")
        return AttributeDecl(name, quantity, category, init, span=self.span(first, semi))

    def collect_ref(self, stop: frozenset[str]) -> str:
        """Collect a quantity reference or value literal up to a stop token
        or a string."""
        values = self.values
        start = index = self.index
        while not ((value := values[index]) in stop or value[0] == '"'):
            index += 1
        self.index = index
        return _join_ref(values[start:index])

    def parse_conversion(self) -> ConversionDecl:
        start = self.index
        self.index += 1
        name = self.expect_ident("conversion name")
        self.expect(":")
        from_kind = self.collect_ref(_FROM_STOP)
        if self.peek() != "->":
            raise self.fail("expected '->' in conversion declaration")
        self.index += 1
        to_kind = self.collect_ref(_TO_STOP)
        inverse: Optional[str] = None
        if self.accept("inverse"):
            inverse = self.expect_ident("inverse conversion name")
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
        return ConversionDecl(name, from_kind, to_kind, scale, offset, inverse,
                              span=self.span(start, semi))

    def parse_number(self) -> Fraction:
        value = self.number_token("a number")
        if self.accept("/"):  # exact rational literals: 5/18
            index = self.index
            denominator = self.number_token("a denominator")
            if denominator == 0:
                raise self.fail("zero denominator in a rational literal", index)
            value /= denominator
        return value

    def number_token(self, what: str) -> Fraction:
        index = self.index
        value = self.values[index]
        if _kind(value) != "number":
            raise _ParseError(f"expected {what}, found {value!r}", index)
        self.index = index + 1
        try:
            return parse_fraction(value)
        except UnitBoundError as exc:
            raise _ParseError(str(exc), index, "E208") from None

    def parse_channel(self) -> ChannelDecl:
        start = self.index
        self.index += 1
        name = self.expect_ident("channel name")
        self.expect(":")
        kinds = [self.collect_ref(_CHANNEL_STOP)]
        while self.accept("x"):
            kinds.append(self.collect_ref(_CHANNEL_STOP))
        semi = self.expect(";")
        if any(not k for k in kinds):
            raise self.fail("channel declaration needs message kinds", start)
        return ChannelDecl(name, tuple(kinds), span=self.span(start, semi))

    def parse_axiom(self) -> AxiomDecl:
        start = self.index
        self.index += 1
        name = self.expect_ident("axiom name")
        self.expect("{")
        self.expect("display")
        self.expect("(")
        target_sort, first_attr = self.parse_sort_attr()
        target_attrs = [first_attr]
        while self.accept(","):
            sort, attr = self.parse_sort_attr()
            if sort != target_sort:
                self.report("E001", "display attributes must share one sort", self.index)
            target_attrs.append(attr)
        self.expect(")")
        self.expect("tracks")
        self.expect("(")
        sources = [self.parse_axiom_source()]
        while self.accept(";"):
            if self.peek() == ")":
                break
            sources.append(self.parse_axiom_source())
        self.expect(")")
        self.expect(";")
        close = self.expect("}")
        return AxiomDecl(name, target_sort, tuple(target_attrs), tuple(sources),
                         span=self.span(start, close))

    def parse_sort_attr(self) -> tuple[str, str]:
        sort = self.expect_ident("sort name")
        self.expect(".")
        return sort, self.expect_ident("attribute name")

    def parse_axiom_source(self) -> AxiomSource:
        start = self.index
        sort, attr = self.parse_sort_attr()
        chain: list[str] = []
        if self.accept("via"):
            chain.append(self.expect_ident("conversion name"))
            while self.accept(","):
                chain.append(self.expect_ident("conversion name"))
        return AxiomSource(sort, attr, tuple(chain), span=self.span(start, self.index - 1))

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


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def parse_model(text: str, file: str = "<input>") -> tuple[DomainModel, list[Diagnostic]]:
    """Parse source text into a model plus diagnostics.

    On syntax errors a best-effort partial model is returned alongside the
    diagnostics; any error diagnostic should stop downstream phases.
    """
    parser = _Parser(text, file)
    model = parser.parse_model()
    return model, parser.diagnostics


def parse_file(path: str) -> tuple[DomainModel, list[Diagnostic]]:
    with open(path, encoding="utf-8") as handle:
        return parse_model(handle.read(), file=path)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def print_model(model: DomainModel) -> str:
    """Canonical source text; ``parse_model(print_model(m))`` equals ``m``."""
    blocks: list[str] = []
    for endurant in model.endurants:
        blocks.append(_print_endurant(endurant))
    for conv in model.conversions:
        inverse = f" inverse {conv.inverse_of}" if conv.inverse_of else ""
        blocks.append(
            f"conversion {conv.name} : {conv.from_kind} -> {conv.to_kind}{inverse}"
            f" = affine({fraction_str(conv.scale)}, {fraction_str(conv.offset)});")
    for channel in model.channels:
        blocks.append(f"channel {channel.name} : {' x '.join(channel.kinds)};")
    for axiom in model.axioms:
        targets = ", ".join(f"{axiom.target_sort}.{a}" for a in axiom.target_attrs)
        lines = [f"axiom {axiom.name} {{", f"  display({targets}) tracks ("]
        for i, source in enumerate(axiom.sources):
            via = f" via {', '.join(source.chain)}" if source.chain else ""
            semi = ";" if i < len(axiom.sources) - 1 else ""
            lines.append(f"    {source.sort}.{source.attr}{via}{semi}")
        lines.append("  );")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _print_endurant(endurant: EndurantDecl) -> str:
    head = f"{endurant.kind} {endurant.name}"
    if endurant.children is not None:
        head += f" composite({', '.join(endurant.children)})"
    lines = [head + " {"]
    if endurant.doc is not None:
        lines.append(f"  doc {_quote(endurant.doc)};")
    if endurant.behaviour is not None:
        lines.append(f"  behaviour {endurant.behaviour};")
    if endurant.id_type is not None:
        lines.append(f"  id {endurant.id_type};")
    if endurant.mereology is not None:
        lines.append(f"  mereo {endurant.name} -> {endurant.mereology};")
    for attr in endurant.attributes:
        init = f" init {attr.init}" if attr.init is not None else ""
        lines.append(f"  attr {attr.name} : {attr.quantity} {attr.category}{init};")
    lines.append("}")
    return "\n".join(lines)


def format_diagnostics(diagnostics, color: bool = False) -> str:
    lines = []
    for diag in diagnostics:
        if color and diag.is_error:
            lines.append(f"{diag.span}: \x1b[31m{diag.code}\x1b[0m: {diag.message}")
        else:
            lines.append(str(diag))
    return "\n".join(lines)
