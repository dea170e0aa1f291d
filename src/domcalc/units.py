"""SI dimension algebra, unit expressions, quantity kinds and the operator ledger.

Attribute values in a domain description are not bare numbers: each carries a
quantity kind with an SI dimension, a role (point on a scale, interval between
points, or plain magnitude) and an exact rational scale to coherent SI units.
This module supplies:

  * ``Dimension``        7-vector of signed exponents over (m, kg, s, A, K, mol, cd)
  * ``parse_unit``       unit-expression parser (symbols, prefixes, * / ^ and parens)
  * ``QuantityKind``     named kind = dimension + role + scale + affine offset
  * ``check_op``         the operator-permission ledger over kinds
  * ``mean`` / ``rate_of_change`` / ``typecheck_expr``  value and expression checks
  * ``KindRegistry``     immutable table of built-in kinds plus a model's kinds

All arithmetic is exact (``fractions.Fraction``); there are no floats anywhere,
so equality checks in axiom verdicts are meaningful.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .diagnostics import Diagnostic, Frozen, SourceSpan, error

BASE_SYMBOLS = ("m", "kg", "s", "A", "K", "mol", "cd")

# Kind roles.
POINT = "point"
INTERVAL = "interval"
PLAIN = "plain"
ROLES = (POINT, INTERVAL, PLAIN)

# Ledger operators.
ADD = "add"
SUB = "sub"
MUL = "mul"
DIV = "div"
COMPARE = "compare"
MEAN = "mean"
SCALE_BY_REAL = "scaleByReal"
RATE_OF_CHANGE = "rateOfChange"
OPERATORS = (ADD, SUB, MUL, DIV, COMPARE, MEAN, SCALE_BY_REAL, RATE_OF_CHANGE)


class UnitError(ValueError):
    """Base class for unit-expression problems."""


class UnknownUnitSymbol(UnitError):
    pass


class UnknownPrefix(UnitError):
    pass


class UnitBoundError(UnitError):
    """A unit expression beyond the size bounds below; diagnosed as E208."""


class ZeroUnitFactor(UnitError):
    """A zero number factor (``m/0``, ``0*m``): a unit scale is never zero."""


class UnregisteredKind(KeyError):
    pass


class EmptyInput(ValueError):
    pass


class MixedKinds(ValueError):
    pass


class ZeroTimeInterval(ZeroDivisionError):
    pass


class Dimension(Frozen):
    """Exponent vector over the seven SI base units.

    Multiplication of quantities adds exponent vectors, division subtracts
    them and integer powers scale them; the zero vector is dimensionless.
    """

    def __init__(self, exponents: tuple[int, int, int, int, int, int, int] = (0,) * 7) -> None:
        self.__dict__["exponents"] = exponents

    @staticmethod
    def base(symbol: str) -> "Dimension":
        idx = BASE_SYMBOLS.index(symbol)
        return Dimension(tuple(1 if i == idx else 0 for i in range(7)))

    @staticmethod
    def of(**exps: int) -> "Dimension":
        """Build a dimension from keyword exponents, e.g. ``of(m=1, s=-2)``."""
        unknown = set(exps) - set(BASE_SYMBOLS)
        if unknown:
            raise ValueError(f"unknown base symbols: {sorted(unknown)}")
        return Dimension(tuple(exps.get(sym, 0) for sym in BASE_SYMBOLS))

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, n: int) -> "Dimension":
        return Dimension(tuple(a * n for a in self.exponents))

    @property
    def is_dimensionless(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __str__(self) -> str:
        parts = [f"{sym}^{exp}" for sym, exp in zip(BASE_SYMBOLS, self.exponents) if exp]
        return " ".join(parts) if parts else "1"


DIMENSIONLESS = Dimension()


# ---------------------------------------------------------------------------
# Unit expressions
# ---------------------------------------------------------------------------

# symbol -> (dimension, scale to coherent SI)
_UNIT_SYMBOLS: dict[str, tuple[Dimension, Fraction]] = {}


def _def_unit(symbol: str, dimension: Dimension, scale: Union[int, str, Fraction] = 1,
              *aliases: str) -> None:
    entry = (dimension, Fraction(scale))
    _UNIT_SYMBOLS[symbol] = entry
    for alias in aliases:
        _UNIT_SYMBOLS[alias] = entry


# Base units.
for _sym in BASE_SYMBOLS:
    _def_unit(_sym, Dimension.base(_sym))
_def_unit("g", Dimension.base("kg"), Fraction(1, 1000))

# Derived units with special names.
_def_unit("rad", DIMENSIONLESS)
_def_unit("sr", DIMENSIONLESS)
_def_unit("Hz", Dimension.of(s=-1))
_def_unit("N", Dimension.of(kg=1, m=1, s=-2))
_def_unit("Pa", Dimension.of(kg=1, m=-1, s=-2))
_def_unit("J", Dimension.of(kg=1, m=2, s=-2))
_def_unit("W", Dimension.of(kg=1, m=2, s=-3))
_def_unit("C", Dimension.of(s=1, A=1))
_def_unit("V", Dimension.of(kg=1, m=2, s=-3, A=-1))
_def_unit("F", Dimension.of(kg=-1, m=-2, s=4, A=2))
_def_unit("Ohm", Dimension.of(kg=1, m=2, s=-3, A=-2), 1, "Ω")
_def_unit("S", Dimension.of(kg=-1, m=-2, s=3, A=2))
_def_unit("Wb", Dimension.of(kg=1, m=2, s=-2, A=-1))
_def_unit("T", Dimension.of(kg=1, s=-2, A=-1))
_def_unit("H", Dimension.of(kg=1, m=2, s=-2, A=-2))
_def_unit("degC", Dimension.base("K"), 1, "°C")  # offset handled by the Celsius kind
_def_unit("lm", Dimension.base("cd"))
_def_unit("lx", Dimension.of(m=-2, cd=1))

# Accepted non-coherent units; scales stay rational.
_def_unit("min", Dimension.base("s"), 60)
_def_unit("h", Dimension.base("s"), 3600)
_def_unit("day", Dimension.base("s"), 86400)
# Angle degrees are kept nominal (dimensionless, scale 1): the toolchain never
# converts deg to rad, it only needs degrees to be a distinct carrier.
_def_unit("deg", DIMENSIONLESS)

_PREFIXES: dict[str, Fraction] = {
    "da": Fraction(10) ** 1, "h": Fraction(10) ** 2, "k": Fraction(10) ** 3,
    "M": Fraction(10) ** 6, "G": Fraction(10) ** 9, "T": Fraction(10) ** 12,
    "P": Fraction(10) ** 15, "E": Fraction(10) ** 18, "Z": Fraction(10) ** 21,
    "Y": Fraction(10) ** 24,
    "d": Fraction(1, 10) ** 1, "c": Fraction(1, 10) ** 2, "m": Fraction(1, 10) ** 3,
    "µ": Fraction(1, 10) ** 6, "u": Fraction(1, 10) ** 6, "n": Fraction(1, 10) ** 9,
    "p": Fraction(1, 10) ** 12, "f": Fraction(1, 10) ** 15, "a": Fraction(1, 10) ** 18,
    "z": Fraction(1, 10) ** 21, "y": Fraction(1, 10) ** 24,
}

# Reverse map from dimension vectors to the special derived-unit names, for
# display purposes ("kg*m/s^2" reports as newton).
_DERIVED_NAMES: dict[tuple[int, ...], str] = {}
for _name, _symbol in [
    ("hertz", "Hz"), ("newton", "N"), ("pascal", "Pa"), ("joule", "J"),
    ("watt", "W"), ("coulomb", "C"), ("volt", "V"), ("farad", "F"),
    ("ohm", "Ohm"), ("siemens", "S"), ("weber", "Wb"), ("tesla", "T"),
    ("henry", "H"), ("lux", "lx"),
]:
    _DERIVED_NAMES[_UNIT_SYMBOLS[_symbol][0].exponents] = _name


def derived_unit_name(dimension: Dimension) -> Optional[str]:
    """Special SI name for a dimension vector, if one exists."""
    return _DERIVED_NAMES.get(dimension.exponents)


_UNIT_TOKEN = re.compile(r"\s*([A-Za-zµΩ°]+|\d+|[*/^()-])")

# Size bounds on unit expressions (E208).  Exact scales grow with every power,
# and Python prints no integer past 4300 digits.
MAX_UNIT_EXPONENT = 1000  # |n| of a power, and every dimension exponent
MAX_SCALE_BITS = 4096  # scale numerator and denominator, about 1233 digits


def _int_token(token: str) -> int:
    if len(token) * 3 > MAX_SCALE_BITS:
        raise UnitBoundError(f"number with {len(token)} digits in unit expression")
    return int(token)


def _bounded(dim: Dimension, scale: Fraction, n: int = 1) -> tuple[Dimension, Fraction]:
    """``(dim ** n, scale ** n)``, refused before it is computed when the
    result would exceed the size bounds."""
    if abs(n) > MAX_UNIT_EXPONENT or any(abs(e * n) > MAX_UNIT_EXPONENT
                                         for e in dim.exponents):
        raise UnitBoundError(f"unit exponent beyond ±{MAX_UNIT_EXPONENT}")
    if abs(n) * max(scale.numerator.bit_length(),
                    scale.denominator.bit_length()) > MAX_SCALE_BITS:
        raise UnitBoundError(f"unit scale beyond {MAX_SCALE_BITS} bits")
    return dim ** n, scale ** n


def _resolve_symbol(token: str) -> tuple[Dimension, Fraction]:
    """Whole symbols win over prefixed ones, so 'cd' is candela, not centi-day."""
    if token in _UNIT_SYMBOLS:
        return _UNIT_SYMBOLS[token]
    for plen in (2, 1):  # 'da' before single-letter prefixes
        prefix, rest = token[:plen], token[plen:]
        if rest and prefix in _PREFIXES and rest in _UNIT_SYMBOLS:
            dim, scale = _UNIT_SYMBOLS[rest]
            return dim, scale * _PREFIXES[prefix]
    if len(token) > 1 and token[0] not in _PREFIXES and token[:2] not in _PREFIXES:
        raise UnknownPrefix(f"unknown prefix on unit symbol {token!r}")
    raise UnknownUnitSymbol(f"unknown unit symbol {token!r}")


def parse_unit(text: str) -> tuple[Dimension, Fraction]:
    """Parse a unit expression into (dimension, multiplicative scale to SI).

    Grammar: products ``*``, quotients ``/``, integer powers ``^n``,
    parentheses, the literal ``1`` for dimensionless, unit symbols with
    standard prefixes.  Raises ``UnknownUnitSymbol`` / ``UnknownPrefix`` /
    ``UnitBoundError`` / ``ZeroUnitFactor`` (a zero number factor: ``m/0``,
    ``0*m``) / ``UnitError`` on bad input.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _UNIT_TOKEN.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise UnitError(f"bad character in unit expression: {text[pos:].strip()[0]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    if not tokens:
        raise UnitError("empty unit expression")

    parser = _UnitParser(tokens)
    dim, scale = parser.expr()
    if parser.index != len(tokens):
        raise UnitError(f"trailing tokens in unit expression: {tokens[parser.index:]}")
    return dim, scale


class _UnitParser:
    """Recursive descent over one expression's tokens.  Methods, not nested
    functions that call each other, so a parse leaves no reference cycle."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> str:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def factor(self) -> tuple[Dimension, Fraction]:
        tok = self.peek()
        if tok is None:
            raise UnitError("unit expression ends unexpectedly")
        if tok == "(":
            self.take()
            dim, scale = self.expr()
            if self.peek() != ")":
                raise UnitError("missing ')' in unit expression")
            self.take()
        elif tok.isdigit():
            self.take()
            number = _int_token(tok)
            if number == 0:
                raise ZeroUnitFactor("zero factor in unit expression")
            dim, scale = _bounded(DIMENSIONLESS, Fraction(number))
        else:
            self.take()
            dim, scale = _resolve_symbol(tok)
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exp_tok = self.peek()
            if exp_tok is None or not exp_tok.lstrip("-").isdigit():
                raise UnitError("expected integer exponent after '^'")
            self.take()
            dim, scale = _bounded(dim, scale, sign * _int_token(exp_tok))
        return dim, scale

    def expr(self) -> tuple[Dimension, Fraction]:
        dim, scale = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rdim, rscale = self.factor()
            if op == "*":
                dim, scale = _bounded(dim * rdim, scale * rscale)
            else:
                dim, scale = _bounded(dim / rdim, scale / rscale)
        return dim, scale


def canonical_unit_text(text: str) -> str:
    """Whitespace-normalised form of a unit expression (used as a kind name)."""
    return re.sub(r"\s+", "", text)


# ---------------------------------------------------------------------------
# Quantity kinds and values
# ---------------------------------------------------------------------------

class QuantityKind(Frozen):
    """A named attribute-value type.

    ``scale`` and ``offset`` map a magnitude to the coherent SI value
    ``magnitude * scale + offset``; a nonzero offset marks an affine point
    scale such as degrees Celsius.  ``interval_kind`` is the kind of
    differences between two values of a point kind; ``mean_kind`` names the
    (possibly nominal) kind of mean values, defaulting to the kind itself.
    """

    def __init__(self, name: str, dimension: Dimension, role: str = PLAIN,
                 scale: Fraction = Fraction(1), offset: Fraction = Fraction(0),
                 interval_kind: Optional[QuantityKind] = None,
                 mean_kind: Optional[QuantityKind] = None) -> None:
        if role not in ROLES:
            raise ValueError(f"bad role {role!r}")
        if offset != 0 and role != POINT:
            raise ValueError("only point kinds may have an affine offset")
        fields = self.__dict__
        fields["name"] = name
        fields["dimension"] = dimension
        fields["role"] = role
        fields["scale"] = scale
        fields["offset"] = offset
        fields["interval_kind"] = interval_kind
        fields["mean_kind"] = mean_kind

    def mean_kind_or_self(self) -> "QuantityKind":
        return self.mean_kind or self


class Quantity(Frozen):
    """An exact magnitude tagged with its kind."""

    def __init__(self, magnitude: Fraction, kind: QuantityKind) -> None:
        fields = self.__dict__
        fields["magnitude"] = magnitude
        fields["kind"] = kind

    def to_coherent(self) -> Fraction:
        return self.magnitude * self.kind.scale + self.kind.offset

    def __str__(self) -> str:
        return f"{fraction_str(self.magnitude)} {self.kind.name}"


def fraction_str(value: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a·5^b, else 'p/q'."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10 ** digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of ``fraction_str``: decimal, exponent and 'p/q' forms.

    A literal spelling out more digits, its exponent included, than the
    scale bound allows raises ``UnitBoundError`` before any number is built;
    a zero denominator raises ``ValueError``.  At most ``MAX_SCALE_BITS // 3``
    characters without an exponent are within the bound, uncounted.
    """
    text = text.strip()
    if len(text) > MAX_SCALE_BITS // 3 or "e" in text or "E" in text:
        mantissa, _, exponent = text.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        digits = sum(map(str.isdecimal, mantissa))
        if exponent.isdecimal():
            digits += int(exponent[:5])  # five digits already pass the bound
        if digits * 3 > MAX_SCALE_BITS:
            raise UnitBoundError(f"number literal beyond {MAX_SCALE_BITS} bits")
    try:
        return Fraction(int(text)) if text.isdecimal() else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in number literal {text!r}") from None


# Built-in named kinds.

def _linked_point(name: str, dimension: Dimension, interval: QuantityKind,
                  offset: Fraction = Fraction(0),
                  mean: Optional[QuantityKind] = None) -> QuantityKind:
    return QuantityKind(name, dimension, POINT, Fraction(1), offset, interval, mean)


REAL = QuantityKind("Real", DIMENSIONLESS)
BOOL = QuantityKind("Bool", DIMENSIONLESS)
TIME_INTERVAL = QuantityKind("TimeInterval", Dimension.base("s"), INTERVAL)
TIME = _linked_point("Time", Dimension.base("s"), TIME_INTERVAL)
TEMP_INTERVAL = QuantityKind("TempInterval", Dimension.base("K"), INTERVAL)
MEAN_TEMP = _linked_point("MeanTemp", Dimension.base("K"), TEMP_INTERVAL)
TEMP = _linked_point("Temp", Dimension.base("K"), TEMP_INTERVAL, mean=MEAN_TEMP)
CELSIUS = _linked_point("Celsius", Dimension.base("K"), TEMP_INTERVAL,
                        offset=Fraction("273.15"))

_BUILTIN_KINDS = (REAL, BOOL, TIME, TIME_INTERVAL, TEMP, TEMP_INTERVAL,
                  MEAN_TEMP, CELSIUS)


def resolve_kind(kinds: Mapping[str, QuantityKind], text: str) -> QuantityKind:
    """Resolve a quantity reference against a name -> kind table: a kind name,
    a unit expression, or a unit expression under a ``point``/``interval``
    role marker.  The raw text is looked up first, then its canonical name.
    A unit expression missing from ``kinds`` gets a fresh kind, a pure
    function of its text, and ``kinds`` is not written."""
    if text in kinds:
        return kinds[text]
    words = text.split()
    if words and words[0] in (POINT, INTERVAL):
        role = words[0]
        base = canonical_unit_text(" ".join(words[1:]))
        if not base:
            raise UnitError(f"missing unit expression after {role!r}")
        name = f"{role} {base}"
        if name in kinds:
            return kinds[name]
        dim, scale = parse_unit(base)
        interval = kinds.get(f"interval {base}")
        if interval is None:
            interval = QuantityKind(f"interval {base}", dim, INTERVAL, scale)
        if role == INTERVAL:
            return interval
        return QuantityKind(name, dim, POINT, scale, interval_kind=interval)
    stripped = canonical_unit_text(text)
    if stripped in kinds:
        return kinds[stripped]
    dim, scale = parse_unit(stripped)
    return QuantityKind(stripped, dim, PLAIN, scale)


class KindRegistry:
    """Name -> QuantityKind table: the built-ins, or the kinds of a model.

    A registry is an immutable value, safe to share between threads: its
    table is fixed at construction (``analysis.registry_for_model`` builds a
    model's), and ``resolve`` stores nothing.
    """

    def __init__(self, kinds: Iterable[QuantityKind] = _BUILTIN_KINDS) -> None:
        self._kinds: Mapping[str, QuantityKind] = MappingProxyType(
            {k.name: k for k in kinds})

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def get(self, name: str) -> QuantityKind:
        try:
            return self._kinds[name]
        except KeyError:
            raise UnregisteredKind(name) from None

    def kinds(self) -> tuple[QuantityKind, ...]:
        return tuple(self._kinds[n] for n in sorted(self._kinds))

    def resolve(self, text: str) -> QuantityKind:
        return resolve_kind(self._kinds, text)

    def __reduce__(self):
        # The read-only table cannot be pickled; its kinds rebuild it.
        return KindRegistry, (self.kinds(),)


def builtin_registry() -> KindRegistry:
    return KindRegistry()


# ---------------------------------------------------------------------------
# The operator-permission ledger
# ---------------------------------------------------------------------------

class OpVerdict(Frozen):
    """Outcome of a ledger query: a result kind, or a refusal with a reason.

    ``precondition`` carries a runtime side-condition the static ledger cannot
    discharge (point subtraction requires lhs >= rhs).
    """

    def __init__(self, result: Optional[QuantityKind], reason: Optional[str] = None,
                 precondition: Optional[str] = None) -> None:
        fields = self.__dict__
        fields["result"] = result
        fields["reason"] = reason
        fields["precondition"] = precondition

    @property
    def allowed(self) -> bool:
        return self.result is not None


def _forbidden(reason: str) -> OpVerdict:
    return OpVerdict(None, reason)


def _interval_of(kind: QuantityKind) -> QuantityKind:
    if kind.interval_kind is not None:
        return kind.interval_kind
    return QuantityKind(f"interval {kind.name}", kind.dimension, INTERVAL, kind.scale)


def _composed(op_symbol: str, lhs: QuantityKind, rhs: QuantityKind) -> QuantityKind:
    if op_symbol == "*":
        dim, scale = lhs.dimension * rhs.dimension, lhs.scale * rhs.scale
    else:
        dim, scale = lhs.dimension / rhs.dimension, lhs.scale / rhs.scale
    if dim.is_dimensionless and scale == 1:
        return REAL
    name = derived_unit_name(dim) if scale == 1 else None
    return QuantityKind(name or f"{lhs.name}{op_symbol}{rhs.name}", dim, PLAIN, scale)


def check_op(op: str, lhs: QuantityKind, rhs: QuantityKind) -> OpVerdict:
    """Ledger verdict for a binary operator over two kinds.

    The ledger is closed: every (operator, kind pair) yields a verdict, never
    an unhandled case.  Point kinds reject any operation that would consume
    their affine offset twice; intervals behave linearly; plain kinds follow
    ordinary dimensional rules.
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")

    if op == ADD:
        if lhs.role == POINT and rhs.role == POINT:
            return _forbidden(f"cannot add two {lhs.name} points")
        if lhs.role == POINT and rhs == _interval_of(lhs):
            return OpVerdict(lhs)
        if rhs.role == POINT and lhs == _interval_of(rhs):
            return OpVerdict(rhs)
        if POINT in (lhs.role, rhs.role):
            return _forbidden(f"no point/interval pairing between {lhs.name} and {rhs.name}")
        if lhs.role != rhs.role:
            return _forbidden(f"cannot add {lhs.role} {lhs.name} to {rhs.role} {rhs.name}")
        if lhs.dimension != rhs.dimension:
            return _forbidden(f"dimension mismatch: {lhs.dimension} vs {rhs.dimension}")
        return OpVerdict(lhs)

    if op == SUB:
        if lhs.role == POINT and rhs.role == POINT:
            if lhs.dimension != rhs.dimension or lhs.scale != rhs.scale:
                return _forbidden(f"incomparable point kinds {lhs.name} and {rhs.name}")
            # Time intervals are unsigned, so times subtract only forwards;
            # other point differences (temperatures, coordinates) may go
            # negative.
            if lhs.dimension == Dimension.base("s"):
                return OpVerdict(_interval_of(lhs), precondition="lhs >= rhs")
            return OpVerdict(_interval_of(lhs))
        if POINT in (lhs.role, rhs.role):
            return _forbidden("point kinds admit only point - point subtraction")
        if lhs.role != rhs.role or lhs.dimension != rhs.dimension:
            return _forbidden(f"cannot subtract {rhs.name} from {lhs.name}")
        return OpVerdict(lhs)

    if op in (MUL, SCALE_BY_REAL):
        if POINT in (lhs.role, rhs.role):
            return _forbidden("point kinds cannot be scaled or multiplied")
        if lhs.role == INTERVAL and rhs.role == PLAIN and rhs.dimension.is_dimensionless:
            return OpVerdict(lhs)
        if rhs.role == INTERVAL and lhs.role == PLAIN and lhs.dimension.is_dimensionless:
            return OpVerdict(rhs)
        if op == SCALE_BY_REAL:
            return _forbidden("scaleByReal requires a dimensionless factor")
        return OpVerdict(_composed("*", lhs, rhs))

    if op == DIV:
        if POINT in (lhs.role, rhs.role):
            return _forbidden("point kinds cannot be divided")
        return OpVerdict(_composed("/", lhs, rhs))

    if op == COMPARE:
        if lhs.role != rhs.role:
            return _forbidden(f"cannot compare {lhs.role} with {rhs.role}")
        if lhs.dimension != rhs.dimension:
            return _forbidden(f"dimension mismatch: {lhs.dimension} vs {rhs.dimension}")
        return OpVerdict(BOOL)

    if op == MEAN:
        if lhs != rhs:
            return _forbidden("mean requires values of one kind")
        return OpVerdict(lhs.mean_kind_or_self())

    if op == RATE_OF_CHANGE:
        if lhs.role != INTERVAL:
            return _forbidden("rate of change needs an interval numerator")
        if rhs.role != INTERVAL or rhs.dimension != Dimension.base("s"):
            return _forbidden("rate of change needs a time-interval denominator")
        return OpVerdict(_composed("/", lhs, rhs))

    raise AssertionError(f"operator {op!r} fell through the ledger")


def mean(values: Sequence[Quantity]) -> Quantity:
    """Arithmetic mean, computed on the coherent linear scale.

    All values must share one kind.  For point kinds the affine offset is
    applied exactly once in each direction, so means of Celsius temperatures
    come out right; the result carries the kind's declared mean kind.
    """
    if not values:
        raise EmptyInput("mean of no values")
    kind = values[0].kind
    for v in values[1:]:
        if v.kind != kind:
            raise MixedKinds(f"mean over {kind.name} and {v.kind.name}")
    total = sum(v.to_coherent() for v in values)
    linear = total / len(values)
    result_kind = kind.mean_kind_or_self()
    magnitude = (linear - result_kind.offset) / result_kind.scale
    return Quantity(magnitude, result_kind)


def rate_of_change(delta: Quantity, per: Quantity) -> Quantity:
    """Interval change divided by a positive time interval."""
    verdict = check_op(RATE_OF_CHANGE, delta.kind, per.kind)
    if not verdict.allowed:
        raise MixedKinds(verdict.reason or "rate of change rejected")
    if per.magnitude == 0:
        raise ZeroTimeInterval("rate of change over a zero time interval")
    assert verdict.result is not None
    return Quantity(delta.magnitude / per.magnitude, verdict.result)


# ---------------------------------------------------------------------------
# Attribute-value expression checking
# ---------------------------------------------------------------------------

_EXPR_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|[+\-*/<>()]))")


class TypecheckResult(Frozen):
    def __init__(self, kind: Optional[QuantityKind],
                 diagnostics: tuple[Diagnostic, ...] = ()) -> None:
        fields = self.__dict__
        fields["kind"] = kind
        fields["diagnostics"] = diagnostics


def typecheck_expr(text: str, env: Mapping[str, QuantityKind],
                   registry: Optional[KindRegistry] = None,
                   file: str = "<expr>") -> TypecheckResult:
    """Fold the operator ledger over an attribute-value expression.

    ``env`` maps free names to their kinds; names not in ``env`` fall back to
    registry kind names.  Numeric literals are dimensionless.  Errors carry
    E2xx diagnostics whose spans point at the offending sub-expression.
    """
    registry = registry or builtin_registry()
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _EXPR_TOKEN.match(text, pos)
        if not match:
            rest = text[pos:].strip()
            if not rest:
                break
            return TypecheckResult(None, (error(
                "E200", f"bad token {rest[0]!r} in expression",
                _expr_span(file, text, pos)),))
        kind = match.lastgroup or "op"
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    if not tokens:
        return TypecheckResult(None, (error("E200", "empty expression",
                                            _expr_span(file, text, 0)),))

    checker = _ExprChecker(text, tokens, env, registry, file)
    kind = checker.compare()
    tok = checker.peek()
    if tok is not None:
        checker.fail("E200", f"trailing tokens after expression: {tok[1]!r}", tok[2])
    diagnostics = tuple(checker.diagnostics)
    return TypecheckResult(kind if not diagnostics else None, diagnostics)


class _ExprChecker:
    """Recursive descent over one expression's tokens, folding the ledger.
    Methods, not nested functions, so a check leaves no reference cycle."""

    def __init__(self, text: str, tokens: list[tuple[str, str, int]],
                 env: Mapping[str, QuantityKind], registry: KindRegistry, file: str):
        self.text = text
        self.tokens = tokens
        self.env = env
        self.registry = registry
        self.file = file
        self.index = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def fail(self, code: str, message: str, offset: int) -> None:
        self.diagnostics.append(error(code, message, _expr_span(self.file, self.text, offset)))

    def atom(self) -> Optional[QuantityKind]:
        tok = self.peek()
        if tok is None:
            self.fail("E200", "expression ends unexpectedly", len(self.text))
            return None
        ttype, value, offset = tok
        self.index += 1
        if ttype == "num":
            return REAL
        if ttype == "name":
            if value in self.env:
                return self.env[value]
            try:
                return self.registry.resolve(value)
            except (UnitError, KeyError):
                self.fail("E205", f"unknown name {value!r} in expression", offset)
                return None
        if value == "(":
            inner = self.compare()
            closing = self.peek()
            if closing is None or closing[1] != ")":
                self.fail("E200", "missing ')'", offset)
                return None
            self.index += 1
            return inner
        self.fail("E200", f"unexpected token {value!r}", offset)
        return None

    def apply(self, op: str, code: str, lhs: Optional[QuantityKind],
              rhs: Optional[QuantityKind], offset: int) -> Optional[QuantityKind]:
        if lhs is None or rhs is None:
            return None
        verdict = check_op(op, lhs, rhs)
        if not verdict.allowed:
            self.fail(code, f"forbidden {op}: {verdict.reason}", offset)
            return None
        return verdict.result

    def term(self) -> Optional[QuantityKind]:
        result = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok[1] not in ("*", "/"):
                return result
            self.index += 1
            rhs = self.atom()
            op = MUL if tok[1] == "*" else DIV
            result = self.apply(op, "E202", result, rhs, tok[2])

    def sum(self) -> Optional[QuantityKind]:
        result = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[1] not in ("+", "-"):
                return result
            self.index += 1
            rhs = self.term()
            op = ADD if tok[1] == "+" else SUB
            code = "E201" if op == ADD else "E203"
            result = self.apply(op, code, result, rhs, tok[2])

    def compare(self) -> Optional[QuantityKind]:
        result = self.sum()
        tok = self.peek()
        if tok is not None and tok[1] in ("<", "<=", ">", ">=", "=="):
            self.index += 1
            rhs = self.sum()
            result = self.apply(COMPARE, "E204", result, rhs, tok[2])
        return result


def _expr_span(file: str, text: str, offset: int) -> SourceSpan:
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return SourceSpan.point(file, line, col)
