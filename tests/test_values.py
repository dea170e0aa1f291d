"""The value types of ``units`` and ``diagnostics``: equality, hash, ``repr``,
construction, refusals, immutability, pickle and copy, as each type's
``@dataclass(frozen=True)`` form gave them.  The expected texts were
recorded from that form."""

import copy
import pickle
from fractions import Fraction

import pytest

from domcalc import units
from domcalc.diagnostics import Diagnostic, SourceSpan
from domcalc.units import (
    CELSIUS,
    INTERVAL,
    MEAN_TEMP,
    POINT,
    TEMP,
    TEMP_INTERVAL,
    Dimension,
    OpVerdict,
    Quantity,
    QuantityKind,
    TypecheckResult,
)

SPAN = SourceSpan("m.dom", 3, 4, 3, 9)
KELVIN = Dimension.of(K=1)

# Each type's fields in order, with a value for each and, per field, another
# value that keeps the construction valid.
FIELDS = {
    Dimension: {"exponents": ((0, 0, 0, 0, 1, 0, 0), (1, 0, -2, 0, 0, 0, 0))},
    QuantityKind: {
        "name": ("Kelvin", "Celsius"),
        "dimension": (KELVIN, Dimension.of(m=1)),
        "role": (POINT, INTERVAL),
        "scale": (Fraction(1), Fraction(9, 5)),
        "offset": (Fraction(0), Fraction("273.15")),
        "interval_kind": (TEMP_INTERVAL, None),
        "mean_kind": (MEAN_TEMP, None),
    },
    Quantity: {"magnitude": (Fraction(3, 2), Fraction(2)), "kind": (CELSIUS, TEMP)},
    OpVerdict: {
        "result": (units.BOOL, None),
        "reason": ("dimension mismatch", None),
        "precondition": ("lhs >= rhs", None),
    },
    TypecheckResult: {
        "kind": (units.REAL, None),
        "diagnostics": ((Diagnostic("error", "E200", "empty expression", SPAN),), ()),
    },
    SourceSpan: {
        "file": ("m.dom", "n.dom"),
        "start_line": (3, 2),
        "start_col": (4, 5),
        "end_line": (3, 4),
        "end_col": (9, 10),
    },
    Diagnostic: {
        "severity": ("error", "warning"),
        "code": ("E205", "W001"),
        "message": ("unknown name", "unused"),
        "span": (SPAN, SourceSpan.point("n.dom", 1, 1)),
    },
}

# The defaults of the fields that have one.
DEFAULTS = {
    Dimension: {"exponents": (0,) * 7},
    QuantityKind: {"role": "plain", "scale": Fraction(1), "offset": Fraction(0),
                   "interval_kind": None, "mean_kind": None},
    Quantity: {},
    OpVerdict: {"reason": None, "precondition": None},
    TypecheckResult: {"diagnostics": ()},
    SourceSpan: {},
    Diagnostic: {"span": SourceSpan("<input>", 1, 1, 1, 1)},
}

TYPES = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def _sample(cls):
    return cls(**{name: values[0] for name, values in FIELDS[cls].items()})


@TYPES
def test_keyword_and_positional_construction_agree(cls):
    fields = FIELDS[cls]
    value = _sample(cls)
    assert type(value) is cls
    assert value == cls(*(values[0] for values in fields.values()))
    for name, values in fields.items():
        assert getattr(value, name) == values[0]


@TYPES
def test_fields_left_out_take_their_defaults(cls):
    required = {name: values[0] for name, values in FIELDS[cls].items()
                if name not in DEFAULTS[cls]}
    value = cls(**required)
    for name, default in DEFAULTS[cls].items():
        assert getattr(value, name) == default


@TYPES
def test_equal_and_hash_follow_the_fields_in_order(cls):
    fields = FIELDS[cls]
    value = _sample(cls)
    assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
    twin = _sample(cls)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value)
    for name, values in fields.items():
        other = cls(**{key: vals[1] if key == name else vals[0]
                       for key, vals in fields.items()})
        assert other != value, name
        assert hash(other) == hash(tuple(getattr(other, key) for key in fields)), name


class _Lookalike:
    pass


@TYPES
def test_values_of_another_class_are_not_compared(cls):
    value = _sample(cls)
    lookalike = _Lookalike()
    lookalike.__dict__.update(vars(value))
    assert value != lookalike and lookalike != value
    assert value.__eq__(lookalike) is NotImplemented
    fields = tuple(getattr(value, name) for name in FIELDS[cls])
    assert value != fields
    assert value.__eq__(fields) is NotImplemented


def test_repr_is_the_dataclass_text():
    assert repr(TEMP) == (
        "QuantityKind(name='Temp', dimension=Dimension(exponents=(0, 0, 0, 0, 1, 0, 0)), "
        "role='point', scale=Fraction(1, 1), offset=Fraction(0, 1), "
        "interval_kind=QuantityKind(name='TempInterval', "
        "dimension=Dimension(exponents=(0, 0, 0, 0, 1, 0, 0)), role='interval', "
        "scale=Fraction(1, 1), offset=Fraction(0, 1), interval_kind=None, mean_kind=None), "
        "mean_kind=QuantityKind(name='MeanTemp', "
        "dimension=Dimension(exponents=(0, 0, 0, 0, 1, 0, 0)), role='point', "
        "scale=Fraction(1, 1), offset=Fraction(0, 1), "
        "interval_kind=QuantityKind(name='TempInterval', "
        "dimension=Dimension(exponents=(0, 0, 0, 0, 1, 0, 0)), role='interval', "
        "scale=Fraction(1, 1), offset=Fraction(0, 1), interval_kind=None, mean_kind=None), "
        "mean_kind=None))")
    assert repr(CELSIUS) == (
        "QuantityKind(name='Celsius', dimension=Dimension(exponents=(0, 0, 0, 0, 1, 0, 0)), "
        "role='point', scale=Fraction(1, 1), offset=Fraction(5463, 20), "
        "interval_kind=QuantityKind(name='TempInterval', "
        "dimension=Dimension(exponents=(0, 0, 0, 0, 1, 0, 0)), role='interval', "
        "scale=Fraction(1, 1), offset=Fraction(0, 1), interval_kind=None, mean_kind=None), "
        "mean_kind=None)")
    assert repr(Diagnostic("error", "E205", "unknown name", SPAN)) == (
        "Diagnostic(severity='error', code='E205', message='unknown name', "
        "span=SourceSpan(file='m.dom', start_line=3, start_col=4, end_line=3, end_col=9))")


@TYPES
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy] + [
    lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_copies_and_pickles_are_equal_and_stay_frozen(cls, clone):
    value = _sample(cls)
    twin = clone(value)
    assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    with pytest.raises(AttributeError):
        setattr(twin, next(iter(FIELDS[cls])), None)


@TYPES
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = _sample(cls)
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == _sample(cls)


def test_construction_refusals():
    with pytest.raises(ValueError, match="^bad role 'bad'$"):
        QuantityKind("X", KELVIN, "bad")
    with pytest.raises(ValueError, match="^only point kinds may have an affine offset$"):
        QuantityKind("X", KELVIN, INTERVAL, offset=Fraction(1))
    with pytest.raises(ValueError, match="^span end precedes start$"):
        SourceSpan("m.dom", 3, 4, 3, 3)
    with pytest.raises(ValueError, match="^span end precedes start$"):
        SourceSpan("m.dom", 3, 4, 2, 9)
    assert SourceSpan("m.dom", 3, 4, 3, 4) == SourceSpan.point("m.dom", 3, 4)


def test_diagnostic_default_span_is_fresh_and_an_explicit_none_stays():
    first, second = Diagnostic("error", "E1", "a"), Diagnostic("error", "E1", "a")
    assert first.span == SourceSpan.point("<input>", 1, 1)
    assert first.span is not second.span
    assert str(first) == "<input>:1:1: E1: a"
    assert Diagnostic("error", "E1", "a", span=None).span is None
    assert Diagnostic("error", "E1", "a", None).span is None
