import gc
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from domcalc import units
from domcalc.units import (
    BASE_SYMBOLS,
    Dimension,
    Quantity,
    builtin_registry,
    check_op,
    fraction_str,
    mean,
    parse_fraction,
    parse_unit,
    rate_of_change,
    typecheck_expr,
)

from conftest import short_id

# Independent oracle: resolve base symbols only, sum exponent vectors term by
# term.  Derived units are given directly as their base decompositions, taken
# from the standard tables, so this path never touches the parser's own
# derived-symbol registry.

BASE_VECTORS = {sym: Dimension.base(sym) for sym in BASE_SYMBOLS}

DERIVED_TABLE = {
    # name: (expression, base decomposition {symbol: exponent})
    "radian": ("rad", {}),
    "steradian": ("sr", {}),
    "hertz": ("Hz", {"s": -1}),
    "newton": ("N", {"kg": 1, "m": 1, "s": -2}),
    "pascal": ("Pa", {"kg": 1, "m": -1, "s": -2}),
    "joule": ("J", {"kg": 1, "m": 2, "s": -2}),
    "watt": ("W", {"kg": 1, "m": 2, "s": -3}),
    "coulomb": ("C", {"s": 1, "A": 1}),
    "volt": ("V", {"kg": 1, "m": 2, "s": -3, "A": -1}),
    "farad": ("F", {"kg": -1, "m": -2, "s": 4, "A": 2}),
    "ohm": ("Ohm", {"kg": 1, "m": 2, "s": -3, "A": -2}),
    "siemens": ("S", {"kg": -1, "m": -2, "s": 3, "A": 2}),
    "weber": ("Wb", {"kg": 1, "m": 2, "s": -2, "A": -1}),
    "tesla": ("T", {"kg": 1, "s": -2, "A": -1}),
    "henry": ("H", {"kg": 1, "m": 2, "s": -2, "A": -2}),
    "degree Celsius": ("degC", {"K": 1}),
    "lumen": ("lm", {"cd": 1}),
    "lux": ("lx", {"m": -2, "cd": 1}),
}

FURTHER_TABLE = {
    "area": ("m^2", {"m": 2}),
    "volume": ("m^3", {"m": 3}),
    "speed": ("m/s", {"m": 1, "s": -1}),
    "acceleration": ("m/s^2", {"m": 1, "s": -2}),
    "wave number": ("1/m", {"m": -1}),
    "mass density": ("kg/m^3", {"kg": 1, "m": -3}),
    "specific volume": ("m^3/kg", {"m": 3, "kg": -1}),
    "current density": ("A/m^2", {"A": 1, "m": -2}),
    "magnetic field strength": ("A/m", {"A": 1, "m": -1}),
    "concentration": ("mol/m^3", {"mol": 1, "m": -3}),
    "luminance": ("cd/m^2", {"cd": 1, "m": -2}),
    "mass fraction": ("kg/kg", {}),
}

PREFIX_FACTORS = {
    "da": 1, "h": 2, "k": 3, "M": 6, "G": 9, "T": 12, "P": 15, "E": 18,
    "Z": 21, "Y": 24,
    "d": -1, "c": -2, "m": -3, "u": -6, "n": -9, "p": -12, "f": -15,
    "a": -18, "z": -21, "y": -24,
}


def oracle_dimension(decomposition: dict) -> Dimension:
    result = Dimension()
    for symbol, exponent in decomposition.items():
        result = result * BASE_VECTORS[symbol] ** exponent
    return result


# -- dimension algebra -------------------------------------------------------

def test_pascal_from_newton_per_square_meter():
    newton, _ = parse_unit("N")
    metre, _ = parse_unit("m")
    pascal, _ = parse_unit("Pa")
    assert newton / metre ** 2 == pascal


def test_dimensionless_is_identity():
    force, _ = parse_unit("N")
    assert force * Dimension() == force


def test_cube_of_length_is_volume():
    metre, _ = parse_unit("m")
    assert metre ** 3 == Dimension.of(m=3)


@given(st.tuples(*[st.integers(-6, 6)] * 7), st.tuples(*[st.integers(-6, 6)] * 7),
       st.tuples(*[st.integers(-6, 6)] * 7))
def test_dimension_abelian_group(a, b, c):
    da, db, dc = Dimension(a), Dimension(b), Dimension(c)
    assert da * db == db * da
    assert (da * db) * dc == da * (db * dc)
    assert da * Dimension() == da
    assert da * (Dimension() / da) == Dimension()


# -- unit parsing ------------------------------------------------------------

def test_parse_newton_expression():
    dimension, scale = parse_unit("kg*m/s^2")
    assert dimension == Dimension.of(kg=1, m=1, s=-2)
    assert scale == 1


def test_parse_volt_symbol():
    dimension, scale = parse_unit("V")
    assert dimension == Dimension.of(kg=1, m=2, s=-3, A=-1)
    assert scale == 1


def test_parse_kilometre_prefix():
    dimension, scale = parse_unit("km")
    assert dimension == Dimension.of(m=1)
    assert scale == 1000


def test_parse_dimensionless_one():
    dimension, scale = parse_unit("1")
    assert dimension == Dimension()
    assert scale == 1


def test_whole_symbols_beat_prefix_splits():
    # cd is candela, not centi-day; min is minutes, not milli-anything
    assert parse_unit("cd")[0] == Dimension.of(cd=1)
    assert parse_unit("min") == (Dimension.of(s=1), Fraction(60))
    assert parse_unit("mm") == (Dimension.of(m=1), Fraction(1, 1000))


@pytest.mark.parametrize("text", [
    "km^10000", "km^100000000", "((kdeg^99)^99)^99", "m^1001", "m^500*m^501",
    "km*" * 500 + "km", "9" * 5000, "m^" + "9" * 5000,
])
def test_unit_size_bounds_refused_before_computing(text):
    with pytest.raises(units.UnitBoundError):
        parse_unit(text)


def test_unit_size_bounds_admit_their_limits():
    assert parse_unit("m^1000") == (Dimension.of(m=1000), Fraction(1))
    assert parse_unit("s^-1000")[0] == Dimension.of(s=-1000)
    assert parse_unit("(kdeg^99)^4")[1] == Fraction(10) ** 1188


def test_unknown_symbol_and_prefix():
    with pytest.raises(units.UnknownUnitSymbol):
        parse_unit("mfoo")
    with pytest.raises(units.UnknownPrefix):
        parse_unit("Qm")


@pytest.mark.parametrize("name", sorted(DERIVED_TABLE))
def test_derived_units_match_oracle(name):
    expression, decomposition = DERIVED_TABLE[name]
    assert parse_unit(expression)[0] == oracle_dimension(decomposition)


@pytest.mark.parametrize("name", sorted(FURTHER_TABLE))
def test_further_units_match_oracle(name):
    expression, decomposition = FURTHER_TABLE[name]
    assert parse_unit(expression)[0] == oracle_dimension(decomposition)


@pytest.mark.parametrize("prefix,power", sorted(PREFIX_FACTORS.items()))
def test_prefix_factors(prefix, power):
    _, scale = parse_unit(prefix + "m")
    assert scale == Fraction(10) ** power * Fraction(1)


# -- the operator ledger -----------------------------------------------------

@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


def test_cannot_add_two_times(reg):
    verdict = check_op("add", reg.get("Time"), reg.get("Time"))
    assert not verdict.allowed
    assert "add" in verdict.reason or "Time" in verdict.reason


def test_time_minus_time_is_interval_with_precondition(reg):
    verdict = check_op("sub", reg.get("Time"), reg.get("Time"))
    assert verdict.result == reg.get("TimeInterval")
    assert verdict.precondition == "lhs >= rhs"


def test_interval_times_real(reg):
    verdict = check_op("mul", reg.get("TimeInterval"), reg.get("Real"))
    assert verdict.result == reg.get("TimeInterval")


def test_interval_over_interval_is_real(reg):
    verdict = check_op("div", reg.get("TimeInterval"), reg.get("TimeInterval"))
    assert verdict.result == reg.get("Real")


def test_cannot_add_temperatures(reg):
    assert not check_op("add", reg.get("Temp"), reg.get("Temp")).allowed


def test_mean_of_temps_is_meantemp(reg):
    verdict = check_op("mean", reg.get("Temp"), reg.get("Temp"))
    assert verdict.result == reg.get("MeanTemp")


def test_point_plus_interval_is_point(reg):
    time, interval = reg.get("Time"), reg.get("TimeInterval")
    assert check_op("add", time, interval).result == time
    assert check_op("add", interval, time).result == time


def test_ledger_closure(reg):
    kinds = reg.kinds()
    for op in units.OPERATORS:
        for lhs in kinds:
            for rhs in kinds:
                verdict = check_op(op, lhs, rhs)
                assert verdict.allowed or verdict.reason


def test_affine_offset_never_used_twice(reg):
    # Point kinds reject every operation that would consume the offset twice;
    # the only point results come from offset-once rules.
    for kind in reg.kinds():
        if kind.role != "point":
            continue
        assert not check_op("add", kind, kind).allowed
        assert not check_op("mul", kind, kind).allowed
        assert not check_op("div", kind, reg.get("Real")).allowed
        sub = check_op("sub", kind, kind)
        assert sub.result.role == "interval"


# -- mean --------------------------------------------------------------------

def test_mean_celsius():
    # Oracle: convert to kelvin (283.15, 293.15), average to 288.15 K,
    # convert back: 15 degrees Celsius.
    reg = builtin_registry()
    celsius = reg.get("Celsius")
    kelvins = [Fraction(10) + Fraction("273.15"), Fraction(20) + Fraction("273.15")]
    oracle = sum(kelvins) / 2 - Fraction("273.15")
    assert oracle == 15
    result = mean([Quantity(Fraction(10), celsius), Quantity(Fraction(20), celsius)])
    assert result.magnitude == 15
    assert result.kind == celsius


def test_mean_singleton():
    reg = builtin_registry()
    value = Quantity(Fraction(42), reg.get("TimeInterval"))
    assert mean([value]) == value


def test_mean_mixed_kinds_rejected():
    reg = builtin_registry()
    with pytest.raises(units.MixedKinds):
        mean([Quantity(Fraction(5), reg.get("TempInterval")),
              Quantity(Fraction(5), reg.get("Temp"))])
    with pytest.raises(units.EmptyInput):
        mean([])


def test_mean_of_temps_carries_nominal_mean_kind():
    reg = builtin_registry()
    temp = reg.get("Temp")
    result = mean([Quantity(Fraction(300), temp), Quantity(Fraction(302), temp)])
    assert result.kind == reg.get("MeanTemp")
    assert result.magnitude == 301


# -- rate of change ----------------------------------------------------------

def test_rate_of_change_kelvin_per_hour():
    # Oracle: plain division after scale normalization; 6 K over 2 h is
    # 6/7200 K/s on the coherent scale, i.e. 3 on a 1/3600 scale.
    reg = builtin_registry()
    delta = Quantity(Fraction(6), reg.resolve("interval K"))
    per = Quantity(Fraction(2), reg.resolve("interval h"))
    result = rate_of_change(delta, per)
    assert result.magnitude == 3
    assert result.kind.dimension == Dimension.of(K=1, s=-1)
    assert result.magnitude * result.kind.scale == Fraction(6, 7200)


def test_rate_of_change_zero_delta():
    reg = builtin_registry()
    result = rate_of_change(Quantity(Fraction(0), reg.resolve("interval K")),
                            Quantity(Fraction(5), reg.get("TimeInterval")))
    assert result.magnitude == 0


def test_rate_of_change_zero_interval_rejected():
    reg = builtin_registry()
    with pytest.raises(units.ZeroTimeInterval):
        rate_of_change(Quantity(Fraction(1), reg.resolve("interval K")),
                       Quantity(Fraction(0), reg.get("TimeInterval")))


# -- expression checking -----------------------------------------------------

@pytest.fixture()
def flight_env():
    reg = builtin_registry()
    return reg, {
        "LO": reg.resolve("point deg"),
        "VEL": reg.resolve("interval km/h"),
        "ACC": reg.resolve("interval m/s^2"),
    }


def test_point_addition_forbidden(flight_env):
    reg, env = flight_env
    result = typecheck_expr("LO + LO", env, reg)
    assert result.kind is None
    assert [d.code for d in result.diagnostics] == ["E201"]


def test_velocity_times_time_is_length(flight_env):
    # Oracle: (m:1, s:-1) + (s:1) = (m:1).
    reg, env = flight_env
    result = typecheck_expr("VEL * TimeInterval", env, reg)
    assert result.kind is not None
    assert result.kind.dimension == Dimension.of(m=1)


def test_scalar_scaling_keeps_interval_kind(flight_env):
    reg, env = flight_env
    result = typecheck_expr("2 * ACC", env, reg)
    assert result.kind == env["ACC"]


def test_comparison_yields_bool(flight_env):
    reg, env = flight_env
    result = typecheck_expr("VEL * TimeInterval < 3 * m", env, reg)
    assert result.kind is not None
    assert result.kind.name == "Bool"


def test_unknown_name_has_span(flight_env):
    reg, env = flight_env
    result = typecheck_expr("LO + nonsense", env, reg)
    assert result.kind is None
    (diag,) = result.diagnostics
    assert diag.code == "E205"
    assert diag.span.start_col == 6


def test_parentheses_group_without_changing_the_kind(flight_env):
    reg, env = flight_env
    bare = typecheck_expr("VEL * TimeInterval", env, reg)
    assert typecheck_expr("(VEL * TimeInterval)", env, reg) == bare
    result = typecheck_expr("2 * (LO - LO)", env, reg)
    assert result.kind is not None and not result.diagnostics


def test_typecheck_leaves_nothing_for_the_cyclic_collector(flight_env):
    # Every object a check makes is freed by reference counting.
    reg, env = flight_env
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        passed = typecheck_expr("(VEL * TimeInterval) < 3 * m", env, reg)
        failed = typecheck_expr("(LO + LO", env, reg)
        assert gc.collect() == 0, gc.garbage[:10]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert passed.kind.name == "Bool"
    assert [d.code for d in failed.diagnostics] == ["E201", "E200"]


@pytest.mark.parametrize("text, message, col", [
    ("(VEL", "missing ')'", 1),
    ("VEL * )", "unexpected token ')'", 7),
    ("VEL *", "expression ends unexpectedly", 6),
    ("VEL VEL", "trailing tokens after expression: 'VEL'", 5),
    ("VEL # 2", "bad token '#' in expression", 4),
])
def test_malformed_expression_is_e200_with_span(flight_env, text, message, col):
    reg, env = flight_env
    result = typecheck_expr(text, env, reg)
    assert result.kind is None
    assert [(d.code, d.message, d.span.start_col) for d in result.diagnostics] == [
        ("E200", message, col)]


# -- exact scalars -----------------------------------------------------------

@given(st.integers(-10 ** 12, 10 ** 12), st.integers(0, 12))
def test_fraction_str_roundtrip_decimals(mantissa, exponent):
    value = Fraction(mantissa, 10 ** exponent)
    assert parse_fraction(fraction_str(value)) == value


@pytest.mark.parametrize("text, value", [
    ("1e1300", Fraction(10) ** 1300), ("-2.5E-3", Fraction(-1, 400)),
    ("1e+0005", Fraction(100000)), ("9" * 1365, Fraction(int("9" * 1365))),
    ("12/1" + "0" * 1300, Fraction(12, 10 ** 1300))], ids=short_id)
def test_parse_fraction_within_bound(text, value):
    assert parse_fraction(text) == value


def test_parse_fraction_zero_denominator_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")


@pytest.mark.parametrize("text", ["m/0", "0^-1", "0*m", "km/(0*s)", "00"])
def test_zero_unit_factor_is_unit_error(text):
    with pytest.raises(units.UnitError, match="zero factor"):
        parse_unit(text)


@pytest.mark.parametrize("text", ["1e5000", "1E-5000", "1e10000000", "1e1_000_000",
                                  "9" * 1366, "1/1" + "0" * 1400,
                                  "1e" + "9" * 5000], ids=short_id)
def test_parse_fraction_beyond_bound_refused_before_it_is_built(text):
    started = time.perf_counter()
    with pytest.raises(units.UnitBoundError, match="beyond 4096 bits"):
        parse_fraction(text)
    assert time.perf_counter() - started < 0.5


def test_fraction_str_forms():
    assert fraction_str(Fraction(1, 10)) == "0.1"
    assert fraction_str(Fraction(-13, 4)) == "-3.25"
    assert fraction_str(Fraction(5, 18)) == "5/18"
    assert fraction_str(Fraction(7)) == "7"


kind_strategy = st.builds(
    lambda dim, role, num, den, off: units.QuantityKind(
        f"K{abs(hash((dim, role, num, den, off))) % 10 ** 8}",
        Dimension(dim), role, Fraction(num, den),
        Fraction(off) if role == "point" else Fraction(0)),
    st.tuples(*[st.integers(-4, 4)] * 7),
    st.sampled_from(["point", "interval", "plain"]),
    st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.integers(-100, 100))


@given(st.sampled_from(units.OPERATORS), kind_strategy, kind_strategy)
def test_ledger_total_over_arbitrary_kinds(op, lhs, rhs):
    verdict = check_op(op, lhs, rhs)
    assert verdict.allowed or verdict.reason


def test_unicode_aliases():
    assert parse_unit("Ω") == parse_unit("Ohm")
    assert parse_unit("°C") == parse_unit("degC")
    assert parse_unit("µm") == parse_unit("um")


def test_parenthesized_power():
    dimension, scale = parse_unit("(m/s)^2")
    assert dimension == Dimension.of(m=2, s=-2)
    assert scale == 1


def test_negative_exponent():
    dimension, _ = parse_unit("m^-2")
    assert dimension == Dimension.of(m=-2)


def test_empty_and_malformed_unit_expressions():
    for bad in ("", "m*", "(m", "m^x", "point"):
        with pytest.raises(units.UnitError):
            parse_unit(bad)


def test_registry_resolve_role_marker_needs_unit():
    reg = builtin_registry()
    with pytest.raises(units.UnitError):
        reg.resolve("point")


def test_temperature_differences_may_be_negative():
    reg = builtin_registry()
    verdict = check_op("sub", reg.get("Temp"), reg.get("Temp"))
    assert verdict.result == reg.get("TempInterval")
    assert verdict.precondition is None
