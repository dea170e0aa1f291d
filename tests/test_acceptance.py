"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import contextlib
import json
import random
import time
from fractions import Fraction

from domcalc import analysis, compiler, dsl, simulator, units
from domcalc.model import MereologyExpr
from domcalc.units import Dimension, parse_unit

from conftest import GOLDEN
from modelgen import perturb_recursion_payload, random_model, random_script
from test_units import DERIVED_TABLE, FURTHER_TABLE, PREFIX_FACTORS, oracle_dimension


@contextlib.contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"\ncriterion {number} ({title}): FAIL "
              f"({elapsed:.2f}s over the {budget:.0f}s budget)")
        raise AssertionError(f"criterion {number} exceeded its time budget")
    print(f"\ncriterion {number} ({title}): PASS ({elapsed:.2f}s)")


def test_criterion_1_aircraft_corpus_roundtrip(aircraft_path):
    with criterion(1, "aircraft corpus round-trip", budget=1.0):
        model, diagnostics = dsl.parse_file(str(aircraft_path))
        assert diagnostics == []

        assert [e.name for e in model.endurants] == ["AC", "PP", "TD", "DP"]
        assert model.endurant("AC").children == ("PP", "TD", "DP")
        assert {e.name: e.id_type for e in model.endurants} == {
            "AC": "ACI", "PP": "PPI", "TD": "TDI", "DP": "DPI"}
        assert model.endurant("PP").mereology == MereologyExpr(("DPI",))
        assert model.endurant("TD").mereology == MereologyExpr(("DPI",))
        assert model.endurant("DP").mereology == MereologyExpr(("PPI", "TDI"))
        attrs = {e.name: [(a.name, a.quantity, a.category) for a in e.attributes]
                 for e in model.endurants}
        assert attrs["PP"] == [("LO", "point deg", "reactive"),
                               ("LA", "point deg", "reactive"),
                               ("AL", "point m", "reactive")]
        assert attrs["TD"] == [("VEL", "interval km/h", "reactive"),
                               ("ACC", "interval m/s^2", "reactive")]
        assert attrs["DP"] == [("dLO", "dLO", "programmable"),
                               ("dLA", "dLA", "programmable"),
                               ("dAL", "dAL", "programmable"),
                               ("dVEL", "dVEL", "programmable"),
                               ("dACC", "dACC", "programmable")]
        assert attrs["AC"] == []

        assert analysis.check_wellformed(model) == []

        reparsed, rediag = dsl.parse_model(dsl.print_model(model))
        assert not rediag
        assert reparsed == model


def test_criterion_2_schema_reproduction(aircraft_model):
    with criterion(2, "schema reproduction", budget=1.0):
        graph = compiler.compile_process(aircraft_model, "AC")
        assert graph.root.process is None
        processes = {p.name: p for p in graph.processes()}
        assert set(processes) == {"position", "travel_dynamics", "display"}
        assert all(node.children == () for node in graph.root.children)

        position = processes["position"].signature
        assert len(position.in_channels) == 3
        assert position.out_channels == ("po_di_ch",)
        assert position.static_params == () and position.controllable_params == ()

        dynamics = processes["travel_dynamics"].signature
        assert len(dynamics.in_channels) == 2
        assert dynamics.out_channels == ("td_di_ch",)

        display = processes["display"].signature
        assert display.controllable_params == ("dLO", "dLA", "dAL", "dVEL", "dACC")
        assert display.in_channels == ("po_di_ch", "td_di_ch")
        assert display.out_channels == ()

        document = json.dumps(compiler.graph_to_json(graph), indent=2, sort_keys=True)
        assert document + "\n" == (GOLDEN / "aircraft_graph.json").read_text()


def test_criterion_3_axiom_discharge(aircraft_model, aircraft_graph):
    with criterion(3, "axiom discharge over 100 scripts + mutations", budget=10.0):
        for seed in range(100):
            rng = random.Random(seed)
            script = random_script(rng, aircraft_graph, horizon=60)
            config = simulator.instantiate(aircraft_graph, script, seed=seed)
            trace = tuple(simulator.run(config, 50))
            (verdict,) = simulator.check_axioms(aircraft_model, trace)
            assert verdict.passed, (seed, verdict)
            assert verdict.checked > 0

            tampered, event = perturb_recursion_payload(trace, rng, "display")
            (verdict,) = simulator.check_axioms(aircraft_model, tampered)
            assert not verdict.passed, seed
            assert verdict.failing_step == event.step
            assert verdict.actual != verdict.expected


def test_criterion_4_units_tables():
    with criterion(4, "units tables against the exponent oracle"):
        mismatches = []
        for name, (expression, decomposition) in {**DERIVED_TABLE,
                                                  **FURTHER_TABLE}.items():
            dimension, _ = parse_unit(expression)
            if dimension != oracle_dimension(decomposition):
                mismatches.append(name)
        for prefix, power in PREFIX_FACTORS.items():
            _, scale = parse_unit(prefix + "m")
            if scale != Fraction(10) ** power:
                mismatches.append(prefix)
        assert mismatches == []


def test_criterion_5_operator_ledger(aircraft_model):
    with criterion(5, "operator ledger verdicts and closure"):
        registry, diagnostics = analysis.registry_for_model(aircraft_model)
        assert not diagnostics
        time_k, interval = registry.get("Time"), registry.get("TimeInterval")
        temp, real = registry.get("Temp"), registry.get("Real")

        assert not units.check_op("add", time_k, time_k).allowed
        sub = units.check_op("sub", time_k, time_k)
        assert sub.result == interval and sub.precondition == "lhs >= rhs"
        assert units.check_op("mul", interval, real).result == interval
        assert units.check_op("div", interval, interval).result == real
        assert not units.check_op("add", temp, temp).allowed
        assert units.check_op("mean", temp, temp).result == registry.get("MeanTemp")

        kinds = registry.kinds()
        queries = 0
        for op in units.OPERATORS:
            for lhs in kinds:
                for rhs in kinds:
                    verdict = units.check_op(op, lhs, rhs)
                    assert verdict.allowed or verdict.reason
                    queries += 1
        assert queries == len(units.OPERATORS) * len(kinds) ** 2


def test_criterion_6_dimension_group_laws():
    with criterion(6, "dimension algebra group laws, 10000 vectors"):
        rng = random.Random(606)
        identity = Dimension()
        for _ in range(10000):
            a, b, c = (Dimension(tuple(rng.randint(-9, 9) for _ in range(7)))
                       for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * identity == a
            assert a * (identity / a) == identity


def test_criterion_7_determinism_and_prefix_monotonicity():
    with criterion(7, "simulator determinism and prefix monotonicity, 100 triples"):
        for seed in range(100):
            rng = random.Random(seed)
            model = random_model(rng)
            graph = compiler.compile_model(model)
            script = random_script(rng, graph)
            config = simulator.instantiate(graph, script, seed=seed)
            short_steps = 4 + seed % 7
            long_steps = short_steps + 1 + seed % 5
            first = tuple(simulator.run(config, long_steps))
            second = tuple(simulator.run(config, long_steps))
            assert first == second, seed
            prefix = tuple(simulator.run(config, short_steps))
            assert first[:len(prefix)] == prefix, seed


def test_criterion_8_description_idempotence():
    with criterion(8, "description idempotence on generated models"):
        for seed in range(40):
            model = random_model(random.Random(seed))
            assert analysis.check_wellformed(model) == []
            for endurant in model.endurants:
                cls = analysis.classify(model, endurant.name)
                prompts = [analysis.observe_attributes]
                if cls.is_composite:
                    prompts.append(analysis.observe_part_sorts)
                if not cls.is_material:
                    prompts.append(analysis.observe_unique_identifier)
                if cls.is_part:
                    prompts.append(analysis.observe_mereology)
                for prompt in prompts:
                    source = prompt(model, endurant.name).source
                    fragment, diagnostics = dsl.parse_model(source)
                    assert not diagnostics, source
                    assert analysis.check_wellformed(fragment) == [], source
