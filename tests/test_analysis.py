import hashlib
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from domcalc import analysis
from domcalc.analysis import (
    NoIdentifier,
    NotAPart,
    NotComposite,
    check_wellformed,
    classify,
    observe_attributes,
    observe_mereology,
    observe_part_sorts,
    observe_unique_identifier,
    registry_for_model,
)
from domcalc.dsl import parse_model
from domcalc.model import DomainModel, EndurantDecl
from domcalc.simulator import trace_from_jsonl
from domcalc.units import typecheck_expr

from conftest import GOLDEN
from modelgen import composite_chain, pairs_model, random_model


def parse_ok(text):
    model, diagnostics = parse_model(text)
    assert not diagnostics, diagnostics
    return model


# -- classification ----------------------------------------------------------

def test_classify_composite_aircraft(aircraft_model):
    cls = classify(aircraft_model, "AC")
    assert cls.is_part and cls.is_composite and cls.is_discrete
    assert not (cls.is_atomic or cls.is_material or cls.is_component)


def test_classify_atomic_position(aircraft_model):
    cls = classify(aircraft_model, "PP")
    assert cls.is_part and cls.is_atomic and not cls.is_composite


def test_classify_material():
    model = DomainModel((EndurantDecl("M", "material", "continuous"),))
    cls = classify(model, "M")
    assert cls.is_material and cls.is_continuous and not cls.is_part


def test_classify_exclusivity_on_generated_models():
    for seed in range(40):
        model = random_model(random.Random(seed))
        for endurant in model.endurants:
            cls = classify(model, endurant.name)
            assert [cls.is_part, cls.is_component, cls.is_material].count(True) == 1
            assert cls.is_discrete != cls.is_continuous
            if cls.is_part:
                assert cls.is_atomic != cls.is_composite
            else:
                assert not cls.is_atomic and not cls.is_composite


# -- description prompts -----------------------------------------------------

def test_observe_part_sorts_aircraft(aircraft_model):
    description = observe_part_sorts(aircraft_model, "AC")
    values = [d.text for d in description.formal if d.kind == "value"]
    assert values == ["obs_PP: AC → PP", "obs_TD: AC → TD", "obs_DP: AC → DP"]


def test_observe_part_sorts_rejects_atomic(aircraft_model):
    with pytest.raises(NotComposite):
        observe_part_sorts(aircraft_model, "PP")


def test_observe_part_sorts_single_child():
    model = parse_ok("""
    part A composite(B) { id AI; mereo empty; }
    part B { id BI; mereo empty; }
    """)
    description = observe_part_sorts(model, "A")
    assert [d.text for d in description.formal if d.kind == "value"] == [
        "obs_B: A → B"]


def test_observe_unique_identifier(aircraft_model):
    assert "uid_PP: PP → PPI" in [
        d.text for d in observe_unique_identifier(aircraft_model, "PP").formal]
    assert "uid_TD: TD → TDI" in [
        d.text for d in observe_unique_identifier(aircraft_model, "TD").formal]


def test_observe_unique_identifier_rejects_material():
    model = DomainModel((EndurantDecl("M", "material", "continuous"),))
    with pytest.raises(NoIdentifier):
        observe_unique_identifier(model, "M")


def test_observe_mereology(aircraft_model):
    display = observe_mereology(aircraft_model, "DP")
    assert display.formal[0].text == "mereo_DP: DP → PPI×TDI"
    position = observe_mereology(aircraft_model, "PP")
    assert position.formal[0].text == "mereo_PP: PP → DPI"
    # One row per form: empty, one id, a product and a set.
    forms = parse_ok("part A { id AI; mereo empty; } part B { id BI; mereo AI; } "
                     "part C { id CI; mereo AI x BI; } part D { id DI; mereo set(BI); }")
    for name, formal, narrative in (
            ("A", "mereo_A: A → ()", "Part A has the empty mereology."),
            ("B", "mereo_B: B → AI", "Part B is related to the parts identified by AI."),
            ("C", "mereo_C: C → AI×BI",
             "Part C is related to the parts identified by AI, BI."),
            ("D", "mereo_D: D → BI-set", "Part D is related to the parts identified by BI.")):
        description = observe_mereology(forms, name)
        assert [d.text for d in description.formal] == [formal]
        assert description.narrative == narrative


def test_observe_mereology_rejects_component():
    model = DomainModel((EndurantDecl("C", "component", "discrete", id_type="CI"),))
    with pytest.raises(NotAPart):
        observe_mereology(model, "C")


def test_observe_attributes(aircraft_model):
    position = observe_attributes(aircraft_model, "PP")
    assert position.formal[0].text == "LO, LA, AL"
    dynamics = observe_attributes(aircraft_model, "TD")
    assert dynamics.formal[0].text == "VEL, ACC"
    craft = observe_attributes(aircraft_model, "AC")
    assert craft.formal == ()


# -- registry ----------------------------------------------------------------

def test_registry_for_aircraft(aircraft_model):
    registry, diagnostics = registry_for_model(aircraft_model)
    assert not diagnostics
    for name in ("rLO", "rLA", "rAL", "rVEL", "rACC",
                 "dLO", "dLA", "dAL", "dVEL", "dACC"):
        assert name in registry
    # rLO magnitudes are tenths of a degree: scale 1/10
    assert registry.get("rLO").scale.denominator == 10
    assert registry.get("dLO").scale == 1


def test_registry_unknown_source_kind():
    model = parse_ok("conversion c : nosuch -> target = affine(1, 0);")
    _, diagnostics = registry_for_model(model)
    assert "E205" in {d.code for d in diagnostics}


def test_registry_degenerate_scale():
    model = parse_ok("conversion c : m -> target = affine(0, 0);")
    _, diagnostics = registry_for_model(model)
    assert "E207" in {d.code for d in diagnostics}


def test_registry_shadowing_builtin_warns():
    model = parse_ok("conversion c : K -> Temp = affine(2, 0);")
    registry, diagnostics = registry_for_model(model)
    assert "W210" in {d.code for d in diagnostics}
    assert not any(d.is_error for d in diagnostics)
    assert registry.get("Temp").scale.denominator == 2


# Models reaching each branch of the registry construction.
REGISTRY_SNIPPETS = {
    "shadow": "conversion c : K -> Temp = affine(2, 0);",
    "same-as-builtin": "conversion c : interval K -> TempInterval = affine(1, 0);",
    "redefined": "conversion c : m -> Z = affine(2, 0); conversion d : km -> Z = affine(3, 0);",
    "unit-target": "conversion c : m -> km = affine(1/1000, 0);"
                   " conversion d : s -> km = affine(1, 0);",
    "degenerate": "conversion c : m -> Z = affine(0, 0);",
    "unknown": "conversion c : nosuch -> Z = affine(1, 0);",
    "forward": "conversion b : Y -> Z = affine(2, 0); conversion a : point K -> Y = affine(1, 5);"
               " conversion c : interval K -> W = affine(3, 0);",
    "roles": """
        part A { id AI; mereo empty; attr X : point km / h reactive; attr Y : interval  K inert;
                 attr V : km / h reactive; attr T : Temp inert; attr Q : nosuch reactive; }
        channel attr_X_ch : point km/h;
        channel c : N x point s x interval h;
    """,
    "bounds": """
        part A { id AI; mereo A -> empty; attr X : km^10000 reactive; }
        channel c : ((kdeg^99)^99)^99;
        conversion big : km^5000 -> Z = affine(1, 0);
    """,
}


def registry_kinds_text(aircraft_model) -> str:
    """sha256 of each model's registry: every kind, as name and value, then
    the construction diagnostics in order.  The golden file was written by
    the registry as it was before ``resolve`` stopped storing kinds."""
    models = [("aircraft", aircraft_model)]
    models += [(f"random_model seed={seed}", random_model(random.Random(seed)))
               for seed in range(40)]
    models += [(f"pairs_model n={n} seed={seed}", pairs_model(random.Random(seed), n))
               for n in (2, 12) for seed in range(6)]
    models += [(f"snippet {name}", parse_model(text)[0])
               for name, text in REGISTRY_SNIPPETS.items()]
    lines = []
    for label, model in models:
        registry, diagnostics = registry_for_model(model)
        document = repr([(k.name, k) for k in registry.kinds()]) + repr(
            [(d.code, d.message) for d in diagnostics])
        lines.append(f"{label} {hashlib.sha256(document.encode()).hexdigest()}\n")
    return "".join(lines)


def test_registry_kinds_golden(aircraft_model):
    assert registry_kinds_text(aircraft_model) == (GOLDEN / "registry_kinds.txt").read_text()


UNSEEN_KINDS = ("N/m^2", "point K", "interval h", "point  km / h", "kPa")


def test_registry_is_not_written_by_reads(aircraft_model):
    registry, _ = registry_for_model(aircraft_model)
    before = registry.kinds()
    for text in UNSEEN_KINDS:
        assert text not in registry
        assert registry.resolve(text) == registry.resolve(text)
    assert registry.resolve("point K").interval_kind == registry.resolve("interval K")
    line = json.dumps({"channel": "c", "kind": "send", "process": "p", "step": 0,
                       "payload": [{"kind": "kPa", "value": "3/2"},
                                   {"kind": "point K", "value": "-1"}]})
    payload = tuple(trace_from_jsonl(line + "\n", registry))[0].payload
    assert [q.kind.name for q in payload] == ["kPa", "point K"]
    assert typecheck_expr("kPa * m / N", {}, registry).kind.name == "kPa*m/N"
    assert registry.kinds() == before


def test_registry_shared_between_threads(aircraft_model):
    registry, _ = registry_for_model(aircraft_model)
    before = registry.kinds()
    texts = UNSEEN_KINDS + ("rLO", "dLO", "Temp", "point deg")

    def resolve_all(_):
        return [registry.resolve(text) for _ in range(200) for text in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(resolve_all, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 and all(result == results[0] for result in results)
    assert registry.kinds() == before


def test_registry_target_with_spaces_conflict_is_e205():
    model = parse_ok("conversion c : m -> foo bar = affine(1, 0);"
                     " conversion d : s -> foo bar = affine(1, 0);")
    registry, diagnostics = registry_for_model(model)
    assert [d.code for d in diagnostics] == ["E205"]
    assert registry.resolve("foo bar").dimension == registry.resolve("m").dimension


# -- well-formedness ---------------------------------------------------------

def test_aircraft_is_wellformed(aircraft_model):
    assert check_wellformed(aircraft_model) == []


def test_dangling_mereology_id():
    model = parse_ok("part PP { id PPI; mereo ZZI; }")
    assert "E101" in {d.code for d in check_wellformed(model)}


def cycle_oracle(model):
    # Independent oracle: a sort that can reach itself over the children
    # relation witnesses a cycle.
    children = {e.name: set(e.children or ()) for e in model.endurants}
    for start in children:
        frontier, seen = set(children[start]), set()
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier |= children.get(node, set())
    return False


def test_composite_cycle_detected():
    model = parse_ok("""
    part A composite(B) { id AI; mereo empty; }
    part B composite(A) { id BI; mereo empty; }
    """)
    assert cycle_oracle(model)
    assert "E102" in {d.code for d in check_wellformed(model)}


def test_composition_depth_limit():
    limit = analysis.MAX_COMPOSITION_DEPTH
    assert check_wellformed(composite_chain(limit)) == []
    for depth in (limit + 1, 1000, 3000):
        diagnostics = check_wellformed(composite_chain(depth))
        assert [d.code for d in diagnostics] == ["E120"]
        assert f"{depth} parts deep" in diagnostics[0].message


def test_unit_size_bound_in_model_is_e208():
    model, _ = parse_model("""
    part A { id AI; mereo A -> empty; attr X : km^10000 reactive; }
    channel c : ((kdeg^99)^99)^99;
    conversion big : km^5000 -> Z = affine(1, 0);
    """)
    codes = [d.code for d in registry_for_model(model)[1]]
    assert codes == ["E208", "E208", "E208"]


@pytest.mark.parametrize("literal", ["1e5000", "1e10000000 m", "-1e-5000"])
def test_init_literal_beyond_bound_is_e206(literal):
    model = parse_ok(f"part A {{ id AI; mereo empty; attr X : m static init {literal}; }}")
    started = time.perf_counter()
    diagnostics = check_wellformed(model)
    assert time.perf_counter() - started < 0.5
    assert [d.code for d in diagnostics] == ["E206"]
    assert "beyond 4096 bits" in diagnostics[0].message


def test_cycle_oracle_agrees_on_acyclic(aircraft_model):
    assert not cycle_oracle(aircraft_model)
    for seed in range(20):
        assert not cycle_oracle(random_model(random.Random(seed)))


def test_unknown_composite_child():
    model = parse_ok("part A composite(NOPE) { id AI; mereo empty; }")
    assert "E103" in {d.code for d in check_wellformed(model)}


def test_shared_child_rejected():
    model = parse_ok("""
    part A composite(C) { id AI; mereo empty; }
    part B composite(C) { id BI; mereo empty; }
    part C { id CI; mereo empty; }
    """)
    assert "E117" in {d.code for d in check_wellformed(model)}


def test_axiom_target_must_be_programmable():
    model = parse_ok("""
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr Y : rX reactive; attr dX : m programmable init 0; }
    conversion a2rX : m -> rX = affine(1, 0);
    axiom ax { display(B.Y) tracks (A.X via a2rX); }
    """)
    assert "E110" in {d.code for d in check_wellformed(model)}


def test_axiom_chain_type_mismatch():
    model = parse_ok("""
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : kg programmable init 0; }
    conversion a2rX : m -> rX = affine(1, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    """)
    assert "E111" in {d.code for d in check_wellformed(model)}


def test_first_link_must_not_have_inverse():
    model = parse_ok("""
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : rX programmable init 0; }
    conversion a2rX : m -> rX inverse r2aX = affine(2, 0);
    conversion r2aX : rX -> m inverse a2rX = affine(0.5, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    """)
    assert "E113" in {d.code for d in check_wellformed(model)}


def test_later_links_must_have_inverse():
    model = parse_ok("""
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : dXk programmable init 0; }
    conversion a2rX : m -> rX = affine(1, 0);
    conversion r2dX : rX -> dXk = affine(2, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX, r2dX); }
    """)
    assert "E114" in {d.code for d in check_wellformed(model)}


CHAIN_BASE = """part A { id AI; mereo BI; attr X : m reactive; }
part B { id BI; mereo AI; attr Y : rX reactive;
  attr dX : rX programmable init 0; attr dZ : dXk programmable init 0; }
conversion a2rX : m -> rX = affine(1, 0);
conversion r2dX : rX -> dXk = affine(2, 0);
conversion a2rXi : m -> rX inverse r2aX = affine(2, 0);
conversion r2aX : rX -> m inverse a2rXi = affine(0.5, 0);
"""


# Each chain diagnostic points at the offending source clause, on line 8;
# the two about the display target point at the whole axiom.
@pytest.mark.parametrize("axiom, code, span", [
    ("axiom ax { display(B.dX) tracks (A.X via nosuch); }", "E112", (8, 34, 8, 43)),
    ("axiom ax { display(B.dX) tracks (A.Z via a2rX); }", "E112", (8, 34, 8, 43)),
    ("axiom ax { display(B.dX) tracks (A.X via a2rX, a2rX); }", "E111", (8, 34, 8, 49)),
    ("axiom ax { display(B.dX) tracks (A.X); }", "E111", (8, 34, 8, 37)),
    ("axiom ax { display(B.dX) tracks (A.X via a2rXi); }", "E113", (8, 34, 8, 43)),
    ("axiom ax { display(B.dZ) tracks (A.X via a2rX, r2dX); }", "E114", (8, 34, 8, 49)),
    ("axiom ax { display(B.Y) tracks (A.X via a2rX); }", "E110", (8, 1, 8, 49)),
    ("axiom ax { display(B.NOPE) tracks (A.X via a2rX); }", "E112", (8, 1, 8, 52)),
], ids=["unknown-conversion", "unknown-source", "link-kind", "chain-kind",
        "first-link-inverse", "later-link-no-inverse", "target-not-programmable",
        "unknown-target"])
def test_chain_diagnostic_points_at_its_clause(axiom, code, span):
    model = parse_ok(CHAIN_BASE + axiom)
    spans = [d.span for d in check_wellformed(model) if d.code == code]
    assert [(s.start_line, s.start_col, s.end_line, s.end_col) for s in spans] == [span]


# Diagnostics that only hand-written text meets, as ``domcalc check``
# prints them: the parser's, or else the errors of ``check_wellformed``.
@pytest.mark.parametrize("text, expected", [
    ("material M composite(A) { }", ["1:12: E001: materials cannot be composite"]),
    ("part A { id AI;", ["1:16: E001: unterminated block"]),
    ("part A { doc 3; }", ["1:14: E001: expected string after 'doc'"]),
    ("part A { attr x : ; }", ["1:19: E001: expected a quantity kind after ':'"]),
    ("conversion f : m m;", ["1:20: E001: expected '->' in conversion declaration"]),
    ("conversion f : -> q = affine(1,0);",
     ["1:1: E001: conversion needs source and target kinds"]),
    ("channel c : ;", ["1:1: E001: channel declaration needs message kinds"]),
    ("axiom ax { display(A.x, B.y) tracks (C.z; D.w); }",
     ["1:28: E001: display attributes must share one sort"]),
    ("conversion f : m -> q inverse g = affine(2, 0);",
     ["1:1: E115: conversion 'f' names unknown inverse 'g'"]),
    ("conversion f : m -> q1 inverse g = affine(2, 0);\n"
     "conversion g : q1 -> q2 inverse f = affine(0.5, 0);",
     ["1:1: E115: inverse 'g' does not map 'q1' back to 'm'",
      "2:1: E115: inverse 'f' does not map 'q2' back to 'q1'"]),
    ("axiom ax { display(A.x) tracks (B.y); }",
     ["1:1: E112: axiom 'ax' targets unknown sort 'A'"]),
], ids=["material-composite", "unterminated-block", "doc-not-string", "no-quantity-kind",
        "conversion-no-arrow", "conversion-no-kinds", "channel-no-kinds", "display-two-sorts",
        "unknown-inverse", "inverse-not-back", "axiom-unknown-sort"])
def test_text_only_diagnostics(text, expected):
    model, diagnostics = parse_model(text)
    if not diagnostics:
        diagnostics = [d for d in check_wellformed(model) if d.is_error]
    assert [str(d) for d in diagnostics] == [f"<input>:{line}" for line in expected]


def test_asymmetric_inverse_pairing():
    model = parse_ok("""
    conversion f : m -> q1 inverse g = affine(2, 0);
    conversion g : q1 -> m = affine(0.5, 0);
    """)
    assert "E115" in {d.code for d in check_wellformed(model)}


def test_missing_init_is_checked_before_compile():
    model = parse_ok("""
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : rX programmable; }
    conversion a2rX : m -> rX = affine(1, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    """)
    assert "E303" in {d.code for d in check_wellformed(model)}


def test_wellformed_implies_compilable():
    from domcalc import compiler
    for seed in range(40):
        model = random_model(random.Random(seed))
        assert check_wellformed(model) == []
        compiler.compile_model(model)  # must not raise


def test_description_idempotence_generated():
    for seed in range(25):
        model = random_model(random.Random(seed))
        for endurant in model.endurants:
            prompts = []
            cls = classify(model, endurant.name)
            if cls.is_composite:
                prompts.append(observe_part_sorts)
            if not cls.is_material:
                prompts.append(observe_unique_identifier)
            if cls.is_part:
                prompts.append(observe_mereology)
            prompts.append(observe_attributes)
            for prompt in prompts:
                source = prompt(model, endurant.name).source
                fragment, diagnostics = parse_model(source)
                assert not diagnostics, source
                assert check_wellformed(fragment) == [], source


def test_external_channel_form_cannot_carry_tuples():
    model = parse_ok("""
    part A { id AI; mereo empty; attr X : m reactive; }
    channel attr_X_ch : m x kg;
    """)
    assert "E304" in {d.code for d in check_wellformed(model)}


def test_external_channel_must_name_an_attribute():
    model = parse_ok("""
    part A { id AI; mereo empty; }
    channel attr_NOPE_ch : m;
    """)
    assert "E112" in {d.code for d in check_wellformed(model)}


def test_axiom_arity_mismatch():
    model = parse_ok("""
    part A { id AI; mereo BI; attr X : m reactive; attr Y : m reactive; }
    part B { id BI; mereo AI; attr dX : rX programmable init 0; }
    conversion a2rX : m -> rX = affine(1, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX; A.Y via a2rX); }
    """)
    assert "E112" in {d.code for d in check_wellformed(model)}


def test_mereology_must_reference_part_identifiers():
    model = parse_ok("""
    part A { id AI; mereo CI; }
    component C { id CI; }
    """)
    assert "E119" in {d.code for d in check_wellformed(model)}


def test_inconsistent_kind_derivation_warns():
    model = parse_ok("""
    conversion f : m -> q inverse g = affine(2, 0);
    conversion g : q -> m inverse f = affine(0.25, 0);
    """)
    _, diagnostics = registry_for_model(model)
    assert "W211" in {d.code for d in diagnostics}
    assert not any(d.is_error for d in diagnostics)


def test_inverse_pair_of_the_kind_derivation_warning_is_refused():
    # The model above: the registry's W211 stays a warning, and the check
    # refuses the pair itself, since g after f is x -> 0.5 x.
    model = parse_ok("""
    conversion f : m -> q inverse g = affine(2, 0);
    conversion g : q -> m inverse f = affine(0.25, 0);
    """)
    assert [d.code for d in check_wellformed(model)] == ["W211", "E116", "E116"]
