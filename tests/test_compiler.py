import json
import random

import pytest

from domcalc import compiler
from domcalc.analysis import NotAPart
from domcalc.compiler import (
    CompileError,
    behaviour_prefix,
    compile_model,
    compile_process,
    derive_channels,
    derive_signature,
    graph_to_json,
    print_process,
)
from domcalc.dsl import parse_model
from domcalc.model import UnknownSort

from conftest import GOLDEN
from modelgen import random_model


def parse_ok(text):
    model, diagnostics = parse_model(text)
    assert not diagnostics, diagnostics
    return model


MUTUAL_PAIR = """
part A { id AI; mereo BI; attr X : m reactive; attr dY : rY programmable init 0; }
part B { id BI; mereo AI; attr Y : kg reactive; attr dX : rX programmable init 0; }
conversion a2rX : m -> rX = affine(1, 0);
conversion a2rY : kg -> rY = affine(1, 0);
axiom ax { display(B.dX) tracks (A.X via a2rX); }
axiom ay { display(A.dY) tracks (B.Y via a2rY); }
"""


def test_behaviour_prefixes_match_the_worked_example():
    assert behaviour_prefix("position") == "po"
    assert behaviour_prefix("travel_dynamics") == "td"
    assert behaviour_prefix("display") == "di"


def test_derive_channels_aircraft(aircraft_model):
    channels = {c.name: c.kinds for c in derive_channels(aircraft_model)}
    assert channels == {
        "attr_LO_ch": ("point deg",),
        "attr_LA_ch": ("point deg",),
        "attr_AL_ch": ("point m",),
        "attr_VEL_ch": ("interval km/h",),
        "attr_ACC_ch": ("interval m/s^2",),
        "po_di_ch": ("rLO", "rLA", "rAL"),
        "td_di_ch": ("rVEL", "rACC"),
    }


def test_no_dynamics_no_channels():
    model = parse_ok("""
    part A { id AI; mereo empty; attr S : m static init 1; }
    part B { id BI; mereo empty; }
    """)
    assert derive_channels(model) == ()


def test_mutually_related_parts_two_directed_channels():
    model = parse_ok(MUTUAL_PAIR)
    # Oracle: enumerate directed pairs from the mereology declarations; both
    # parts consume, so both directions carry a channel.
    parts = {p.name: p for p in model.parts()}
    ids = {p.id_type: p.name for p in model.parts()}
    directed = set()
    for p in parts.values():
        for leaf in p.mereology.leaves():
            other = ids[leaf]
            for sender, receiver in ((p.name, other), (other, p.name)):
                if any(a.category in ("programmable", "biddable")
                       for a in parts[receiver].attributes):
                    directed.add((sender, receiver))
    assert directed == {("A", "B"), ("B", "A")}
    mereo_channels = [c for c in derive_channels(model) if not c.is_external]
    assert sorted(c.name for c in mereo_channels) == ["a_b_ch", "b_a_ch"]


def test_signature_position(aircraft_model):
    sig = derive_signature(aircraft_model, "PP")
    assert sig.uid_param == "PPI"
    assert sig.in_channels == ("attr_LO_ch", "attr_LA_ch", "attr_AL_ch")
    assert sig.out_channels == ("po_di_ch",)
    assert sig.static_params == ()
    assert sig.controllable_params == ()
    assert sig.never_terminates


def test_signature_display(aircraft_model):
    sig = derive_signature(aircraft_model, "DP")
    assert sig.controllable_params == ("dLO", "dLA", "dAL", "dVEL", "dACC")
    assert sig.in_channels == ("po_di_ch", "td_di_ch")
    assert sig.out_channels == ()


def test_signature_static_only_part():
    model = parse_ok("part A { id AI; mereo empty; attr S : m static init 3; }")
    sig = derive_signature(model, "A")
    assert sig.static_params == ("S",)
    assert sig.in_channels == () and sig.out_channels == ()


def test_signature_unknown_and_nonpart():
    model = parse_ok("component C { id CI; }")
    with pytest.raises(UnknownSort):
        derive_signature(model, "NOPE")
    with pytest.raises(NotAPart):
        derive_signature(model, "C")


def test_compile_aircraft_shape(aircraft_model):
    graph = compile_process(aircraft_model, "AC")
    assert graph.root.part == "AC"
    assert graph.root.process is None  # aircraft core elided
    assert [c.part for c in graph.root.children] == ["PP", "TD", "DP"]
    assert all(c.children == () for c in graph.root.children)
    assert [p.name for p in graph.processes()] == [
        "position", "travel_dynamics", "display"]


def test_compile_atomic_part(aircraft_model):
    graph = compile_process(aircraft_model, "PP")
    assert graph.root.children == ()
    assert graph.root.process.name == "position"


def test_always_core_emits_composite_core(aircraft_model):
    graph = compile_process(aircraft_model, "AC", always_core=True)
    assert graph.root.process is not None
    assert graph.root.process.name == "ac"


def test_three_level_composite_depth():
    model = parse_ok("""
    part A composite(B) { id AI; mereo empty; }
    part B composite(C) { id BI; mereo empty; }
    part C { id CI; mereo empty; }
    """)

    # Oracle: structural recursion over the declaration tree.
    def depth(name):
        decl = model.endurant(name)
        return 1 + max((depth(c) for c in decl.children or ()), default=0)

    def graph_depth(node):
        return 1 + max((graph_depth(c) for c in node.children), default=0)

    graph = compile_process(model, "A")
    assert depth("A") == 3
    assert graph_depth(graph.root) == depth("A")


def test_structure_preservation_generated():
    for seed in range(40):
        model = random_model(random.Random(seed))
        graph = compile_model(model)

        def tree_of(node):
            return (node.part, tuple(sorted(tree_of(c) for c in node.children)))

        def decl_tree(name):
            decl = model.endurant(name)
            return (name, tuple(sorted(decl_tree(c) for c in decl.children or ())))

        assert tree_of(graph.root) == decl_tree(graph.root.part)


def generated_process_text() -> str:
    """Process text and graph JSON of the generated models, with and without
    composite cores."""
    chunks = []
    for seed in range(40):
        model = random_model(random.Random(seed))
        for always_core in (False, True):
            graph = compile_model(model, always_core=always_core)
            chunks.append(f"-- seed {seed} always_core={always_core}\n")
            chunks.append(print_process(graph))
            chunks.append(json.dumps(graph_to_json(graph), sort_keys=True) + "\n")
    return "".join(chunks)


def test_generated_models_print_golden():
    assert generated_process_text() == (GOLDEN / "generated_process.txt").read_text()


def test_signature_completeness_generated():
    for seed in range(40):
        model = random_model(random.Random(seed))
        graph = compile_model(model)
        for process in graph.processes():
            sig = process.signature
            declared = set(sig.in_channels) | set(sig.out_channels)
            used = set(process.body.receives) | {s.channel for s in process.body.sends}
            assert used <= declared
            part = model.endurant(process.part)
            for attr in part.attributes:
                if attr.is_external:
                    assert sig.in_channels.count(f"attr_{attr.name}_ch") == 1
                if attr.is_controllable:
                    assert attr.name in sig.controllable_params
                    assert f"attr_{attr.name}_ch" not in declared
            assert sig.never_terminates


def test_compile_is_deterministic(aircraft_model):
    first = compile_process(aircraft_model, "AC")
    second = compile_process(aircraft_model, "AC")
    assert first == second
    assert graph_to_json(first) == graph_to_json(second)


def test_missing_init_raises_compile_error():
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : rX programmable; }
    conversion a2rX : m -> rX = affine(1, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    """)
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert any(d.code == "E303" for d in err.value.diagnostics)


def test_underivable_message_kind_is_e301():
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo BI; }
    part B { id BI; mereo AI; attr dX : m programmable init 0; }
    """)
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert any(d.code == "E301" for d in err.value.diagnostics)


def test_declared_channel_satisfies_e301():
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo BI; }
    part B { id BI; mereo AI; attr dX : m programmable init 0; }
    channel a_b_ch : m;
    """)
    graph = compile_model(model)
    assert graph.channel("a_b_ch").kinds == ("m",)


def test_print_position_definition_matches_schema(aircraft_graph):
    text = print_process(aircraft_graph)
    assert ("position(pπ,dπ) ≡ let (lo,la,al) = "
            "(attr_LO_ch?,attr_LA_ch?,attr_AL_ch?) in "
            "po_di_ch ! (a2rLO(lo),a2rLA(la),a2rAL(al)); "
            "position(pπ,dπ) end") in text


def test_print_display_receives_both_channels(aircraft_graph):
    text = print_process(aircraft_graph)
    assert "(po_di_ch?,td_di_ch?)" in text
    assert "conv_po_di(rlo,rla,ral) ≡ (r2dLO(rlo),r2dLA(rla),r2dAL(ral))" in text
    assert "compile(AC) ≡ position" in text
    assert "∥" in text


def test_graph_json_fields(aircraft_graph):
    doc = graph_to_json(aircraft_graph)
    assert set(doc) == {"composition", "processes", "channels", "edges"}
    names = {p["name"] for p in doc["processes"]}
    assert names == {"position", "travel_dynamics", "display"}
    display = next(p for p in doc["processes"] if p["name"] == "display")
    assert display["controllable"] == ["dLO", "dLA", "dAL", "dVEL", "dACC"]
    assert display["in_channels"] == ["po_di_ch", "td_di_ch"]
    assert {e["channel"] for e in doc["edges"] if e["from"] == "position"} == {"po_di_ch"}


def test_multiple_roots_rejected():
    model = parse_ok("""
    part A { id AI; mereo empty; }
    part B { id BI; mereo empty; }
    """)
    with pytest.raises(CompileError):
        compile_model(model)
    assert compile_process(model, "A").root.part == "A"


def test_empty_model_compiles_to_empty_graph():
    graph = compile_model(parse_ok(""))
    assert graph.root is None
    assert graph.processes() == ()


def test_single_atomic_root_prints_core_only():
    model = parse_ok("part A { id AI; mereo empty; attr X : m reactive; }")
    text = print_process(compile_model(model))
    assert "compile(A) ≡ a(aπ,())" in text
    assert "∥" not in text


def test_printed_bodies_end_in_self_recursion():
    for seed in range(20):
        model = random_model(random.Random(seed))
        graph = compile_model(model)
        text = print_process(graph)
        for process in graph.processes():
            definitions = [line for line in text.splitlines()
                           if line.startswith(f"{process.name}(")]
            assert definitions
            head, _, body = definitions[0].partition(" ≡ ")
            assert f"{process.name}(" in body  # tail-recursive by construction


def test_cycle_guard_fires_when_compiling_unchecked_model():
    model = parse_ok("""
    part A composite(B) { id AI; mereo empty; }
    part B composite(A) { id BI; mereo empty; }
    """)
    with pytest.raises(CompileError) as err:
        compile_process(model, "A")
    assert any(d.code == "E302" for d in err.value.diagnostics)


def test_shared_attribute_channel_kind_conflict():
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo empty; attr FOO : m reactive; }
    part B { id BI; mereo empty; attr FOO : kg reactive; }
    """)
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert any(d.code == "E306" for d in err.value.diagnostics)


def test_set_mereology_compiles_to_channel():
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo set(BI); attr X : m reactive; }
    part B { id BI; mereo empty; attr dX : rX programmable init 0; }
    conversion a2rX : m -> rX = affine(1, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    """)
    graph = compile_model(model)
    assert graph.channel("a_b_ch") is not None
    assert graph.channel("a_b_ch").kinds == ("rX",)


def test_component_and_material_attrs_have_no_channels():
    model = parse_ok("""
    part A { id AI; mereo empty; }
    component C { id CI; attr X : m reactive; }
    material G { attr Y : kg inert; }
    """)
    assert derive_channels(model) == ()
