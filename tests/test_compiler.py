import gc
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from domcalc import compiler
from domcalc.analysis import MAX_COMPOSITION_DEPTH, NotAPart, check_wellformed
from domcalc.cli import _json_text
from domcalc.compiler import (
    CompileError,
    behaviour_prefix,
    compile_model,
    compile_preflight,
    compile_process,
    derive_channels,
    derive_signature,
    graph_to_json,
    print_process,
)
from domcalc.diagnostics import SourceSpan
from domcalc.dsl import parse_model
from domcalc.model import READ, RECEIVE, SEND, UnknownSort
from domcalc.simulator import EnvironmentScript, check_axioms, instantiate, stream

from conftest import GOLDEN
from modelgen import composite_chain, random_model


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


@pytest.mark.parametrize("behaviour, prefix", [("s_", "s"), ("_s", "s"), ("___", "")])
def test_a_one_word_prefix_is_spelled_one_way(behaviour, prefix):
    # The prefix comes from the word alone, so it holds no "_": the channel
    # name, the head's <prefix>_da and the received value's <prefix>_d′ agree.
    assert behaviour_prefix(behaviour) == prefix
    assert behaviour_prefix(behaviour, 3) == prefix
    model = parse_ok(f"""
    part R composite(S, D) {{ id RI; mereo empty; }}
    part S {{ id SI; mereo DI; behaviour {behaviour}; attr Y : m reactive; }}
    part D {{ id DI; mereo SI; attr d : m reactive; attr dY : m programmable init 0; }}
    axiom follow {{ display(D.dY) tracks (S.Y); }}
    """)
    assert check_wellformed(model) == []
    graph = compile_model(model)
    assert [c.name for c in graph.channels if not c.external] == [f"{prefix}_d_ch"]
    assert (f"d(dπ,sπ)({prefix}_da) ≡ let (d,{prefix}_d′) = (attr_d_ch?,{prefix}_d_ch?) in "
            f"d(dπ,sπ)(conv_{prefix}_d({prefix}_d′)) end" in print_process(graph))


def test_single_word_behaviours_with_the_same_initials_compile():
    # sensor0 -> display and sensor1 -> display would both derive 'se_di_ch':
    # only the two sensors' prefixes grow, until they differ.
    model = parse_ok("""
    part RT composite(sensor0, sensor1, display) { id RTI; mereo empty; }
    part sensor0 { id S0I; mereo DI; attr X : m reactive; }
    part sensor1 { id S1I; mereo DI; attr Y : m reactive; }
    part display { id DI; mereo S0I x S1I;
                   attr dX : m programmable init 0; attr dY : m programmable init 0; }
    axiom ax { display(display.dX) tracks (sensor0.X); }
    axiom ay { display(display.dY) tracks (sensor1.Y); }
    """)
    assert check_wellformed(model) == []
    graph = compile_model(model)
    assert sorted(c.name for c in graph.channels if not c.external) == [
        "sensor0_di_ch", "sensor1_di_ch"]
    assert ("display(displayπ,(sensor0π,sensor1π))(sensor0_da,sensor1_da) ≡ "
            "let (sensor0_d′,sensor1_d′) = (sensor0_di_ch?,sensor1_di_ch?) in "
            in print_process(graph))
    script = EnvironmentScript.from_json({"attr_X_ch": {"points": [[0, "1 m"]], "cycle": 1},
                                          "attr_Y_ch": {"points": [[0, "2 m"]], "cycle": 1}},
                                         graph)
    verdicts = check_axioms(model, stream(instantiate(graph, script, 0), 20))
    assert [(v.passed, v.checked) for v in verdicts] == [(True, 10), (True, 10)]


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


def test_partial_compile_lists_the_channels_of_its_processes(aircraft_model):
    channels = compile_process(aircraft_model, "PP").channels
    assert [(c.name, c.kinds, c.external, c.sender, c.receivers) for c in channels] == [
        ("attr_AL_ch", ("point m",), True, "env", ("position",)),
        ("attr_LA_ch", ("point deg",), True, "env", ("position",)),
        ("attr_LO_ch", ("point deg",), True, "env", ("position",)),
        ("po_di_ch", ("rLO", "rLA", "rAL"), False, "position", ("display",)),
    ]


SHARED_ATTRIBUTE = """part RT composite(A, B) { id RTI; mereo empty; }
part A { id AI; mereo empty; attr X : m reactive; }
part B { id BI; mereo empty; attr X : m reactive; }
"""


def test_attribute_channel_read_by_two_parts():
    # Every reader receives the one channel; a partial compile lists only its
    # own readers.
    model = parse_ok(SHARED_ATTRIBUTE)
    whole = [(c.name, c.kinds, c.sender, c.receivers) for c in compile_model(model).channels]
    assert whole == [("attr_X_ch", ("m",), "env", ("a", "b"))]
    partial = [(c.name, c.kinds, c.sender, c.receivers)
               for c in compile_process(model, "B").channels]
    assert partial == [("attr_X_ch", ("m",), "env", ("b",))]
    # The derived channel takes the first part's kind (the second is an E306).
    conflict = parse_ok(SHARED_ATTRIBUTE.replace("BI; mereo empty; attr X : m",
                                                 "BI; mereo empty; attr X : kg"))
    assert [d.code for d in check_wellformed(conflict)] == ["E306"]
    assert [(c.name, c.kinds) for c in derive_channels(conflict)] == [("attr_X_ch", ("m",))]


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


def assert_indented_json(doc) -> None:
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_indented_graph_json_equals_json_dumps(aircraft_graph):
    assert_indented_json(graph_to_json(aircraft_graph))
    for seed in range(40):
        graph = compile_model(random_model(random.Random(seed)), always_core=seed % 2 == 1)
        assert_indented_json(graph_to_json(graph))
    empty = graph_to_json(compile_model(parse_ok("")))
    assert empty == {"composition": None, "processes": [], "channels": [], "edges": []}
    assert_indented_json(empty)
    renamed = graph_to_json(aircraft_graph)
    renamed["processes"][0]["name"] = "positionµ"
    assert '"positionµ"' not in _json_text(renamed)
    assert '"position\\u00b5"' in _json_text(renamed)
    assert_indented_json(renamed)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_indented_json_equals_json_dumps_on_generated_values(value):
    assert_indented_json(value)


def test_signature_completeness_generated():
    for seed in range(40):
        model = random_model(random.Random(seed))
        graph = compile_model(model)
        for process in graph.processes():
            sig = process.signature
            declared = set(sig.in_channels) | set(sig.out_channels)
            used = [channel for _, channel in sig.actions]
            assert set(used) <= declared and len(set(used)) == len(used)
            part = model.endurant(process.part)
            # The cycle: reads in attribute order, then receives, then sends,
            # each by name; every send carries one slot per read attribute.
            external = [f"attr_{a.name}_ch" for a in part.attributes if a.is_external]
            ops = [op for op, _ in sig.actions]
            assert ops == sorted(ops, key=[READ, RECEIVE, SEND].index)
            assert [c for op, c in sig.actions if op == READ] == external
            for kind in (RECEIVE, SEND):
                channels = [c for op, c in sig.actions if op == kind]
                assert channels == sorted(channels)
            assert len(process.body.wire) == len(external)
            for attr in part.attributes:
                if attr.is_external:
                    assert sig.in_channels.count(f"attr_{attr.name}_ch") == 1
                if attr.is_controllable:
                    assert attr.name in sig.controllable_params
                    assert f"attr_{attr.name}_ch" not in declared


def test_compile_is_deterministic(aircraft_model):
    first = compile_process(aircraft_model, "AC")
    second = compile_process(aircraft_model, "AC")
    assert first == second
    assert graph_to_json(first) == graph_to_json(second)


def test_compile_leaves_nothing_for_the_cyclic_collector(aircraft_model):
    # Every object a compile makes is freed by reference counting, so peak
    # memory does not wait on the cyclic collector.
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        graph = compile_model(aircraft_model)
        assert gc.collect() == 0, gc.garbage[:10]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert graph == compile_model(aircraft_model)


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
    assert {p["name"]: p["mereology"] for p in doc["processes"]} == {
        "position": "DPI", "travel_dynamics": "DPI", "display": "PPI x TDI"}


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


@pytest.mark.parametrize("parts", ["", "part A { id AI; mereo empty; }"])
def test_registry_errors_raise_with_or_without_parts(parts):
    model = parse_ok(parts + " conversion c : nonsense_unit -> q = affine(0, 1);")
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert [d.code for d in err.value.diagnostics] == ["E205"]


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


def test_composition_depth_limit_in_compile():
    graph = compile_model(composite_chain(MAX_COMPOSITION_DEPTH))
    assert print_process(graph).startswith("value\n")
    json.dumps(graph_to_json(graph), indent=2)
    for depth in (MAX_COMPOSITION_DEPTH + 1, 1000):
        with pytest.raises(CompileError) as exc:
            compile_model(composite_chain(depth))
        assert [d.code for d in exc.value.diagnostics] == ["E120"]


def test_cycle_guard_fires_when_compiling_unchecked_model():
    model = parse_ok("""
    part A composite(B) { id AI; mereo empty; }
    part B composite(A) { id BI; mereo empty; }
    """)
    # The check's E102 refuses the cycle, before compile_model seeks a root.
    for compile_ in (lambda m: compile_process(m, "A"), compile_model):
        with pytest.raises(CompileError) as err:
            compile_(model)
        assert [d.code for d in err.value.diagnostics] == ["E102"]


GATED = """
part RT composite(A, B) { id RTI; mereo empty; }
part A { id AI; mereo BI; attr X : m reactive; }
part B { id BI; mereo AI; attr dX : rX programmable init 0; }
conversion a2rX : m -> rX = affine(1, 0);
axiom ax { display(B.dX) tracks (A.X via a2rX); }
"""


# One edit of GATED per code that check_wellformed reports for the result.
REJECTED = {
    "E101": ("mereo BI;", "mereo ZI;"),
    "E102": ("composite(A, B)", "composite(A, B, RT)"),
    "E103": ("composite(A, B)", "composite(A, B, C)"),
    "E108": ("RTI; mereo empty;", "RTI;"),
    "E110": ("programmable init 0", "static"),
    "E112": ("via a2rX", "via nosuch"),
    "E206": ("init 0", "init 1 kg"),
}


@pytest.mark.parametrize("code", REJECTED)
def test_compile_and_monitor_refuse_what_check_rejects(code):
    assert check_axioms(parse_ok(GATED), ())[0].passed
    model = parse_ok(GATED.replace(*REJECTED[code]))
    errors = [d for d in check_wellformed(model) if d.is_error]
    assert [d.code for d in errors] == [code]
    for refused in (compile_model, lambda m: compile_process(m, "RT"),
                    lambda m: check_axioms(m, ())):
        with pytest.raises(CompileError) as err:
            refused(model)
        assert err.value.diagnostics == errors


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
    doc = graph_to_json(graph)
    assert {p["name"]: p["mereology"] for p in doc["processes"]} == {"a": "set(BI)", "b": "empty"}
    # The printed signature writes the set as describe does.
    assert "a: AI × BI-set → in attr_X_ch out a_b_ch Unit" in print_process(graph).splitlines()


def test_component_and_material_attrs_have_no_channels():
    model = parse_ok("""
    part A { id AI; mereo empty; }
    component C { id CI; attr X : m reactive; }
    material G { attr Y : kg inert; }
    """)
    assert derive_channels(model) == ()


NO_MEREOLOGY = """part RT composite(A, B) { id RTI; mereo empty; }
part A { id AI; mereo empty; attr X : m reactive; }
part B { id BI; mereo empty; attr dX : rX programmable init 0; }
conversion a2rX : m -> rX = affine(1, 0);
axiom ax { display(B.dX) tracks (A.X via a2rX); }
"""

SHARED_BEHAVIOUR = """part RT composite(A, B) { id RTI; mereo empty; }
part A { behaviour twin; id AI; mereo empty; attr X : m reactive; }
part B { behaviour twin; id BI; mereo empty; attr Y : m reactive; }
"""

# The behaviours 'ab' and 'a_b' both have the prefix 'ab', at every length,
# so ab -> display and a_b -> display both derive 'ab_di_ch'.
AMBIGUOUS_CHANNEL = """part RT composite(sensor0, sensor1, display) { id RTI; mereo empty; }
part sensor0 { behaviour ab; id S0I; mereo DI; attr X : m reactive; }
part sensor1 { behaviour a_b; id S1I; mereo DI; attr Y : m reactive; }
part display { id DI; mereo S0I x S1I; attr dX : m programmable init 0; }
"""

# The relation S -> D derives 'attr_d_ch', which is also D's attribute channel.
ATTRIBUTE_CHANNEL = """part R composite(S, D) { id RI; mereo empty; }
part S { id SI; mereo DI; behaviour alpha_tango_tango_romeo; attr Y : m reactive; }
part D { id DI; mereo SI; attr d : m reactive; attr dY : m programmable init 0; }
axiom follow { display(D.dY) tracks (S.Y); }
"""


@pytest.mark.parametrize("text, code, message, span", [
    # The span is the source clause 'A.X via a2rX', not the whole axiom.
    (NO_MEREOLOGY, "E305", "axiom 'ax': source A has no channel to target B; "
                           "relate them in a mereology", (5, 34, 5, 43)),
    (SHARED_BEHAVIOUR, "E306", "parts 'A' and 'B' share the behaviour name 'twin'",
     (3, 1, 3, 68)),
    (AMBIGUOUS_CHANNEL, "E306", "derived channel name 'ab_di_ch' is ambiguous "
                                "between two relations", (3, 1, 3, 71)),
    (ATTRIBUTE_CHANNEL, "E306", "derived channel name 'attr_d_ch' is also an attribute "
                                "channel", (2, 1, 2, 84)),
], ids=["no-mereology", "shared-behaviour", "ambiguous-channel", "attribute-channel"])
def test_compile_refusal_code_message_and_span(text, code, message, span):
    model = parse_ok(text)
    expected = [(code, message, SourceSpan("<input>", *span))]
    with pytest.raises(CompileError) as err:
        compile_model(model)
    assert [(d.code, d.message, d.span) for d in err.value.diagnostics] == expected
    for diagnostics in (compile_preflight(model), check_wellformed(model)):
        assert [(d.code, d.message, d.span) for d in diagnostics] == expected
