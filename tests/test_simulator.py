import copy
import dataclasses
import hashlib
import io
import itertools
import json
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from domcalc import cli, compiler, simulator
from domcalc.analysis import check_wellformed
from domcalc.dsl import parse_model
from domcalc.model import RECEIVE, ConversionDecl, DomainModel
from domcalc.simulator import (
    EnvironmentScript,
    MissingInit,
    ScriptError,
    ScriptTrack,
    TraceEvent,
    UncoveredChannel,
    check_axioms,
    instantiate,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
    write_jsonl,
)
from domcalc.units import (
    DIMENSIONLESS, KindRegistry, Quantity, QuantityKind, fraction_str, parse_fraction)
from conftest import GOLDEN, oracle_budget, short_id
from modelgen import pairs_model, perturb_recursion_payload, random_model, random_script


def parse_ok(text):
    model, diagnostics = parse_model(text)
    assert not diagnostics, diagnostics
    return model


@pytest.fixture(scope="module")
def aircraft_script(aircraft_graph, aircraft_script_path):
    with open(aircraft_script_path, encoding="utf-8") as handle:
        return EnvironmentScript.from_json(json.load(handle), aircraft_graph)


def test_instantiate_aircraft(aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=0)
    assert len(config.graph.processes()) == 3


def test_uncovered_channel(aircraft_graph, aircraft_script):
    tracks = dict(aircraft_script.tracks)
    del tracks["attr_ACC_ch"]
    with pytest.raises(UncoveredChannel):
        instantiate(aircraft_graph, EnvironmentScript(tracks), seed=0)


def test_script_must_start_at_step_zero(aircraft_graph, aircraft_script):
    tracks = dict(aircraft_script.tracks)
    late = tracks["attr_LO_ch"]
    tracks["attr_LO_ch"] = ScriptTrack(tuple((s + 1, v) for s, v in late.points),
                                       late.cycle)
    with pytest.raises(ScriptError):
        instantiate(aircraft_graph, EnvironmentScript(tracks), seed=0)


def test_missing_biddable_init_is_refused_with_e303(capsys, tmp_path):
    # A run's recursion payload carries every controllable attribute, so
    # ``check`` refuses a biddable one without ``init``, as it does a
    # programmable one, and ``simulate`` never reaches ``instantiate``.
    source = """
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : rX programmable init 0; attr BD : m biddable; }
    conversion a2rX : m -> rX = affine(1, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    """
    expected = ("E303", "biddable attribute B.BD has no init value")
    model = parse_ok(source)
    assert [(d.code, d.message) for d in check_wellformed(model) if d.is_error] == [expected]
    with pytest.raises(compiler.CompileError) as err:
        compiler.compile_model(model)
    assert [(d.code, d.message) for d in err.value.diagnostics] == [expected]
    path = tmp_path / "bid.dom"
    path.write_text(source, encoding="utf-8")
    script = tmp_path / "bid.json"
    script.write_text('{"attr_X_ch": [[0, "1 m"]]}', encoding="utf-8")
    for argv in (["check", str(path)], ["simulate", str(path), "--script", str(script),
                                        "--steps", "5", "--seed", "0"]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "E303" in captured.err


def test_instantiate_refuses_a_hand_built_graph_without_init(aircraft_graph, aircraft_script):
    # ``compile_model`` refuses such a graph with E303; one built by hand
    # still meets ``instantiate``'s own check.
    def drop_inits(node):
        process = node.process and dataclasses.replace(node.process, init_values=())
        return dataclasses.replace(node, process=process,
                                   children=tuple(map(drop_inits, node.children)))

    graph = dataclasses.replace(aircraft_graph, root=drop_inits(aircraft_graph.root))
    with pytest.raises(MissingInit, match="display: controllable 'dLO' has no init value"):
        instantiate(graph, aircraft_script, seed=0)


def test_empty_graph_runs_to_empty_trace():
    graph = compiler.compile_model(parse_ok(""))
    config = instantiate(graph, EnvironmentScript({}), seed=0)
    assert run(config, 10) == ()


def test_zero_steps_empty_trace(aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=1)
    assert run(config, 0) == ()


def test_aircraft_payloads_follow_the_declared_conversions(
        aircraft_model, aircraft_graph, aircraft_script):
    # Oracle: apply the declared affine maps to the script values.
    registry = aircraft_graph.registry
    script_values = {name: track.points[0][1]
                     for name, track in aircraft_script.tracks.items()}

    def a2r(conv_name, channel):
        conv = aircraft_model.conversion(conv_name)
        return conv.apply(script_values[channel], registry.resolve(conv.to_kind))

    expected_po = (a2r("a2rLO", "attr_LO_ch"), a2r("a2rLA", "attr_LA_ch"),
                   a2r("a2rAL", "attr_AL_ch"))
    expected_td = (a2r("a2rVEL", "attr_VEL_ch"), a2r("a2rACC", "attr_ACC_ch"))
    assert [q.magnitude for q in expected_po] == [100, 550, 10000]
    assert [q.magnitude for q in expected_td] == [900, 0]

    config = instantiate(aircraft_graph, aircraft_script, seed=0)
    trace = run(config, 2)
    po_sends = [e for e in trace if e.kind == "send" and e.channel == "po_di_ch"]
    td_sends = [e for e in trace if e.kind == "send" and e.channel == "td_di_ch"]
    assert po_sends and po_sends[0].payload == expected_po
    assert td_sends and td_sends[0].payload == expected_td


def test_two_steps_cover_both_channels(aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=0)
    trace = run(config, 2)
    channels = {e.channel for e in trace if e.kind == "send"}
    assert channels == {"po_di_ch", "td_di_ch"}


def test_rerun_is_bit_identical(aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=5)
    assert run(config, 25) == run(config, 25)


def test_prefix_monotonicity(aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=2)
    short = run(config, 7)
    long = run(config, 19)
    assert long[:len(short)] == short


def test_independent_subgraphs_interleave_deterministically():
    model = parse_ok("""
    part RT composite(A, B, C, D) { id RTI; mereo empty; }
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : rX programmable init 0; }
    part C { id CI; mereo DI; attr Y : kg reactive; }
    part D { id DI; mereo CI; attr dY : rY programmable init 0; }
    conversion a2rX : m -> rX = affine(2, 0);
    conversion a2rY : kg -> rY = affine(3, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    axiom ay { display(D.dY) tracks (C.Y via a2rY); }
    """)
    graph = compiler.compile_model(model)
    script = random_script(random.Random(11), graph)
    config = instantiate(graph, script, seed=4)
    trace = run(config, 12)
    channels = {e.channel for e in trace if e.kind == "send"}
    assert channels == {"a_b_ch", "c_d_ch"}
    assert run(config, 12) == trace
    for verdict in check_axioms(model, trace):
        assert verdict.passed and verdict.checked > 0


def generated_traces_text() -> str:
    """sha256 of each generated run's JSONL trace followed by its verdict
    JSON.  The pair models enable many rendezvous at once, so these lines pin
    the seed rotation over the sorted (channel, sender) list."""
    models = [(f"random_model seed={seed}", random.Random(seed), None)
              for seed in range(40)]
    models += [(f"pairs_model n={n} seed={seed}", random.Random(seed), n)
               for n in (2, 5, 12) for seed in range(6)]
    lines = []
    for label, rng, n in models:
        model = random_model(rng) if n is None else pairs_model(rng, n)
        graph = compiler.compile_model(model)
        script = random_script(rng, graph)
        for run_seed in (0, 1, 5):
            config = instantiate(graph, script, seed=run_seed)
            for steps in (0, 7, 60):
                trace = run(config, steps)
                verdicts = simulator.verdicts_to_json(check_axioms(model, trace))
                digest = hashlib.sha256((trace_to_jsonl(trace) + json.dumps(
                    verdicts, sort_keys=True)).encode()).hexdigest()
                lines.append(f"{label} run_seed={run_seed} steps={steps} {digest}\n")
    return "".join(lines)


def test_generated_traces_golden():
    assert generated_traces_text() == (GOLDEN / "generated_traces.txt").read_text()


def test_pairs_model_is_wellformed_and_enables_every_pair():
    model = pairs_model(random.Random(3), 12)
    assert check_wellformed(model) == []
    graph = compiler.compile_model(model)
    trace = run(instantiate(graph, random_script(random.Random(3), graph), seed=0), 60)
    assert len({e.channel for e in trace if e.kind == "send"}) == 12


def test_rendezvous_conservation(aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=3)
    trace = run(config, 30)
    sends = [e for e in trace if e.kind == "send"]
    for send in sends:
        matches = [e for e in trace
                   if e.kind == "receive" and e.step == send.step
                   and e.channel == send.channel and e.payload == send.payload
                   and e.process != send.process]
        assert len(matches) == 1


def test_exhausted_script_deadlocks(aircraft_graph, aircraft_script_path):
    with open(aircraft_script_path, encoding="utf-8") as handle:
        raw = json.load(handle)
    finite = {name: [[0, entry["points"][0][1]]] for name, entry in raw.items()}
    script = EnvironmentScript.from_json(finite, aircraft_graph)
    config = instantiate(aircraft_graph, script, seed=0)
    trace = run(config, 50)
    assert trace[-1].kind == "deadlock"


def test_receiver_without_sender_deadlocks(aircraft_model):
    graph = compiler.compile_process(aircraft_model, "DP")
    config = instantiate(graph, EnvironmentScript({}), seed=0)
    trace = run(config, 5)
    assert trace[-1].kind == "deadlock"
    assert len(trace) == 1


def test_axioms_pass_untampered(aircraft_model, aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=9)
    trace = run(config, 40)
    (verdict,) = check_axioms(aircraft_model, trace)
    assert verdict.passed
    assert verdict.checked > 0


def test_axioms_fail_with_witness_on_tampered_trace(
        aircraft_model, aircraft_graph, aircraft_script):
    # Oracle for the witness: the perturbed event is the first recursion whose
    # controllables no longer equal the recomputed chain values.
    config = instantiate(aircraft_graph, aircraft_script, seed=9)
    trace = run(config, 40)
    tampered, event = perturb_recursion_payload(trace, random.Random(1), "display")
    (verdict,) = check_axioms(aircraft_model, tampered)
    assert not verdict.passed
    assert verdict.failing_step == event.step
    assert verdict.expected != verdict.actual


TWO_DISPLAYS = """
part RT composite(A, B, C, D) { id RTI; mereo empty; }
part A { id AI; mereo BI; attr X : m reactive; attr Y : s reactive; }
part B { id BI; mereo AI; attr dX : rX programmable init 0; attr dY : s programmable init 0; }
part C { id CI; mereo DI; attr Z : m reactive; }
part D { id DI; mereo CI; attr dZ : rZ programmable init 0; }
conversion a2rX : m -> rX = affine(10, 0);
conversion a2rZ : m -> rZ = affine(0.5, 3);
axiom ax { display(B.dX) tracks (A.X via a2rX); }
axiom ay { display(B.dY) tracks (A.Y); }
axiom az { display(D.dZ) tracks (C.Z via a2rZ); }
"""


def two_displays_trace():
    model = parse_ok(TWO_DISPLAYS)
    graph = compiler.compile_model(model)
    script = random_script(random.Random(3), graph)
    return model, run(instantiate(graph, script, seed=1), 12)


def test_verdicts_of_three_axioms_on_two_displays():
    # Bump dY in display b's third and fifth recursions (steps 6 and 10):
    # only ``ay`` fails, at its first failure, and the other two axioms go on
    # to the end of the trace.
    model, trace = two_displays_trace()
    events = list(trace)
    recursions = [i for i, e in enumerate(events)
                  if e.kind == "recursion" and e.process == "b"]
    for index in recursions[2], recursions[4]:
        event = events[index]
        dx, dy = event.payload
        events[index] = event._replace(payload=(dx, Quantity(dy.magnitude + 1, dy.kind)))
    verdicts = check_axioms(model, tuple(events))
    assert [(v.name, v.status, v.failing_step, [str(q) for q in v.expected],
             [str(q) for q in v.actual], v.checked) for v in verdicts] == [
        ("ax", "pass", None, [], [], 6),
        ("ay", "fail", 6, ["-521 s"], ["-520 s"], 3),
        ("az", "pass", None, [], [], 6),
    ]


def test_check_axioms_walks_the_trace_once():
    class CountingTrace(tuple):
        walks = 0

        def __iter__(self):
            CountingTrace.walks += 1
            return super().__iter__()

    model, trace = two_displays_trace()
    verdicts = check_axioms(model, CountingTrace(trace))
    assert len(verdicts) == 3 and all(v.passed for v in verdicts)
    assert CountingTrace.walks == 1


def unshared(events):
    """Each event rebuilt when asked for, with a fresh payload tuple of fresh
    ``Quantity`` objects: nothing in it is shared with any other event."""
    for event in events:
        yield event._replace(payload=tuple(Quantity(q.magnitude, q.kind) for q in event.payload))


def monitored_traces(aircraft_model, aircraft_graph, aircraft_script):
    """(model, trace) pairs: the aircraft at seeds 0-3 and a pairs model,
    each as run and with one display recursion tampered."""
    pairs = pairs_model(random.Random(5), 6)
    pairs_graph = compiler.compile_model(pairs)
    runs = [(aircraft_model, run(instantiate(aircraft_graph, aircraft_script, seed), 300),
             "display") for seed in range(4)]
    runs.append((pairs, run(instantiate(pairs_graph, random_script(random.Random(5), pairs_graph),
                                        seed=1), 200), "display_a_b"))
    for seed, (model, trace, display) in enumerate(runs):
        yield model, trace
        yield model, perturb_recursion_payload(trace, random.Random(seed), display)[0]


def test_monitor_verdicts_do_not_depend_on_shared_payloads(aircraft_model, aircraft_graph,
                                                           aircraft_script):
    statuses = set()
    for model, trace in monitored_traces(aircraft_model, aircraft_graph, aircraft_script):
        shared = simulator.verdicts_to_json(check_axioms(model, trace))
        assert shared["verdicts"] and all(v["checked"] for v in shared["verdicts"])
        assert simulator.verdicts_to_json(
            check_axioms(model, tuple(unshared(trace)))) == shared
        statuses.update(v["status"] for v in shared["verdicts"])
    assert statuses == {"pass", "fail"}


def test_monitor_verdicts_of_a_one_shot_event_generator(aircraft_model, aircraft_graph,
                                                        aircraft_script):
    # Events built on demand and dropped once checked: an id seen earlier in
    # the walk may belong to a new object by the time it is seen again.
    for model, trace in monitored_traces(aircraft_model, aircraft_graph, aircraft_script):
        assert check_axioms(model, unshared(trace)) == check_axioms(model, trace)


def test_reused_recursion_payload_after_its_source_changed_fails(
        aircraft_model, aircraft_graph, aircraft_script):
    # A display recursion payload object, checked once, reappears after a
    # receive has changed the value it must track: the check is decided
    # again, on the new source payload, and fails there.
    events = list(run(instantiate(aircraft_graph, aircraft_script, seed=0), 120))
    recursions = [i for i, e in enumerate(events)
                  if e.kind == "recursion" and e.process == "display"]
    reused = events[recursions[0]].payload
    later = next(i for i in recursions if events[i].payload != reused)
    stale = events[:later] + [events[later]._replace(payload=reused)] + events[later + 1:]
    copied = events[:later] + list(unshared([stale[later]])) + events[later + 1:]
    (verdict,) = check_axioms(aircraft_model, tuple(stale))
    assert (verdict.status, verdict.failing_step) == ("fail", events[later].step)
    assert verdict.expected == events[later].payload and verdict.actual == reused
    assert check_axioms(aircraft_model, tuple(copied)) == [verdict]


def test_no_axioms_no_verdicts():
    model = parse_ok("part A { id AI; mereo empty; attr X : m reactive; }")
    graph = compiler.compile_model(model)
    script = random_script(random.Random(0), graph)
    trace = run(instantiate(graph, script, seed=0), 3)
    assert check_axioms(model, trace) == []


def test_recursion_before_its_source_delivers_is_not_checked():
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : rX programmable init 0; }
    conversion a2rX : m -> rX = affine(2, 0);
    axiom ax { display(B.dX) tracks (A.X via a2rX); }
    """)
    rx = compiler.compile_model(model).registry.resolve("rX")
    zero, two, three = ((Quantity(Fraction(n), rx),) for n in (0, 2, 3))
    # b recurses on its init value before a_b_ch has carried anything.
    head = [TraceEvent(0, "recursion", None, "b", zero),
            TraceEvent(0, "send", "a_b_ch", "a", two),
            TraceEvent(0, "receive", "a_b_ch", "b", two)]
    (verdict,) = check_axioms(model, head + [TraceEvent(1, "recursion", None, "b", two)])
    assert (verdict.status, verdict.checked) == ("pass", 1)
    (verdict,) = check_axioms(model, head + [TraceEvent(1, "recursion", None, "b", three)])
    assert (verdict.status, verdict.failing_step, verdict.checked) == ("fail", 1, 1)
    assert (verdict.expected, verdict.actual) == (two, three)


def test_axiom_on_static_target_names_axiom_and_attribute(aircraft_path):
    text = aircraft_path.read_text(encoding="utf-8")
    model = parse_ok(text.replace("attr dLO : dLO programmable init 0;",
                                  "attr dLO : dLO static;"))
    assert [d.code for d in check_wellformed(model)] == ["E110"]
    cause = r"E110: axiom 'displays_track_recordings': target DP\.dLO must be programmable"
    with pytest.raises(compiler.CompileError, match=cause):
        check_axioms(model, ())


def test_chain_with_unknown_conversion_names_chain_and_conversion(aircraft_path):
    text = aircraft_path.read_text(encoding="utf-8")
    model = parse_ok(text.replace("PP.LO via a2rLO, r2dLO", "PP.LO via a2rLO, nosuch"))
    assert [d.code for d in check_wellformed(model)] == ["E112"]
    # Neither a run nor the monitor gets a graph: the compile refuses the chain.
    cause = r"E112: axiom 'displays_track_recordings': unknown conversion 'nosuch'"
    with pytest.raises(compiler.CompileError, match=cause):
        compiler.compile_model(model)
    with pytest.raises(compiler.CompileError, match=cause):
        check_axioms(model, ())


def _pair_model(f, g):
    """Two conversions declared inverse of each other, as affine coefficient texts."""
    return parse_ok(f"""
    conversion f : m -> q1 inverse g = affine({f});
    conversion g : q1 -> m inverse f = affine({g});
    """)


def test_conversion_roundtrip_aircraft(aircraft_model):
    # Ten conversions declare inverses (r2d/d2r pairs); each composes to the identity.
    paired = {c.name for c in aircraft_model.conversions if c.inverse_of}
    assert paired == {f"{p}{a}" for p in ("r2d", "d2r") for a in ("LO", "LA", "AL", "VEL", "ACC")}
    assert check_wellformed(aircraft_model) == []


def test_conversion_roundtrip_detects_mismatched_pair():
    # g after f is x -> 0.8 x: the scales disagree, so the registry warns that
    # g derives m on another scale (W211) and the pair is refused on each side.
    diagnostics = check_wellformed(_pair_model("2, 0", "0.4, 0"))
    assert [(d.code, d.message) for d in diagnostics] == [
        ("W211", "conversion 'g' derives 'm' on a different scale than its earlier "
                 "definition; keeping the first"),
        ("E116", "'g' after 'f' is x -> 0.8 x + 0, not the identity"),
        ("E116", "'f' after 'g' is x -> 0.8 x + 0, not the identity"),
    ]
    # The scales are inverse, so the kinds agree and no W211 is given; the
    # offsets are not: g after f is x -> x + 1/2.
    diagnostics = check_wellformed(_pair_model("2, 1", "0.5, 0"))
    assert [(d.code, d.message) for d in diagnostics] == [
        ("E116", "'g' after 'f' is x -> 1 x + 0.5, not the identity"),
        ("E116", "'f' after 'g' is x -> 1 x + 1, not the identity"),
    ]


def test_exact_roundtrip_pair_passes():
    assert check_wellformed(_pair_model("2, 0", "0.5, 0")) == []
    assert check_wellformed(_pair_model("1.8, 32", "5/9, -160/9")) == []


_RATIONALS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=1000)


@settings(max_examples=200, deadline=None)
@given(st.tuples(_RATIONALS.filter(bool), _RATIONALS),
       st.tuples(_RATIONALS.filter(bool), _RATIONALS), st.booleans())
def test_inverse_pair_is_refused_exactly_when_apply_does_not_return(f, g, exact):
    if exact:  # half of the pairs are declared with f's exact inverse
        g = (1 / f[0], -f[1] / f[0])
    model = _pair_model(f"{f[0]}, {f[1]}", f"{g[0]}, {g[1]}")
    conv_f, conv_g = model.conversions
    kind = QuantityKind("k", DIMENSIONLESS)
    # Two distinct points decide an affine map; check g after f on both.
    returns = all(conv_g.apply(conv_f.apply(Quantity(Fraction(x), kind), kind), kind).magnitude
                  == x for x in (0, 1))
    codes = [d.code for d in check_wellformed(model)]
    assert ("E116" in codes) == (not returns)
    assert codes.count("E116") in (0, 2)


def test_trace_jsonl_roundtrip(aircraft_graph, aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=6)
    trace = run(config, 12)
    text = trace_to_jsonl(trace)
    assert trace_from_jsonl(text, aircraft_graph.registry) == trace


def test_trace_event_surface():
    kind = QuantityKind("q", DIMENSIONLESS)
    payload = (Quantity(Fraction(3, 2), kind),)
    event = TraceEvent(4, "send", "ch", "proc", payload)
    twin = TraceEvent(step=4, kind="send", channel="ch", process="proc",
                      payload=(Quantity(Fraction(3, 2), kind),))
    assert event == twin
    assert hash(event) == hash(twin)
    assert event != TraceEvent(5, "send", "ch", "proc", payload)
    assert TraceEvent(0, "deadlock", None, "").payload == ()
    # The reads the benchmark's independent checker makes.
    assert (event.step, event.kind, event.channel, event.process,
            tuple(q.magnitude for q in event.payload)) == (4, "send", "ch", "proc",
                                                            (Fraction(3, 2),))
    for field_name in ("step", "kind", "channel", "process", "payload"):
        with pytest.raises(AttributeError):
            setattr(event, field_name, None)


def test_aircraft_trace_shares_payload_quantities(aircraft_graph, aircraft_script):
    # Every payload value is a chain map applied to a script point or an init
    # value, so the distinct objects are bounded by points x chains, not steps.
    def distinct_quantities(steps):
        trace = run(instantiate(aircraft_graph, aircraft_script, seed=0), steps)
        return len({id(q) for event in trace for q in event.payload})

    assert distinct_quantities(1200) == distinct_quantities(2400)


def test_aircraft_trace_shares_payload_tuples(aircraft_graph, aircraft_script):
    # One payload tuple per distinct message, however long the run; the
    # writer formats each distinct (kind, channel, process, payload) once.
    def run_events(steps):
        return list(run(instantiate(aircraft_graph, aircraft_script, seed=0), steps))

    short, events = run_events(1200), run_events(2400)
    assert len({id(e.payload) for e in short}) == len({id(e.payload) for e in events})
    assert len({id(e.payload) for e in events}) < len(events) // 100
    # Each send is followed by its receive, which carries the very same tuple.
    sends = [at for at, event in enumerate(events) if event.kind == "send"]
    assert len(sends) == 2400
    for at in sends:
        send, receive = events[at], events[at + 1]
        assert (receive.kind, receive.step, receive.channel) == ("receive", send.step,
                                                                  send.channel)
        assert receive.payload is send.payload


def test_generated_models_run_and_pass(aircraft_model):
    for seed in range(30):
        rng = random.Random(seed)
        model = random_model(rng)
        graph = compiler.compile_model(model)
        script = random_script(rng, graph)
        trace = run(instantiate(graph, script, seed=seed), 15)
        for verdict in check_axioms(model, trace):
            assert verdict.passed, (seed, verdict)


def test_tampered_receive_payload_also_fails(aircraft_model, aircraft_graph,
                                             aircraft_script):
    from domcalc.units import Quantity

    config = instantiate(aircraft_graph, aircraft_script, seed=2)
    trace = run(config, 30)
    events = list(trace)
    index = next(i for i, e in enumerate(events)
                 if e.kind == "receive" and e.process == "display"
                 and e.channel == "po_di_ch")
    event = events[index]
    bumped = Quantity(event.payload[0].magnitude + 1, event.payload[0].kind)
    events[index] = simulator.TraceEvent(
        event.step, event.kind, event.channel, event.process,
        (bumped,) + event.payload[1:])
    (verdict,) = check_axioms(aircraft_model, tuple(events))
    assert not verdict.passed
    assert verdict.failing_step >= event.step


def test_chainless_axiom_tracks_raw_values():
    # An empty via-chain pins the raw attribute value on the wire, even when
    # an unrelated conversion from the same kind exists.
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo BI; attr X : m reactive; }
    part B { id BI; mereo AI; attr dX : m programmable init 0; }
    conversion stray : m -> elsewhere = affine(7, 0);
    axiom ax { display(B.dX) tracks (A.X); }
    """)
    graph = compiler.compile_model(model)
    assert graph.channel("a_b_ch").kinds == ("m",)
    script = random_script(random.Random(0), graph)
    trace = run(instantiate(graph, script, seed=0), 10)
    (verdict,) = check_axioms(model, trace)
    assert verdict.passed and verdict.checked > 0
    sends = [e for e in trace if e.kind == "send" and e.channel == "a_b_ch"]
    reads = [e for e in trace if e.kind == "receive" and e.channel == "attr_X_ch"]
    assert sends[0].payload[0].magnitude == reads[0].payload[0].magnitude


def replay_oracle(model, graph, trace):
    # Independent recomputation from the trace alone: every message sent on a
    # mereology channel must equal the declared conversions applied to the
    # sender's latest received external-attribute values at that point.
    registry = graph.registry
    processes = {p.name: p for p in graph.processes()}
    latest = {}
    checked = 0
    for event in trace:
        if event.kind == "receive" and event.channel and event.channel.startswith("attr_"):
            latest[(event.process, event.channel)] = event.payload[0]
        if event.kind != "send":
            continue
        sender = processes[event.process]
        assert event.channel in sender.signature.out_channels
        expected = []
        for attr, conv_name in sender.body.wire:
            value = latest[(event.process, f"attr_{attr}_ch")]
            if conv_name is not None:
                conv = model.conversion(conv_name)
                value = conv.apply(value, registry.resolve(conv.to_kind))
            expected.append(value)
        assert tuple(expected) == event.payload, event
        checked += 1
    return checked


def test_one_action_tuple_drives_the_printer_and_the_run(aircraft_graph, aircraft_script):
    # Swap the display's two receives in its signature alone: the printed
    # cycle and the run both follow the one tuple.
    def swap(node):
        process = node.process
        if process is not None and process.name == "display":
            assert [op for op, _ in process.signature.actions] == [RECEIVE, RECEIVE]
            process = dataclasses.replace(process, signature=dataclasses.replace(
                process.signature, actions=process.signature.actions[::-1]))
        return dataclasses.replace(node, process=process, children=tuple(map(swap, node.children)))

    def first_display_receive(graph):
        trace = run(instantiate(graph, aircraft_script, seed=0), 10)
        return next(e.channel for e in trace if e.kind == RECEIVE and e.process == "display")

    swapped = dataclasses.replace(aircraft_graph, root=swap(aircraft_graph.root))
    assert "let (td_d′,po_d′) = (td_di_ch?,po_di_ch?)" in compiler.print_process(swapped)
    assert first_display_receive(aircraft_graph) == "po_di_ch"
    assert first_display_receive(swapped) == "td_di_ch"


def test_sends_match_replay_oracle_aircraft(aircraft_model, aircraft_graph,
                                            aircraft_script):
    config = instantiate(aircraft_graph, aircraft_script, seed=13)
    trace = run(config, 40)
    assert replay_oracle(aircraft_model, aircraft_graph, trace) >= 20


def test_sends_match_replay_oracle_generated():
    total = 0
    for seed in range(25):
        rng = random.Random(seed)
        model = random_model(rng)
        graph = compiler.compile_model(model)
        script = random_script(rng, graph)
        trace = run(instantiate(graph, script, seed=seed), 12)
        total += replay_oracle(model, graph, trace)
    assert total > 0


def test_always_core_spinner_keeps_run_deterministic(aircraft_model, aircraft_script):
    graph = compiler.compile_process(aircraft_model, "AC", always_core=True)
    config = instantiate(graph, aircraft_script, seed=1)
    first = run(config, 10)
    assert first == run(config, 10)
    assert any(e.kind == "recursion" and e.process == "ac" for e in first)


def test_declared_channel_with_no_payload_runs():
    model = parse_ok("""
    part RT composite(A, B) { id RTI; mereo empty; }
    part A { id AI; mereo BI; }
    part B { id BI; mereo AI; attr dX : m programmable init 0; }
    channel a_b_ch : m;
    """)
    graph = compiler.compile_model(model)
    config = instantiate(graph, EnvironmentScript({}), seed=0)
    trace = run(config, 5)
    sends = [e for e in trace if e.kind == "send"]
    assert sends and all(e.payload == () for e in sends)
    assert run(config, 5) == trace


def test_script_value_beyond_unit_bounds_is_script_error(aircraft_graph):
    with pytest.raises(ScriptError, match="exponent"):
        EnvironmentScript.from_json({"attr_AL_ch": [[0, "1 km^100000000"]]}, aircraft_graph)


@pytest.mark.parametrize("value, cause", [("1/0", "zero denominator"),
                                          ("5 m/0", "zero factor")])
def test_script_zero_divisor_is_script_error(aircraft_graph, value, cause):
    with pytest.raises(ScriptError, match=cause):
        EnvironmentScript.from_json({"attr_AL_ch": [[0, value]]}, aircraft_graph)


@pytest.mark.parametrize("step", [2.7, "3", True, False, None, [1]])
def test_script_step_must_be_a_json_integer(aircraft_graph, step):
    with pytest.raises(ScriptError, match="not an integer"):
        EnvironmentScript.from_json(
            {"attr_AL_ch": [[0, "1 m"], [step, "2 m"]]}, aircraft_graph)


@pytest.mark.parametrize("data, message", [
    ({"attr_NOPE_ch": [[0, "1 m"]]}, "script names unknown channel 'attr_NOPE_ch'"),
    ({"po_di_ch": [[0, "1 m"]]}, "channel 'po_di_ch' is not an external-attribute channel"),
    ({"attr_AL_ch": [[0]]}, "'attr_AL_ch': points must be [step, \"value\"] pairs"),
    ({"attr_AL_ch": [[0, 5]]}, "'attr_AL_ch': points must be [step, \"value\"] pairs"),
    ({"attr_AL_ch": {"cycle": 2}}, "'attr_AL_ch': points must be [step, \"value\"] pairs"),
    ({"attr_AL_ch": "0 m"}, "'attr_AL_ch': points must be [step, \"value\"] pairs"),
    ({"attr_AL_ch": {"points": [[0, "1 m"], [45, "2 m"]], "cycle": 40}},
     "'attr_AL_ch': point at step 45 is never read, as the track repeats with cycle 40"),
    ({"attr_AL_ch": {"points": [[0, "1 m"], [40, "2 m"]], "cycle": 40}},
     "'attr_AL_ch': point at step 40 is never read, as the track repeats with cycle 40"),
    ({"attr_AL_ch": [[3, "2 m"], [0, "10 m"], [3, "2.0 m"], [0, "20 m"]]},
     "'attr_AL_ch': two values at step 0: 10 point m and 20 point m"),
], ids=["unknown", "not-external", "short-point", "number-value", "no-points", "string",
        "past-cycle", "at-cycle", "two-values"])
def test_script_channel_and_points_are_checked(aircraft_graph, data, message):
    with pytest.raises(ScriptError) as err:
        EnvironmentScript.from_json(data, aircraft_graph)
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["1e5000 m", "1e10000000 m", "1e-5000", "1" * 5000],
                         ids=short_id)
def test_script_value_literal_beyond_bound_is_script_error(aircraft_graph, value):
    started = time.perf_counter()
    with pytest.raises(ScriptError, match="beyond 4096 bits"):
        EnvironmentScript.from_json({"attr_AL_ch": [[0, value]]}, aircraft_graph)
    assert time.perf_counter() - started < 0.5


def test_jsonl_writer_formats_each_quantity_once(aircraft_graph, aircraft_script,
                                                 monkeypatch):
    trace = run(instantiate(aircraft_graph, aircraft_script, seed=0), 30)
    expected = trace_to_jsonl(trace)
    calls = []
    monkeypatch.setattr(simulator, "fraction_str",
                        lambda value: calls.append(value) or fraction_str(value))
    assert trace_to_jsonl(trace) == expected
    assert len(calls) == len({id(q) for event in trace for q in event.payload})


def test_jsonl_writer_writes_each_line_before_passing_its_event_on(
        aircraft_graph, aircraft_script):
    trace = list(run(instantiate(aircraft_graph, aircraft_script, seed=0), 30))
    buffer = io.StringIO()
    events = write_jsonl(trace, buffer)
    for k, event in enumerate(trace, 1):
        assert next(events) is event
        assert buffer.getvalue().count("\n") == k
    assert next(events, None) is None
    assert buffer.getvalue() == trace_to_jsonl(trace)


def test_compiled_graph_deep_copies_and_pickles(aircraft_model, aircraft_script_path):
    graph = compiler.compile_model(aircraft_model)
    graph.channel("po_di_ch")  # fills the graph's by-name index
    with open(aircraft_script_path, encoding="utf-8") as handle:
        data = json.load(handle)

    def trace_of(graph):
        script = EnvironmentScript.from_json(data, graph)
        return run(instantiate(graph, script, seed=1), 200)

    expected = trace_of(graph)
    for twin in copy.deepcopy(graph), pickle.loads(pickle.dumps(graph)):
        assert twin == graph and twin.model == aircraft_model
        assert twin.registry.kinds() == graph.registry.kinds()
        trace = trace_of(twin)
        assert trace == expected and trace_to_jsonl(trace) == trace_to_jsonl(expected)


def test_instantiate_rejects_wrong_kind_values(aircraft_graph):
    from fractions import Fraction
    from domcalc.units import Quantity

    registry = aircraft_graph.registry
    wrong = registry.resolve("kg")
    tracks = {c.name: ScriptTrack(((0, Quantity(Fraction(1), wrong)),))
              for c in aircraft_graph.channels if c.external}
    with pytest.raises(ScriptError):
        instantiate(aircraft_graph, EnvironmentScript(tracks), seed=0)


# sha256 of the bundled aircraft's JSONL trace followed by its verdict JSON,
# written from the code before conversion chains were composed and the JSONL
# writer stopped calling json.dumps.  Unlike generated_traces.txt these cover
# the corpus's role-marked kinds (``point deg``, ``interval m/s^2``) and
# decimal script values such as "0.5".
AIRCRAFT_TRACE_DIGESTS = {
    (0, 0): "a125493202304ac63987a1b7525f261dd7134457bb20463f8faad85f987e576b",
    (0, 1): "f443a7c1ad1705c78620c199cf407d3dd7099c7e9112a55140cd31a1c8fedfdf",
    (0, 2000): "7776066bcc45347d31e3f0f9990cc3183d363df5be3335a960cd0667229cd2fb",
    (3, 0): "a125493202304ac63987a1b7525f261dd7134457bb20463f8faad85f987e576b",
    (3, 1): "f443a7c1ad1705c78620c199cf407d3dd7099c7e9112a55140cd31a1c8fedfdf",
    (3, 2000): "7776066bcc45347d31e3f0f9990cc3183d363df5be3335a960cd0667229cd2fb",
}


def aircraft_trace_digest(model, graph, script, seed, steps):
    trace = run(instantiate(graph, script, seed=seed), steps)
    verdicts = simulator.verdicts_to_json(check_axioms(model, trace))
    return hashlib.sha256((trace_to_jsonl(trace) + json.dumps(
        verdicts, sort_keys=True)).encode()).hexdigest()


@pytest.mark.parametrize("seed, steps", sorted(AIRCRAFT_TRACE_DIGESTS))
def test_aircraft_trace_digest(aircraft_model, aircraft_graph, aircraft_script, seed, steps):
    digest = aircraft_trace_digest(aircraft_model, aircraft_graph, aircraft_script,
                                   seed, steps)
    assert digest == AIRCRAFT_TRACE_DIGESTS[seed, steps]


_coefficients = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(10),
                     Fraction(1, 10), Fraction(-5, 2)]),
    st.fractions(max_denominator=1000))


@settings(max_examples=300, deadline=None)
@given(links=st.lists(st.tuples(_coefficients, _coefficients), max_size=4),
       start=st.fractions(max_denominator=10 ** 6))
def test_composed_chain_equals_stepwise_apply(links, start):
    # Oracle: apply each declared conversion in turn, resolving every link's
    # target kind, as the chain reads in the source.
    registry = KindRegistry(QuantityKind(f"q{i}", DIMENSIONLESS)
                            for i in range(len(links) + 1))
    convs = tuple(ConversionDecl(f"c{i}", f"q{i}", f"q{i + 1}", scale, offset)
                  for i, (scale, offset) in enumerate(links))
    model = DomainModel(conversions=convs)
    value = Quantity(start, registry.resolve("q0"))
    expected = value
    for conv in convs:
        expected = conv.apply(expected, registry.resolve(conv.to_kind))
    # The chain's map: the same object twice, then an equal but distinct one.
    apply = simulator._chain_apply(model, registry, tuple(c.name for c in convs))
    first, again, twin = apply(value), apply(value), apply(Quantity(start, value.kind))
    for result in (first, again, twin):
        assert result.magnitude == expected.magnitude
        assert result.kind is expected.kind
        assert result == expected


def test_composed_identity_chain_relabels_kind(aircraft_model, aircraft_graph):
    registry = aircraft_graph.registry
    value = Quantity(Fraction("10.2"), registry.resolve("point deg"))
    shown = simulator._chain_apply(aircraft_model, registry, ("a2rLO", "r2dLO"))(value)
    assert shown == Quantity(Fraction("10.2"), registry.resolve("dLO"))
    assert simulator._chain_apply(aircraft_model, registry, ())(value) is value


def reference_jsonl(trace):
    # The writer as it was: one json.dumps(sort_keys=True) per event.
    return "".join(json.dumps({
        "step": event.step,
        "kind": event.kind,
        "channel": event.channel,
        "process": event.process,
        "payload": [{"kind": q.kind.name, "value": fraction_str(q.magnitude)}
                    for q in event.payload],
    }, sort_keys=True) + "\n" for event in trace)


def test_jsonl_writer_matches_json_dumps_reference():
    def kind(name):
        return QuantityKind(name, DIMENSIONLESS)

    quote, slash, wide = kind('say "hi"'), kind("back\\slash/"), kind("Ωmega µs 🚀")
    control = kind("tab\there\nnl\x01\x7f")
    events = (
        TraceEvent(0, "receive", "attr_X_ch", "sensor", (Quantity(Fraction(-7), quote),)),
        TraceEvent(0, "send", 'ch"q', "proc\\1", (
            Quantity(Fraction(22, 7), slash), Quantity(Fraction(-1, 3), wide),
            Quantity(Fraction("-0.5"), control), Quantity(Fraction(10 ** 40 + 1), quote),
            Quantity(Fraction(-(10 ** 30), 2 ** 20), slash), Quantity(Fraction(0), wide))),
        TraceEvent(1, "recursion", None, "dísplay", ()),
        TraceEvent(2 ** 70, "receive", "ümlaut_ch", "😀", (Quantity(Fraction(1, 3), wide),)),
        TraceEvent(3, "deadlock", None, ""),
    )
    assert trace_to_jsonl(events) == reference_jsonl(events)
    assert trace_to_jsonl(()) == ""


@settings(max_examples=200, deadline=None)
@given(names=st.lists(st.text(max_size=8), min_size=4, max_size=4),
       magnitude=st.fractions(), step=st.integers(min_value=0))
def test_jsonl_writer_matches_reference_on_any_text(names, magnitude, step):
    channel, process, kind_name, event_kind = names
    payload = (Quantity(magnitude, QuantityKind(kind_name, DIMENSIONLESS)),)
    trace = (TraceEvent(step, event_kind, channel, process, payload),
             TraceEvent(step, event_kind, None, process, payload * 2))
    assert trace_to_jsonl(trace) == reference_jsonl(trace)


def test_jsonl_reader_keeps_equal_values_of_different_kinds_apart(aircraft_graph):
    registry = aircraft_graph.registry
    rlo, rla = registry.resolve("rLO"), registry.resolve("rLA")
    events = tuple(
        TraceEvent(step, "send", "po_di_ch", "position",
                   (Quantity(Fraction(100), rlo), Quantity(Fraction(100), rla),
                    Quantity(Fraction(100), rlo)))
        for step in range(3))
    back = trace_from_jsonl(trace_to_jsonl(events), registry)
    assert back == events
    for event in back:
        assert [q.kind for q in event.payload] == [rlo, rla, rlo]


def test_jsonl_reader_raises_on_first_bad_value(aircraft_graph):
    good = '{"channel": null, "kind": "recursion", "payload": [{"kind": "rLO", ' \
           '"value": "%s"}], "process": "display", "step": 0}\n'
    with pytest.raises(ValueError, match="abc"):
        trace_from_jsonl(good % "1.5" + good % "1.5" + good % "abc",
                         aircraft_graph.registry)


def oracle_trace_from_jsonl(text, registry):
    # The reader as it was: one json.loads per line.
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        payload = tuple(Quantity(parse_fraction(p["value"]), registry.resolve(p["kind"]))
                        for p in data["payload"])
        events.append(TraceEvent(data["step"], data["kind"], data["channel"],
                                 data["process"], payload))
    return tuple(events)


def _line(step, process="position", tail=""):
    # A send line as the writer spells it, with ``tail`` after the step.
    return ('{"channel": "po_di_ch", "kind": "send", "payload": [{"kind": "rLO", '
            f'"value": "3/2"}}, {{"kind": "point deg", "value": "-1"}}], '
            f'"process": {json.dumps(process)}, "step": {step}{tail}}}')


def _raw(process, step):
    # A recursion line with ``process`` put between the quotes as it is.
    return f'{{"channel": null, "kind": "recursion", "payload": [], "process": "{process}", ' \
           f'"step": {step}}}'


READER_VALID_TEXTS = {
    "repeated": "\n".join(_line(step) for step in (0, 1, 2, 10, 0, 2 ** 70)) + "\n",
    "no final newline": _line(3) + "\n" + _line(4),
    "keys reordered": '{"step": 4, "process": "p", "payload": [], "kind": "send", '
                      '"channel": null}\n'
                      '{"step": 5, "process": "p", "payload": [], "kind": "send", '
                      '"channel": null}\n' + _line(6) + "\n" + _line(7),
    "no spaces": '{"channel":null,"kind":"send","payload":[],"process":"p","step":3}\n' * 2,
    "extra spaces": '  {"channel": null ,  "kind": "send", "payload": [ ], "process": "p" ,'
                    ' "step": 3 }\n' + _line(1) + "\n" + _line(2).replace('"step": ',
                                                                       '"step":  ') + "\n"
                    + _line(8).replace("8}", "8 }"),
    "trailing spaces": _line(4) + "\n" + _line(5) + "   \n" + _line(6) + "\t\n",
    "crlf": _line(1) + "\r\n" + _line(2) + "\r\n" + _line(3) + "\r\n",
    "blank lines": "\n\n" + _line(1) + "\n   \n\t\n" + _line(2) + "\n\n",
    "duplicate step key": _line(3, tail=', "step": 5') + "\n" + _line(3, tail=', "step": 6')
                          + "\n" + _line(4, tail=', "step": 0'),
    "step text in a process name": _line(1, 'x, "step": 1}') + "\n" + _line(2, 'x, "step": 1}')
                                   + "\n" + _raw('y, \\"step\\": 2}', 3)
                                   + "\n" + _raw('y, \\"step\\": 2}', 4),
    "a key after the step": _line(5, tail=', "process": "q"') + "\n" + _line(6) + "\n"
                            + _line(7, tail=', "process": "q"'),
    "escapes": "\n".join(_line(step, name) for name in ('say "hi"', "back\\slash", "µs",
                                                         "line\u2028sep", "tab\t")
                         for step in (1, 2)) + "\n",
    "raw non-ascii": "\n".join(_raw(name, step) for name in ("µs", "Ωmega", "\\u00b5s")
                               for step in (0, 9)),
}


@pytest.mark.parametrize("name", sorted(READER_VALID_TEXTS))
def test_jsonl_reader_matches_json_loads_oracle(aircraft_graph, name):
    text = READER_VALID_TEXTS[name]
    back = trace_from_jsonl(text, aircraft_graph.registry)
    assert back == oracle_trace_from_jsonl(text, aircraft_graph.registry)
    assert all(type(event) is TraceEvent for event in back)


# Lines whose head repeats an earlier line's but whose step is not plain
# digits or lacks its closing brace, and a raw U+2028, which splits its line.
READER_ODD_TEXTS = {
    f"step {step} after 7{label}": _line(7, process) + "\n" + _line(step, process) + "\n"
    for step in ("07", "-7", "7.0", "1e3", "٣", "true", '"7"', "7}", "7, ", "0x7", "7_0", "+7")
    for label, process in (("", "position"), (", U+2028 process", "\u2028"))}
READER_ODD_TEXTS["no closing brace"] = _line(7) + "\n" + _line(71)[:-1] + "\n"
READER_ODD_TEXTS["raw U+2028"] = _raw("a\u2028b", 1) + "\n" + _raw("a\u2028b", 2)
# The same steps after A@7, B@7, A@8, B@8: a repeated head after another
# repeated head, as in a trace that cycles through its heads.
READER_ODD_TEXTS.update({
    f"step {step} after a predicting line": "".join(
        _line(at, process) + "\n" for at in (7, 8) for process in ("position", "display"))
    + _line(step) + "\n"
    for step in ("07", "-7", "7.0", "1e3", "٣", "true", '"7"', "7}", "7, ", "0x7", "7_0", "+7")})


@pytest.mark.parametrize("name", sorted(READER_ODD_TEXTS))
def test_jsonl_reader_ends_as_under_oracle(aircraft_graph, name):
    # The same events as json.loads gives, or a ValueError where the oracle
    # raises or yields an event with a step that no trace can hold.
    text = READER_ODD_TEXTS[name]

    def ending(reader):
        try:
            return reader(text, aircraft_graph.registry)
        except ValueError:
            return ValueError

    expected, back = ending(oracle_trace_from_jsonl), ending(trace_from_jsonl)
    if back is ValueError:
        assert expected is ValueError or not all(
            type(event.step) is int and event.step >= 0 for event in expected)
    else:
        assert back == expected


@oracle_budget(100)
@given(data=st.data(),
       heads=st.lists(st.tuples(st.sampled_from(["send", "receive", "recursion", "deadlock"]),
                                st.one_of(st.none(), st.text(max_size=6)),
                                st.text(max_size=6),
                                st.lists(st.fractions(), max_size=3)),
                      min_size=1, max_size=5),
       length=st.integers(min_value=0, max_value=30))
def test_jsonl_roundtrip_with_repeated_and_distinct_heads(aircraft_graph, data, heads,
                                                          length):
    registry = aircraft_graph.registry
    kinds = registry.kinds()
    heads = [(kind, channel, process,
              tuple(Quantity(m, data.draw(st.sampled_from(kinds))) for m in magnitudes))
             for kind, channel, process, magnitudes in heads]
    steps = st.one_of(st.integers(min_value=0, max_value=12), st.integers(min_value=0))
    trace = tuple(
        TraceEvent(data.draw(steps), *data.draw(st.sampled_from(heads)))
        for _ in range(length))
    back = trace_from_jsonl(trace_to_jsonl(trace), registry)
    assert back == trace
    assert all(type(event) is TraceEvent for event in back)


_GOOD = _line(0)
READER_BAD_LINES = {
    "array": "[1]",
    "string": '"text"',
    "not json": "{",
    "missing payload": '{"channel": null, "kind": "send", "process": "p", "step": 0}',
    "missing step": '{"channel": null, "kind": "send", "payload": [], "process": "p"}',
    "payload string item": _GOOD.replace('[{"kind": "rLO", "value": "3/2"}, ', '["x", '),
    "payload array item": _GOOD.replace('[{"kind": "rLO", "value": "3/2"}, ', "[[1], "),
    "payload not a list": '{"channel": null, "kind": "send", "payload": {}, "process": "p", '
                          '"step": 0}',
    "value not a string": _GOOD.replace('"3/2"', "3"),
    "kind of value not a string": _GOOD.replace('"rLO"', "7"),
    "item without value": _GOOD.replace(', "value": "3/2"', ""),
    "step string": _line('"abc"'),
    "step negative": _line(-3),
    "step float": _line(1.5),
    "step bool": _line("true"),
    "step leading zero": _line("07"),
    "kind not a string": _GOOD.replace('"kind": "send"', '"kind": 7'),
    "channel number": _GOOD.replace('"channel": "po_di_ch"', '"channel": 5'),
    "process null": _line(0, None),
    "bad value": _GOOD.replace('"3/2"', '"abc"'),
    "unknown kind": _GOOD.replace('"rLO"', '"nosuch_kind"'),
    "deep nesting": "[" * 100000 + "]" * 100000,
    "deep nesting in payload": _GOOD.replace('"payload": [', '"payload": [' + "[" * 100000)
                                     .replace('}], "process"', "}" + "]" * 100001 + ', "process"'),
}


@pytest.mark.parametrize("name", sorted(READER_BAD_LINES))
def test_jsonl_reader_names_the_malformed_line(aircraft_graph, name):
    text = f"{_GOOD}\n\n{READER_BAD_LINES[name]}\n{_GOOD}\n"
    with pytest.raises(ValueError, match=r"^line 3: "):
        trace_from_jsonl(text, aircraft_graph.registry)


def _read_or_message(text, registry):
    try:
        return trace_from_jsonl(text, registry)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("piece", [1, 2, 3, 7, 64])
def test_jsonl_reader_reads_the_same_in_any_piece_size(aircraft_graph, aircraft_script,
                                                       monkeypatch, piece):
    # Pieces shorter than a line, over CRLF endings, blank lines, a raw
    # U+2028 and a text with no final newline, give the events and the line
    # numbers of errors that the whole text gives.
    registry = aircraft_graph.registry
    aircraft = run(instantiate(aircraft_graph, aircraft_script, seed=0), 2000)
    texts = {**READER_VALID_TEXTS, **READER_ODD_TEXTS, "aircraft": trace_to_jsonl(aircraft),
             **{f"bad {name}": f"{_GOOD}\n\n{line}\n{_GOOD}\n"
                for name, line in READER_BAD_LINES.items()}}
    expected = {name: _read_or_message(text, registry) for name, text in texts.items()}
    assert expected["aircraft"] == aircraft
    monkeypatch.setattr(simulator, "PIECE_CHARS", piece)
    for name, text in texts.items():
        back = _read_or_message(text, registry)
        assert back == expected[name], name
        if name in READER_VALID_TEXTS:
            assert back == oracle_trace_from_jsonl(text, registry), name
        elif name in READER_ODD_TEXTS:
            try:
                oracle = oracle_trace_from_jsonl(text, registry)
            except ValueError:
                oracle = ValueError
            if type(back) is str:
                assert oracle is ValueError or not all(
                    type(event.step) is int and event.step >= 0 for event in oracle), name
            else:
                assert back == oracle, name
        elif name != "aircraft":
            assert back.startswith("line 3: "), name


# The piece sizes above, and the reader's own.
READER_PIECE_SIZES = [1, 2, 3, 7, 64, simulator.PIECE_CHARS]


def _oracle_or_line(text, registry):
    # The oracle's events, or "line N" for the first line that it refuses or
    # whose event has a field of a type that no trace holds.
    events = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            (event,) = oracle_trace_from_jsonl(line, registry)
        except (ValueError, KeyError, TypeError):  # bad JSON, a missing key, item or value
            return f"line {number}"
        if not (type(event.step) is int and event.step >= 0 and type(event.kind) is str
                and type(event.process) is str
                and (event.channel is None or type(event.channel) is str)):
            return f"line {number}"
        events.append(event)
    return tuple(events)


def _read_all_sizes(text, registry):
    # The events, or the "line N" of the error, read at every piece size.
    results = []
    for piece in READER_PIECE_SIZES:
        saved, simulator.PIECE_CHARS = simulator.PIECE_CHARS, piece
        try:
            back = trace_from_jsonl(text, registry)
        except ValueError as exc:
            back = str(exc).partition(":")[0]
        finally:
            simulator.PIECE_CHARS = saved
        results.append(back)
    return results


def _windowed(heads, prefix, window, period, copies, tail=0):
    # The writer's text of the ``prefix`` events, then ``copies`` copies of
    # the ``window`` events, each ``period`` steps after the one before,
    # then the first ``tail`` events of one more.  An event is (step, index
    # into heads).
    events = [*prefix, *((step + k * period, head) for k in range(copies)
                          for step, head in window),
              *((step + copies * period, head) for step, head in window[:tail])]
    return trace_to_jsonl(TraceEvent(step, *heads[head]) for step, head in events)


@pytest.fixture(scope="module")
def reader_heads(aircraft_graph):
    registry = aircraft_graph.registry
    rlo, deg = registry.resolve("rLO"), registry.resolve("point deg")
    position = (Quantity(Fraction(3, 2), rlo), Quantity(Fraction(-1), deg))
    return [("send", "po_di_ch", "position", position),
            ("receive", "po_di_ch", "display", position),
            ("recursion", None, "display", (Quantity(Fraction(7), rlo),)),
            ("recursion", None, "position", ()),
            ("receive", "attr_LO_ch", "position", (Quantity(Fraction(10), deg),))]


def _edit_line(text, index, old, new):
    # ``text`` with the last ``old`` in line ``index`` (from 0) made ``new``.
    lines = text.split("\n")
    before, found, after = lines[index].rpartition(old)
    assert found
    lines[index] = before + new + after
    return "\n".join(lines)


REPEATED_WINDOW_NAMES = (
    "aircraft 10,000 steps", "aircraft 3,000 steps", "aircraft changed value",
    "aircraft changed brace", "aircraft wrong step", "aircraft blank line", "aircraft crlf",
    "small", "small changed byte", "small wrong step", "small ends mid-window",
    "small no final newline", "small ends mid-line", "small crlf", "small blank line",
    "steps 999 to 1000", "steps 9999 to 10000", "widths in the window", "one-line window",
    "one-line window, edited", "one-line window, one step", "steps falling below 0")


@pytest.fixture(scope="module")
def repeated_window_texts(aircraft_graph, aircraft_script, reader_heads):
    # Copies of one window, as the writer writes a replayed run, and edits
    # of them inside a late copy; one text per name above.
    config = instantiate(aircraft_graph, aircraft_script, seed=0)
    aircraft = trace_to_jsonl(run(config, 3000))  # 18,005 lines, copies of 3,600 lines
    window = [(0, 0), (0, 1), (1, 2), (1, 3), (1, 4), (1, 0), (1, 1)]
    small = _windowed(reader_heads, [(0, 4), (0, 3)], window, 2, 40, tail=3)
    one_line = _windowed(reader_heads, [(0, 4)], [(1, 2)], 1, 300)
    texts = {
        "aircraft 10,000 steps": trace_to_jsonl(run(config, 10000)),
        "aircraft 3,000 steps": aircraft,
        "aircraft changed value": _edit_line(aircraft, 15000, '"905"', '"906"'),
        "aircraft changed brace": _edit_line(aircraft, 15000, "2499}", "2499]"),
        "aircraft wrong step": _edit_line(aircraft, 17000, "2833}", "2834}"),
        "aircraft blank line": _edit_line(aircraft, 16000, "2666}", "2666}\n"),
        "aircraft crlf": aircraft.replace("\n", "\r\n"),
        "small": small,
        "small changed byte": _edit_line(small, 205, "1.5", "2.5"),
        "small wrong step": _edit_line(small, 250, '"step": ', '"step": 1'),
        "small ends mid-window": _windowed(reader_heads, [], window, 2, 40, tail=5),
        "small no final newline": small[:-1],
        "small ends mid-line": small[:-3],
        "small crlf": small.replace("\n", "\r\n"),
        "small blank line": _edit_line(small, 150, "}", "}\n\n"),
        "steps 999 to 1000": _windowed(
            reader_heads, [(990, 3)], [(990 + step, head) for step, head in window], 2, 10),
        "steps 9999 to 10000": _windowed(
            reader_heads, [(9980, 3)], [(9980 + step, head) for step, head in window], 2, 15),
        "widths in the window": _windowed(
            reader_heads, [], [(998, 0), (999, 1), (1000, 2)], 3, 30, tail=2),
        "one-line window": one_line,
        "one-line window, edited": _edit_line(one_line, 250, '"7"', '"8"'),
        "one-line window, one step": _windowed(reader_heads, [], [(5, 3)], 0, 200),
        "steps falling below 0": _windowed(reader_heads, [], [(40, 2), (40, 3)], -1, 60),
    }
    assert tuple(texts) == REPEATED_WINDOW_NAMES
    return texts


@pytest.mark.parametrize("name", REPEATED_WINDOW_NAMES)
def test_jsonl_reader_reads_repeated_windows_as_the_oracle(aircraft_graph,
                                                           repeated_window_texts, name):
    # Every piece size reads the oracle's events, or stops at its line.
    text = repeated_window_texts[name]
    registry = aircraft_graph.registry
    expected = _oracle_or_line(text, registry)
    for piece, back in zip(READER_PIECE_SIZES, _read_all_sizes(text, registry)):
        assert back == expected, (name, piece)
        if type(back) is tuple:
            assert all(type(event) is TraceEvent for event in back)


def test_jsonl_reader_takes_repeated_windows_in_bulk(aircraft_graph, repeated_window_texts,
                                                    monkeypatch):
    # The texts above reach the bulk path: most of the aircraft trace at the
    # reader's own piece size, and part of each small text in 1-character
    # pieces, which end after every line.  The aircraft's heads repeat every
    # 3,600 lines from line 15, so the copy of the first piece's last line
    # finds the window, and the reader takes in bulk all but about 4,300
    # lines before it and the partial group at the end.
    accepted = []

    def counting(*args):
        at, count = accept(*args)
        accepted.append(count)
        return at, count

    accept = simulator._accept
    monkeypatch.setattr(simulator, "_accept", counting)
    trace_from_jsonl(repeated_window_texts["aircraft 10,000 steps"], aircraft_graph.registry)
    assert sum(accepted) >= 55000
    monkeypatch.setattr(simulator, "PIECE_CHARS", 1)
    for name in ("small", "small ends mid-line", "steps 999 to 1000", "steps 9999 to 10000",
                 "widths in the window", "one-line window", "one-line window, one step"):
        accepted.clear()
        try:
            trace_from_jsonl(repeated_window_texts[name], aircraft_graph.registry)
        except ValueError:
            pass
        assert sum(accepted) > 0, name


def test_jsonl_reader_moves_brent_mark_past_prefix_heads(aircraft_graph, reader_heads,
                                                       monkeypatch):
    # In 1-character pieces the first mark is the second line, whose head
    # never comes back, and Brent's first mark is the fourth, whose head
    # does not either: only the mark that moves into the window finds it.
    text = _windowed(reader_heads, [(0, 4), (0, 4), (0, 3), (0, 3)],
                     [(1, 0), (1, 1), (2, 2)], 2, 60)
    accepted = []

    def counting(*args):
        at, count = accept(*args)
        accepted.append(count)
        return at, count

    accept = simulator._accept
    monkeypatch.setattr(simulator, "_accept", counting)
    monkeypatch.setattr(simulator, "PIECE_CHARS", 1)
    back = trace_from_jsonl(text, aircraft_graph.registry)
    assert back == oracle_trace_from_jsonl(text, aircraft_graph.registry)
    assert sum(accepted) > 0


def test_jsonl_reader_decodes_each_distinct_head_once(aircraft_graph, aircraft_script,
                                                     monkeypatch):
    # The 10,000-step aircraft trace: 60,005 lines and 32 distinct heads.
    # Each head goes through json.loads once, and all its lines share the
    # payload tuple of that decoding; the two recursion heads with an empty
    # payload share the empty tuple, so there are 31 payload objects.
    text = trace_to_jsonl(run(instantiate(aircraft_graph, aircraft_script, seed=0), 10000))
    heads = [line.rpartition(', "step": ')[0] for line in text.splitlines()]
    calls = []

    def loads(line, *args, **kwargs):
        calls.append(line)
        return decode(line, *args, **kwargs)

    decode = json.loads
    monkeypatch.setattr(json, "loads", loads)
    back = trace_from_jsonl(text, aircraft_graph.registry)
    monkeypatch.undo()
    assert len(back) == len(heads) == 60005
    assert len(calls) == len(set(heads)) == 32
    payloads = {}
    for head, event in zip(heads, back):
        payloads.setdefault(head, set()).add(id(event.payload))
    assert all(len(ids) == 1 for ids in payloads.values())
    assert len(set().union(*payloads.values())) == 31


def test_jsonl_reader_reads_a_long_aircraft_trace_as_run(aircraft_graph, aircraft_script,
                                                       tmp_path):
    # 100,000 steps: 600,005 lines, copies of one 3,600-line window and part
    # of one more.  The read is the run's events, and the oracle's for
    # sampled lines.  The trace goes through a file, so that no second copy
    # of its text or its events is held.
    config = instantiate(aircraft_graph, aircraft_script, seed=0)
    path = tmp_path / "long.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for _ in write_jsonl(simulator.stream(config, 100000), handle):
            pass
    text = path.read_text(encoding="utf-8")
    back = trace_from_jsonl(text, aircraft_graph.registry)
    assert len(back) == 600005
    assert all(itertools.starmap(operator.eq, zip(back, simulator.stream(config, 100000))))
    assert all(type(event) is TraceEvent for event in back)
    for share in (0, 0.01, 0.5, 0.995):
        start = text.rfind("\n", 0, int(share * len(text))) + 1
        end, first = start, text.count("\n", 0, start)
        for _ in range(4000):
            end = text.find("\n", end) + 1 or len(text)
        assert (oracle_trace_from_jsonl(text[start:end], aircraft_graph.registry)
                == back[first:first + 4000])


@oracle_budget(60)
@given(data=st.data(),
       prefix=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=6),
       window=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=12),
       period=st.integers(-2, 4), copies=st.integers(0, 12))
def test_jsonl_reader_reads_copies_with_one_edit_as_the_oracle(aircraft_graph, reader_heads,
                                                               data, prefix, window, period,
                                                               copies):
    # A prefix, copies of a window and part of one more, with at most one
    # character replaced: every piece size reads the oracle's events, or
    # stops at the line where the oracle does.
    tail = data.draw(st.integers(0, len(window)))
    text = _windowed(reader_heads, sorted(prefix), sorted(window), period, copies, tail)
    if text and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(text) - 1))
        text = text[:at] + data.draw(st.sampled_from('0123456789"{}[],: x\n\r')) + text[at + 1:]
    expected = _oracle_or_line(text, aircraft_graph.registry)
    for piece, back in zip(READER_PIECE_SIZES, _read_all_sizes(text, aircraft_graph.registry)):
        assert back == expected, piece


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
       cycle=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
       step=st.integers(min_value=0, max_value=100))
def test_script_track_value_at_matches_scan(steps, cycle, step):
    # Oracle: the last point at or before the step, scanning every point.
    kind = QuantityKind("q", DIMENSIONLESS)
    points = tuple(sorted(((s, Quantity(Fraction(i), kind)) for i, s in enumerate(steps)),
                          key=lambda p: p[0]))
    at = step % cycle if cycle else step
    expected = None
    if cycle or at <= max(steps):
        for pstep, pvalue in points:
            if pstep <= at:
                expected = pvalue
    assert ScriptTrack(points, cycle).value_at(step) == expected
