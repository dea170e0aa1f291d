"""``run`` against the scheduler it replaced, kept here as the oracle.

``oracle_run`` is the run that carried ``Quantity`` objects and mapped them
through one chain map per chain, and visited every process in every phase;
``oracle_jsonl`` is the writer that formatted every line's payload.
The run under test numbers its values, maps numbers through chain tables,
visits only the processes a rendezvous can have moved, and writes one head
per distinct event: same events, same bytes.  ``simulate --trace`` streams
the run through the writer into the monitor in one pass; it must write the
bytes, and print the verdicts, of ``run`` followed by ``trace_to_jsonl`` and
``check_axioms``.
"""

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

import pytest

from domcalc import cli, compiler, dsl
from domcalc.simulator import (
    DEADLOCK, READ, RECEIVE, RECURSION, SEND, EnvironmentScript, RunConfig, ScriptTrack,
    Trace, TraceEvent, _chain_apply, check_axioms, instantiate, run, stream,
    trace_to_jsonl, verdicts_to_json)
from domcalc.units import Quantity, fraction_str
from modelgen import pairs_model, random_model, random_script


@dataclass
class _OracleState:
    name: str
    program: tuple
    pc: int = 0
    received: dict = field(default_factory=dict)
    controllables: dict = field(default_factory=dict)


def oracle_run(config: RunConfig, max_steps: int) -> Trace:
    graph = config.graph
    map_of = cache(lambda chain: _chain_apply(graph.model, graph.registry, chain))
    tracks = config.script.tracks
    external = {c.name for c in graph.channels if c.external}

    def program(process):
        body = process.body
        receives = [(READ, name, tracks.get(name)) if name in external else (RECEIVE, name, None)
                    for name in body.receives]
        sends = [(SEND, spec.channel, tuple(
                     (f"attr_{attr}_ch", map_of(() if conv is None else (conv,)))
                     for attr, conv in spec.parts)) for spec in body.sends]
        updates = tuple((u.attr, u.channel, u.index, map_of(u.chain)) for u in body.updates)
        return (*receives, *sends,
                (RECURSION, None, (process.signature.controllable_params, updates)))

    states = [_OracleState(p.name, program(p), controllables=dict(p.init_values))
              for p in sorted(graph.processes(), key=lambda p: p.name)]
    if not states:
        return Trace(())
    receiving = {channel: (state, pc) for state in states
                 for pc, (op, channel, _) in enumerate(state.program) if op == RECEIVE}
    table = sorted(((channel, sender, pc, *receiving[channel]) for sender in states
                    for pc, (op, channel, _) in enumerate(sender.program)
                    if op == SEND and channel in receiving), key=lambda entry: entry[0])
    events = []
    steps = 0

    def advance_phase():
        for state in states:
            recursed = False
            while True:
                op, channel, operand = state.program[state.pc]
                if op == READ:
                    value = None if operand is None else operand.value_at(steps)
                    if value is None:
                        break
                    events.append(TraceEvent(steps, RECEIVE, channel, state.name, (value,)))
                    state.received[channel] = (value,)
                    state.pc += 1
                elif op == RECURSION:
                    if recursed:
                        break
                    order, updates = operand
                    for attr, source, index, to in updates:
                        payload = state.received.get(source)
                        if payload is not None:
                            state.controllables[attr] = to(payload[index])
                    events.append(TraceEvent(steps, RECURSION, None, state.name, tuple(
                        map(state.controllables.__getitem__, order))))
                    state.pc = 0
                    recursed = True
                else:
                    break

    while steps < max_steps:
        advance_phase()
        pairs = [pair for pair in table if pair[1].pc == pair[2] and pair[3].pc == pair[4]]
        if not pairs:
            events.append(TraceEvent(steps, DEADLOCK, None, ""))
            return Trace(tuple(events))
        channel, sender, pc, receiver, _ = pairs[(config.seed + steps) % len(pairs)]
        message = tuple(to(sender.received[source][0]) for source, to in sender.program[pc][2])
        events.append(TraceEvent(steps, SEND, channel, sender.name, message))
        events.append(TraceEvent(steps, RECEIVE, channel, receiver.name, message))
        sender.pc += 1
        receiver.received[channel] = message
        receiver.pc += 1
        steps += 1
    if steps:
        advance_phase()
    return Trace(tuple(events))


def oracle_jsonl(trace: Trace) -> str:
    def text_of(q):
        return (f'{{"kind": {encode_basestring_ascii(q.kind.name)}, '
                f'"value": "{fraction_str(q.magnitude)}"}}')

    frames = {}
    lines = []
    for step, kind, channel, process, payload in trace:
        frame = frames.get((channel, kind, process))
        if frame is None:
            frame = frames[channel, kind, process] = (
                f'{{"channel": {"null" if channel is None else encode_basestring_ascii(channel)}, '
                f'"kind": {encode_basestring_ascii(kind)}, "payload": [',
                f'], "process": {encode_basestring_ascii(process)}, "step": ')
        lines.append(f"{frame[0]}{', '.join(map(text_of, payload))}{frame[1]}{step}}}\n")
    return "".join(lines)


def assert_matches_oracle(config: RunConfig, steps: int) -> Trace:
    trace = run(config, steps)
    expected = oracle_run(config, steps)
    assert trace.events == expected.events
    assert trace_to_jsonl(trace) == oracle_jsonl(expected)
    return trace


def _generated():
    """200 generated models with their scripts: 140 random models and 60
    pair models, which enable many rendezvous at once."""
    for seed in range(140):
        yield random.Random(seed), None
    for n in (2, 5, 12):
        for seed in range(20):
            yield random.Random(1000 + seed), n


def test_run_matches_oracle_on_generated_models():
    spinners = exhausted = 0
    for count, (rng, n) in enumerate(_generated()):
        model = random_model(rng) if n is None else pairs_model(rng, n)
        graph = compiler.compile_model(model)
        config = instantiate(graph, random_script(rng, graph), seed=count % 7)
        for steps in (60, 400):
            trace = assert_matches_oracle(config, steps)
        spinners += any(not p.body.sends and not any(
            c.name in p.body.receives and not c.external for c in graph.channels)
            for p in graph.processes())
        exhausted += trace.deadlocked and len({e.step for e in trace}) > 1
    # The cases the dirty set must get right occur in the corpus.
    assert spinners and exhausted


@pytest.mark.parametrize("seed", range(4))
def test_run_matches_oracle_on_aircraft(aircraft_graph, aircraft_script_path, seed):
    with open(aircraft_script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), aircraft_graph)
    assert_matches_oracle(instantiate(aircraft_graph, script, seed), 2000)


def test_finite_track_exhausted_mid_run(aircraft_graph, aircraft_script_path):
    with open(aircraft_script_path, encoding="utf-8") as handle:
        raw = json.load(handle)
    # The cycles dropped: each track ends after its last point, and the
    # velocity track stops early, mid-run.
    finite = {name: entry["points"] for name, entry in raw.items()}
    finite["attr_VEL_ch"] = [[0, "900 km/h"], [7, "901 km/h"]]
    script = EnvironmentScript.from_json(finite, aircraft_graph)
    trace = assert_matches_oracle(instantiate(aircraft_graph, script, 0), 200)
    assert trace.deadlocked and 7 < trace.events[-1].step < 200


def test_channel_free_spinner(aircraft_model, aircraft_script_path):
    graph = compiler.compile_process(aircraft_model, "AC", always_core=True)
    with open(aircraft_script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), graph)
    trace = assert_matches_oracle(instantiate(graph, script, 1), 300)
    # The aircraft's own core takes part in no rendezvous, yet recurses in
    # every phase.
    assert {e.step for e in trace if e.process == "ac"} == {e.step for e in trace}


def test_tracks_starting_late_wake_their_readers():
    # ``instantiate`` refuses a track with no point at step 0; a hand-made
    # configuration can still hold one, and its reader then waits for it,
    # here while other processes keep meeting.
    woken = 0
    for seed in range(140):
        rng = random.Random(seed)
        model = random_model(rng)
        graph = compiler.compile_model(model)
        script = random_script(rng, graph)
        shifts = {name: rng.choice((0, 1, 3)) for name in script.tracks}
        late = {name: ScriptTrack(tuple((step + shifts[name], value)
                                        for step, value in track.points), track.cycle)
                for name, track in script.tracks.items() if shifts[name]}
        tracks = dict(script.tracks, **late)
        trace = assert_matches_oracle(RunConfig(graph, EnvironmentScript(tracks), seed), 60)
        talkers = {p.name for p in graph.processes() if p.body.sends or any(
            name not in late for name in p.body.receives)}
        woken += any(e.step > 0 and e.channel in late and e.process in talkers
                     for e in trace if e.kind == RECEIVE)
    assert woken


def test_long_script_costs_no_more_than_reading_it(aircraft_graph):
    # Far more points than steps: numbering them all at the start must stay
    # cheaper than parsing them.
    points = [[step, f"{step} deg"] for step in range(50_000)]
    data = {"attr_LO_ch": points} | {
        name: {"points": [[0, value]], "cycle": 1} for name, value in (
            ("attr_LA_ch", "55 deg"), ("attr_AL_ch", "10000 m"),
            ("attr_VEL_ch", "900 km/h"), ("attr_ACC_ch", "0 m/s^2"))}
    started = time.perf_counter()
    script = EnvironmentScript.from_json(data, aircraft_graph)
    parsed = time.perf_counter() - started
    config = instantiate(aircraft_graph, script, 0)
    started = time.perf_counter()
    trace = run(config, 50)
    ran = time.perf_counter() - started
    assert ran <= parsed
    assert not trace.deadlocked and trace.events[-1].step == 50
    assert trace.events == oracle_run(config, 50).events
    reads = [e for e in trace if e.channel == "attr_LO_ch"]
    assert reads and all(e.payload == (Quantity(Fraction(e.step), e.payload[0].kind),)
                         for e in reads)


def assert_streamed_as_run(capsys, tmp_path, text: str, script: dict, steps: int,
                           seed: int) -> Trace:
    """``simulate --trace`` on the model text and script JSON: the file it
    writes, its verdicts and its exit code are those of ``run``, and the
    events of ``stream`` are those ``run`` holds."""
    dom, script_path, out = tmp_path / "m.dom", tmp_path / "s.json", tmp_path / "t.jsonl"
    dom.write_text(text, encoding="utf-8")
    script_path.write_text(json.dumps(script), encoding="utf-8")
    code = cli.main(["simulate", str(dom), "--script", str(script_path), "--steps", str(steps),
                     "--seed", str(seed), "--trace", str(out)])
    printed = capsys.readouterr().out
    model, diagnostics = dsl.parse_file(str(dom))
    assert not diagnostics
    graph = compiler.compile_model(model)
    config = instantiate(graph, EnvironmentScript.from_json(script, graph), seed)
    trace = run(config, steps)
    assert out.read_bytes() == trace_to_jsonl(trace).encode()
    verdicts = check_axioms(model, trace)
    assert printed == json.dumps(verdicts_to_json(verdicts), indent=2, sort_keys=True) + "\n"
    assert code == (0 if all(v.passed for v in verdicts) else 2)
    assert list(stream(config, steps)) == list(trace.events)
    return trace


def _script_json(script: EnvironmentScript) -> dict:
    return {name: {"points": [[step, fraction_str(value.magnitude)]
                              for step, value in track.points], "cycle": track.cycle}
            for name, track in script.tracks.items()}


def test_streamed_simulate_matches_run_on_generated_models(capsys, tmp_path):
    deadlocked = set()
    for count, (rng, n) in enumerate(_generated()):
        model = random_model(rng) if n is None else pairs_model(rng, n)
        script = random_script(rng, compiler.compile_model(model))
        trace = assert_streamed_as_run(capsys, tmp_path, dsl.print_model(model),
                                       _script_json(script), 200, count % 7)
        deadlocked.add(trace.deadlocked)
    assert deadlocked == {False, True}


@pytest.mark.parametrize("seed", range(4))
def test_streamed_simulate_matches_run_on_aircraft(
        capsys, tmp_path, aircraft_path, aircraft_script_path, seed):
    script = json.loads(aircraft_script_path.read_text(encoding="utf-8"))
    assert_streamed_as_run(capsys, tmp_path, aircraft_path.read_text(encoding="utf-8"),
                           script, 2000, seed)


def test_streamed_simulate_matches_run_at_the_edges(
        capsys, tmp_path, aircraft_path, aircraft_script_path):
    text = aircraft_path.read_text(encoding="utf-8")
    script = json.loads(aircraft_script_path.read_text(encoding="utf-8"))
    assert assert_streamed_as_run(capsys, tmp_path, text, script, 0, 0).events == ()
    finite = {name: entry["points"] for name, entry in script.items()}
    trace = assert_streamed_as_run(capsys, tmp_path, text, finite, 500, 1)
    assert trace.deadlocked and trace.events[-1].step < 500
    assert assert_streamed_as_run(capsys, tmp_path, "", {}, 10, 0).events == ()
