"""``run`` against the scheduler it replaced, kept here as the oracle.

``oracle_run`` is the run that carried ``Quantity`` objects and mapped them
through one chain map per chain, and visited every process in every phase;
``oracle_jsonl`` is the writer that formatted every line's payload.
The run under test numbers its values, maps numbers through chain tables,
visits only the processes a rendezvous can have moved, and writes one head
per distinct event: same events, same bytes.  ``simulate --trace`` streams
the run through the writer into the monitor in one pass; it must write the
bytes, and print the verdicts, of ``run`` followed by ``trace_to_jsonl`` and
``check_axioms``.  A run that repeats is replayed window by window, and
written and monitored a window at a time: the oracle, which takes every
step, must still give the same events, bytes and verdicts.
"""

import errno
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, strategies as st

from conftest import oracle_budget
from domcalc import cli, compiler, dsl, periodic, simulator
from domcalc.simulator import (
    DEADLOCK, READ, RECEIVE, RECURSION, SEND, EnvironmentScript, RunConfig, ScriptTrack,
    TraceEvent, _chain_apply, check_axioms, instantiate, run, stream,
    trace_from_jsonl, trace_to_jsonl, verdicts_to_json, write_jsonl)
from domcalc.units import Quantity, fraction_str
from modelgen import pairs_model, random_model, random_script


@dataclass
class _OracleState:
    name: str
    program: tuple
    pc: int = 0
    received: dict = field(default_factory=dict)
    controllables: dict = field(default_factory=dict)


def oracle_run(config: RunConfig, max_steps: int) -> tuple[TraceEvent, ...]:
    graph = config.graph
    map_of = cache(lambda chain: _chain_apply(graph.model, graph.registry, chain))
    tracks = config.script.tracks
    external = {c.name for c in graph.channels if c.external}

    def program(process):
        body = process.body
        receives = [(READ, name, tracks.get(name)) if name in external else (RECEIVE, name, None)
                    for name in process.signature.in_channels]
        sends = [(SEND, channel, tuple(
                     (f"attr_{attr}_ch", map_of(() if conv is None else (conv,)))
                     for attr, conv in body.wire)) for channel in process.signature.out_channels]
        updates = tuple((u.attr, u.channel, u.index, map_of(u.chain)) for u in body.updates)
        return (*receives, *sends,
                (RECURSION, None, (process.signature.controllable_params, updates)))

    states = [_OracleState(p.name, program(p), controllables=dict(p.init_values))
              for p in sorted(graph.processes(), key=lambda p: p.name)]
    if not states:
        return ()
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
            return tuple(events)
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
    return tuple(events)


def oracle_jsonl(trace: tuple[TraceEvent, ...]) -> str:
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


def assert_matches_oracle(config: RunConfig, steps: int) -> tuple[TraceEvent, ...]:
    trace = run(config, steps)
    expected = oracle_run(config, steps)
    assert trace == expected
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
        spinners += any(not p.signature.out_channels and not any(
            c.name in p.signature.in_channels and not c.external for c in graph.channels)
            for p in graph.processes())
        exhausted += bool(trace) and trace[-1].kind == DEADLOCK and len({e.step for e in trace}) > 1
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
    assert trace[-1].kind == DEADLOCK and 7 < trace[-1].step < 200


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
        talkers = {p.name for p in graph.processes() if p.signature.out_channels or any(
            name not in late for name in p.signature.in_channels)}
        woken += any(e.step > 0 and e.channel in late and e.process in talkers
                     for e in trace if e.kind == RECEIVE)
    assert woken


def test_a_channel_without_a_track_blocks_its_reader_for_good(aircraft_graph,
                                                              aircraft_script_path):
    # ``instantiate`` refuses a script that lacks a track; a hand-made
    # configuration can still lack one, and the reader of that channel then
    # never reads, as in the oracle.
    with open(aircraft_script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), aircraft_graph)
    configs = [(aircraft_graph, script, 0)]
    for seed in range(40):
        rng = random.Random(seed)
        graph = compiler.compile_model(random_model(rng))
        configs.append((graph, random_script(rng, graph), seed))
    dropped = 0
    for graph, script, seed in configs:
        for name in sorted(script.tracks)[:3]:
            tracks = {other: track for other, track in script.tracks.items() if other != name}
            trace = assert_matches_oracle(RunConfig(graph, EnvironmentScript(tracks), seed), 60)
            assert not any(event.channel == name for event in trace)
            dropped += 1
    assert dropped > len(configs)


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
    assert trace[-1].kind != DEADLOCK and trace[-1].step == 50
    assert trace == oracle_run(config, 50)
    reads = [e for e in trace if e.channel == "attr_LO_ch"]
    assert reads and all(e.payload == (Quantity(Fraction(e.step), e.payload[0].kind),)
                         for e in reads)


def assert_streamed_as_run(capsys, tmp_path, text: str, script: dict, steps: int,
                           seed: int) -> tuple[TraceEvent, ...]:
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
    assert list(stream(config, steps)) == list(trace)
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
        deadlocked.add(bool(trace) and trace[-1].kind == DEADLOCK)
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
    assert assert_streamed_as_run(capsys, tmp_path, text, script, 0, 0) == ()
    finite = {name: entry["points"] for name, entry in script.items()}
    trace = assert_streamed_as_run(capsys, tmp_path, text, finite, 500, 1)
    assert trace[-1].kind == DEADLOCK and trace[-1].step < 500
    assert assert_streamed_as_run(capsys, tmp_path, "", {}, 10, 0) == ()


# ---------------------------------------------------------------------------
# Replayed runs
# ---------------------------------------------------------------------------

def replay_of(config: RunConfig, steps: int):
    """The replay ``stream`` found, or None."""
    events = stream(config, steps)
    for _ in events.scheduled:
        pass
    return events.replay


def assert_replay_matches_oracle(config: RunConfig, steps: int):
    """``run``, ``trace_to_jsonl`` over ``stream``, and ``check_axioms``
    over ``write_jsonl`` over ``stream`` (the ``simulate --trace`` pass)
    give the oracle's events, bytes and verdicts; the run's replay, or None."""
    expected = oracle_run(config, steps)
    assert run(config, steps) == expected
    text = oracle_jsonl(expected)
    assert trace_to_jsonl(stream(config, steps)) == text
    model = config.graph.model
    buffer = io.StringIO()
    verdicts = check_axioms(model, write_jsonl(stream(config, steps), buffer))
    assert buffer.getvalue() == text
    assert verdicts == check_axioms(model, expected)
    return replay_of(config, steps)


def _edges(replay) -> tuple[int, ...]:
    """Run lengths around a replay: ending one step before the step it
    starts at, at it, one after, on a window boundary and mid-window."""
    start, period = replay.start, replay.period
    return (start - 1, start, start + 1, start + 2 * period, start + 2 * period + period // 2)


def _small_script(rng: random.Random, graph, kinds: str) -> EnvironmentScript:
    """Tracks of a few small values: each cyclic with a cycle of 1 to 6
    steps, or finite with its last point before step 6; ``kinds`` is
    "cyclic", "finite" or "mixed"."""
    tracks = {}
    for channel in graph.channels:
        if not channel.external:
            continue
        kind = graph.registry.resolve(channel.kinds[0])
        span = rng.randint(1, 6)
        steps = sorted({0} | {rng.randrange(span) for _ in range(rng.randint(0, 2))})
        points = tuple((step, Quantity(Fraction(rng.randint(-3, 3)), kind)) for step in steps)
        cyclic = kinds == "cyclic" or (kinds == "mixed" and rng.random() < 0.5)
        tracks[channel.name] = ScriptTrack(points, span if cyclic else None)
    return EnvironmentScript(tracks)


def _small_cycle_cases(kinds: str, count: int):
    """``count`` generated models, random and pair models in turn, each
    with a small script of ``kinds`` and a seed."""
    for case in range(count):
        rng = random.Random(case)
        model = pairs_model(rng, rng.randint(2, 4)) if case % 2 else random_model(rng)
        graph = compiler.compile_model(model)
        yield instantiate(graph, _small_script(rng, graph, kinds), seed=case % 5)


@pytest.mark.parametrize("seed", range(4))
def test_replay_matches_oracle_on_aircraft(aircraft_graph, aircraft_script_path, seed):
    with open(aircraft_script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), aircraft_graph)
    config = instantiate(aircraft_graph, script, seed)
    replay = assert_replay_matches_oracle(config, 5000)
    # The lcm of the cycles 40, 50 and 60 is 600, and the table has two
    # rendezvous: the key saved by the probe at step 5 recurs at 605, and
    # steps 5 to 604, recorded from the save, are the window.
    assert (replay.period, replay.start, replay.windows) == (600, 605, 7)
    if seed == 0:
        for steps in _edges(replay):
            assert_replay_matches_oracle(config, steps)


@pytest.mark.parametrize("kinds", ["cyclic", "finite", "mixed"])
def test_replay_matches_oracle_on_small_cycle_scripts(monkeypatch, kinds):
    periods, widened = set(), 0
    later = []  # (d, spacing) of each key that recurred d > 1 checkpoints after its save
    visit = periodic.Recurrence.visit

    def spy(self, *args):
        spacing, distance = self.spacing, self.distance
        repeats = visit(self, *args)
        if distance and not self.distance and self.power == 1:  # saved again as it recurred
            later.append((distance + 1, spacing))
        return repeats
    monkeypatch.setattr(periodic.Recurrence, "visit", spy)
    for config in _small_cycle_cases(kinds, 40):
        later.clear()
        replay = assert_replay_matches_oracle(config, 300)
        if replay is not None:
            periods.add(replay.period)
            assert all(replay.period % (d * spacing) == 0 for d, spacing in later)
            widened += bool(later)
            for steps in _edges(replay):
                assert_replay_matches_oracle(config, steps)
    if kinds == "finite":
        # Every channel's sender reads an external attribute, so a run
        # deadlocks once its tracks have ended: none repeats.
        assert not periods
    else:
        assert len(periods) > 1
        # Some keys recur d > 1 checkpoints after their save, when nothing
        # recorded is their window: those runs widen the spacing d-fold,
        # record again and replay what the oracle runs.
        assert widened


def _rotation_case() -> RunConfig:
    """Three sensor/display pairs, two sensors fed every step and the third
    from step 1 of every 3 (a hand-made track: ``instantiate`` refuses one
    with no point at step 0), so one or two of three rendezvous are enabled
    at a step.  The state key recurs after 3 steps, but the rotation of an
    enabled list of 2 does not."""
    graph = compiler.compile_model(pairs_model(random.Random(30), 3))
    external = sorted(c.name for c in graph.channels if c.external)
    tracks = {name: ScriptTrack(((0 if name != external[-1] else 1, Quantity(
                  Fraction(1), graph.registry.resolve(graph.channel(name).kinds[0]))),),
                  1 if name != external[-1] else 3)
              for name in external}
    return RunConfig(graph, EnvironmentScript(tracks), 0)


def test_replay_waits_for_the_seed_rotation(monkeypatch):
    config = _rotation_case()
    verified = []
    visit = periodic.Recurrence.visit

    def spy(self, steps, key, events, enabled):
        spacing, distance, lengths = self.spacing, self.distance, self.lengths | {enabled}
        repeats = visit(self, steps, key, events, enabled)
        if repeats or self.spacing != spacing:
            verified.append((spacing, distance, sorted(lengths), steps, repeats))
        return repeats
    monkeypatch.setattr(periodic.Recurrence, "visit", spy)
    replay = replay_of(config, 200)
    # The key saved at step 9 recurs at the next checkpoint, but the 3 steps
    # recorded from the save hold a step with 2 enabled rendezvous: they are
    # not replayed, and the search goes on with checkpoints 6 steps apart.
    assert verified == [(3, 0, [2, 3], 12, False), (6, 0, [2, 3], 18, True)]
    assert (replay.period, replay.start) == (6, 18)
    monkeypatch.undo()
    for steps in range(12, 40):
        assert_replay_matches_oracle(config, steps)
    assert_replay_matches_oracle(config, 200)


def test_missed_probe_saves_at_the_next_checkpoint(monkeypatch):
    rng = random.Random(10)
    graph = compiler.compile_model(random_model(rng))
    config = instantiate(graph, random_script(rng, graph), 0)
    saves = []
    visit = periodic.Recurrence.visit

    def spy(self, steps, *args):
        repeats = visit(self, steps, *args)
        if self.first == steps:  # the key at steps was saved
            saves.append((steps, self.power, self.spacing))
        return repeats
    monkeypatch.setattr(periodic.Recurrence, "visit", spy)
    replay = replay_of(config, 4000)
    # Cycle 81 and a table of two rendezvous: the probe at step 5 saves its
    # key with power 1.  The key does not recur at step 86, so step 86 saves
    # at once with power 2, as step 81 does without the probe.  That key
    # recurs two checkpoints later, at 248: the spacing widens to 162, and
    # the key saved at 248 recurs at 410.  Without the probe the replay
    # starts at 405, from the key saved at 243.
    assert saves == [(5, 1, 81), (86, 2, 81), (248, 1, 162)]
    assert (replay.period, replay.start, replay.windows) == (162, 410, 22)
    monkeypatch.undo()
    for steps in (*_edges(replay), 4000):
        assert_replay_matches_oracle(config, steps)


def test_recurrence_needs_one_whole_window_after_the_first_checkpoint():
    def track(cycle, last=0):
        return ScriptTrack(((last, None),), cycle)

    cases = [
        # (tracks, table, first checkpoint, its power); C is 600 in each.
        ((track(40), track(50), track(60)), 2, 5, 1),  # the probe at 2·2 + 1
        ((track(40), track(50), track(60)), 299, 599, 1),
        ((track(40), track(50), track(60)), 300, 600, 2),  # capped at C: no probe
        ((track(600), track(None, 7)), 2, 8, 2),  # after the finite track's last point
    ]
    for tracks, table, first, power in cases:
        assert periodic.Recurrence.of(tracks, first + 2 * 600 - 1, table) is None
        recurrence = periodic.Recurrence.of(tracks, first + 2 * 600, table)
        assert (recurrence.spacing, recurrence.next, recurrence.power) == (600, first, power)


@oracle_budget(100)
@given(st.integers(0, 10 ** 6), st.sampled_from(["cyclic", "finite", "mixed"]),
       st.integers(0, 6), st.integers(0, 250))
def test_replay_matches_oracle_on_generated_runs(case, kinds, seed, steps):
    rng = random.Random(case)
    model = pairs_model(rng, rng.randint(1, 4)) if case % 2 else random_model(rng)
    graph = compiler.compile_model(model)
    assert_replay_matches_oracle(instantiate(graph, _small_script(rng, graph, kinds), seed),
                                 steps)


def _aircraft_replayed(graph, script_path) -> tuple[RunConfig, tuple[TraceEvent, ...], str, int]:
    """The aircraft at seed 0 over 5,000 steps, a replayed run: its config,
    the oracle's trace and text, and the number of scheduled events."""
    with open(script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), graph)
    config = instantiate(graph, script, 0)
    expected = oracle_run(config, 5000)
    start = replay_of(config, 5000).start
    return config, expected, oracle_jsonl(expected), sum(e.step < start for e in expected)


def test_replay_is_written_whole_when_the_scheduled_events_end(
        aircraft_graph, aircraft_script_path):
    config, expected, text, scheduled = _aircraft_replayed(aircraft_graph, aircraft_script_path)
    ends = list(accumulate(map(len, text.splitlines(keepends=True))))
    source = stream(config, 5000)
    buffer = io.StringIO()
    written = write_jsonl(source, buffer)
    count = 0
    for count, event in enumerate(written.scheduled, 1):
        # Its line, and no later one, is on the buffer.
        assert event == expected[count - 1]
        assert buffer.tell() == ends[count - 1]
    assert count == scheduled
    # The writer passes on the stream's own replay, and the first replayed
    # event comes after every line of the run.
    assert written.replay is source.replay is not None
    assert next(written) == expected[count]
    assert buffer.getvalue() == text


@pytest.fixture(scope="module")
def replayed_texts(aircraft_graph, aircraft_script_path):
    """Replayed runs, each with the oracle's text: the aircraft at seed 0
    with tails of 4, 10, 64 and 1,804 lines after two whole copies of its
    3,600-line window (no tail is empty, as the reads and recursions of the
    last step follow the last copy), the aircraft over 10,300 steps, whose
    copy from step 9,605 goes from step 9,999 to 10,000, and a generated
    model whose window of 12 lines is shorter than a 64-line piece."""
    with open(aircraft_script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), aircraft_graph)
    aircraft = instantiate(aircraft_graph, script, 0)
    small = next(_small_cycle_cases("cyclic", 1))
    cases = []
    for config, steps, rest in ((aircraft, 1805, 4), (aircraft, 1806, 10), (aircraft, 1815, 64),
                                (aircraft, 2105, 1804), (aircraft, 10300, 574), (small, 25, 10)):
        replay = replay_of(config, steps)
        assert replay.rest == rest and replay.windows >= 2
        cases.append((config, steps, oracle_jsonl(oracle_run(config, steps))))
    assert len(replay_of(small, 25).events) == 12
    return cases


@pytest.mark.parametrize("piece", [1, 2, 7, 64])
def test_replayed_copies_are_written_as_the_oracle_in_any_piece(monkeypatch, replayed_texts,
                                                                 piece):
    monkeypatch.setattr(simulator, "PIECE_LINES", piece)
    for config, steps, text in replayed_texts:
        buffer = io.StringIO()
        for _ in write_jsonl(stream(config, steps), buffer):
            pass
        assert buffer.getvalue() == text, steps


def test_events_take_the_replay_their_generator_returns():
    stand_in = ["replayed 0", "replayed 1"]

    def scheduled():
        yield "event 0"
        yield "event 1"
        return stand_in

    events = periodic.Events(scheduled())
    assert next(events.scheduled) == "event 0" and events.replay is None
    assert next(events.scheduled) == "event 1" and events.replay is None
    assert list(events.scheduled) == [] and events.replay is stand_in
    assert list(periodic.Events(scheduled())) == ["event 0", "event 1", *stand_in]


def test_run_and_reader_return_tuples_of_a_replayed_run(aircraft_graph, aircraft_script_path):
    with open(aircraft_script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), aircraft_graph)
    config = instantiate(aircraft_graph, script, 0)
    assert replay_of(config, 5000) is not None
    trace = run(config, 5000)
    assert type(trace) is tuple and trace == tuple(stream(config, 5000))
    back = tuple(trace_from_jsonl(trace_to_jsonl(trace), aircraft_graph.registry))
    assert type(back) is tuple and back == trace
    source = stream(config, 5000)
    written = write_jsonl(source, io.StringIO())
    assert tuple(written) == trace and written.replay is source.replay is not None


def _replayed_cases(graph, script_path):
    """(config, steps) of replayed runs: the aircraft at seed 0 over 2,000
    steps, and the generated models over 300 steps with cyclic scripts
    whose runs replay."""
    with open(script_path, encoding="utf-8") as handle:
        script = EnvironmentScript.from_json(json.load(handle), graph)
    yield instantiate(graph, script, 0), 2000
    for config in _small_cycle_cases("cyclic", 16):
        if replay_of(config, 300) is not None:
            yield config, 300


def test_monitor_folds_copies_and_tail_as_the_walk_over_every_event(aircraft_graph,
                                                                    aircraft_script_path):
    # A Replay after the events it repeats, with no whole copy or some, and
    # a tail that is empty, one event into a copy, one event short of a
    # whole one, or ends just before or after one of the window's first
    # recursions: the fold's verdicts, counts included, are the walk's.
    for config, steps in _replayed_cases(aircraft_graph, aircraft_script_path):
        events = stream(config, steps)
        scheduled = list(events.scheduled)
        window, period = events.replay.events, events.replay.period
        assert scheduled[len(scheduled) - len(window):] == window
        recursions = [index for index, event in enumerate(window) if event.kind == RECURSION]
        rests = {0, 1, len(window) - 1, *recursions[:4], *(r + 1 for r in recursions[:4])}
        model = config.graph.model
        for windows in (0, 1, 2, 5):
            for rest in sorted(rest for rest in rests if rest < len(window)):
                lasso = periodic.Lasso([scheduled, periodic.Replay(window, period, windows,
                                                                   rest)])
                assert len(lasso) == len(scheduled) + windows * len(window) + rest
                assert check_axioms(model, lasso) == check_axioms(model, tuple(lasso))


def test_read_run_texts_monitor_as_the_walk_wherever_they_end(monkeypatch, aircraft_graph,
                                                              aircraft_script_path):
    # Runs whose budget ends on a window boundary and one step either side,
    # and the same texts cut to end a whole copy of the first Replay read in
    # one-line pieces, one line into the next copy and one line short: the
    # verdicts over the read lasso, counts included, are those of the walk
    # over its events, in one-line pieces and at the reader's piece size.
    whole = simulator.PIECE_CHARS
    for config, steps in _replayed_cases(aircraft_graph, aircraft_script_path):
        replay, model = replay_of(config, steps), config.graph.model
        texts = []
        monkeypatch.setattr(simulator, "PIECE_CHARS", 1)
        for budget in (steps, *(replay.start + 2 * replay.period + d for d in (-1, 0, 1))):
            text = trace_to_jsonl(stream(config, budget))
            texts.append(text)
            parts = trace_from_jsonl(text, config.graph.registry).parts
            first = next((index for index, part in enumerate(parts)
                          if type(part) is periodic.Replay), None)
            if first is not None:
                end = sum(map(len, parts[:first])) + len(parts[first].events)
                lines = text.splitlines(keepends=True)
                texts += ["".join(lines[:end + d]) for d in (-1, 0, 1)]
        folded = 0
        for piece in (1, whole):
            monkeypatch.setattr(simulator, "PIECE_CHARS", piece)
            for text in texts:
                lasso = trace_from_jsonl(text, config.graph.registry)
                assert check_axioms(model, lasso) == check_axioms(model, tuple(lasso))
                folded += any(type(part) is periodic.Replay and part.windows > 1
                              for part in lasso.parts)
        assert folded


class _FullAfter(io.StringIO):
    """A handle whose write raises ENOSPC once it would hold more than
    ``limit`` characters, writing nothing."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def write(self, text: str) -> int:
        if self.tell() + len(text) > self.limit:
            raise OSError(errno.ENOSPC, "no space left on device")
        return super().write(text)


def test_write_failing_in_the_replay_raises_and_leaves_whole_lines(
        aircraft_graph, aircraft_script_path):
    config, _, text, scheduled = _aircraft_replayed(aircraft_graph, aircraft_script_path)
    lines = text.splitlines(keepends=True)
    prefix = len("".join(lines[:scheduled]))
    # The end of the tenth piece of the first copy: a write that fills the
    # handle to it succeeds, and the next one fails.
    boundary = len("".join(lines[:scheduled + 10 * simulator.PIECE_LINES]))
    # In the first copy, on a piece boundary and a character past it,
    # mid-run and in the tail.
    for limit in (prefix + 1000, boundary, boundary + 1, (prefix + len(text)) // 2,
                  len(text) - 100):
        handle = _FullAfter(limit)
        with pytest.raises(OSError) as raised:
            check_axioms(config.graph.model, write_jsonl(stream(config, 5000), handle))
        assert raised.value.errno == errno.ENOSPC
        written = handle.getvalue()
        assert prefix <= len(written) <= limit
        assert text.startswith(written) and written.endswith("\n")
        if limit in (boundary, boundary + 1):
            assert len(written) == boundary


def assert_simulate_matches_oracle(capsys, tmp_path, text: str, script: dict, steps: int,
                                   seed: int) -> None:
    """``simulate --trace`` writes the oracle's bytes, prints the verdicts
    of ``check_axioms`` over the oracle's trace and exits with their code."""
    dom, script_path, out = tmp_path / "m.dom", tmp_path / "s.json", tmp_path / "t.jsonl"
    dom.write_text(text, encoding="utf-8")
    script_path.write_text(json.dumps(script), encoding="utf-8")
    code = cli.main(["simulate", str(dom), "--script", str(script_path), "--steps", str(steps),
                     "--seed", str(seed), "--trace", str(out)])
    printed = capsys.readouterr().out
    model, _ = dsl.parse_file(str(dom))
    graph = compiler.compile_model(model)
    expected = oracle_run(instantiate(graph, EnvironmentScript.from_json(script, graph), seed),
                          steps)
    assert out.read_bytes() == oracle_jsonl(expected).encode()
    verdicts = check_axioms(model, expected)
    assert printed == json.dumps(verdicts_to_json(verdicts), indent=2, sort_keys=True) + "\n"
    assert code == (0 if all(v.passed for v in verdicts) else 2)


@pytest.mark.parametrize("seed", range(4))
def test_simulate_trace_matches_oracle_on_aircraft(
        capsys, tmp_path, aircraft_path, aircraft_script_path, seed):
    text = aircraft_path.read_text(encoding="utf-8")
    script = json.loads(aircraft_script_path.read_text(encoding="utf-8"))
    # The replay starts at step 605 and repeats every 600 steps; runs of
    # 1,199 to 1,201 steps end mid-window.
    for steps in (5000,) if seed else (604, 605, 606, 1199, 1200, 1201, 3000, 3300, 5000):
        assert_simulate_matches_oracle(capsys, tmp_path, text, script, steps, seed)


@pytest.mark.parametrize("kinds", ["cyclic", "finite", "mixed"])
def test_simulate_trace_matches_oracle_on_small_cycle_scripts(capsys, tmp_path, kinds):
    for config in _small_cycle_cases(kinds, 16):
        replay = replay_of(config, 300)
        text = dsl.print_model(config.graph.model)
        script = _script_json(config.script)
        for steps in _edges(replay) if replay else (300,):
            assert_simulate_matches_oracle(capsys, tmp_path, text, script, steps, config.seed)


# A process that reads two attributes, receives on three channels and sends
# on three.  Every part related to one with controllable attributes sends to
# it, so a process sending to three such parts also receives from them, and
# each of the pair waits on its receive first: the run stops at step 0.
HUB = """
part R composite(H, C, D, E) { id RI; mereo empty; }
part H { id HI; mereo CI x DI x EI; attr X : m reactive; attr Y : m reactive;
         attr hC : m programmable init 0; attr hD : m programmable init 0;
         attr hE : m programmable init 0; }
part C { id CI; mereo HI; attr U : m reactive; attr cX : m programmable init 0; }
part D { id DI; mereo HI; attr V : m reactive; attr dY : m programmable init 0; }
part E { id EI; mereo HI; attr W : m reactive;
         attr eX : m programmable init 0; attr eY : m programmable init 0; }
axiom hc { display(H.hC) tracks (C.U); }
axiom hd { display(H.hD) tracks (D.V); }
axiom he { display(H.hE) tracks (E.W); }
axiom cx { display(C.cX) tracks (H.X); }
axiom dy { display(D.dY) tracks (H.Y); }
axiom ex { display(E.eX, E.eY) tracks (H.X; H.Y); }
"""


def test_a_process_with_reads_receives_and_several_sends():
    model, diagnostics = dsl.parse_model(HUB)
    assert not diagnostics
    graph = compiler.compile_model(model)
    (hub,) = (p for p in graph.processes() if p.name == "h")
    assert hub.signature.actions == (
        (READ, "attr_X_ch"), (READ, "attr_Y_ch"),
        (RECEIVE, "c_h_ch"), (RECEIVE, "d_h_ch"), (RECEIVE, "e_h_ch"),
        (SEND, "h_c_ch"), (SEND, "h_d_ch"), (SEND, "h_e_ch"))
    printed = compiler.print_process(graph)
    assert ("h: HI × (CI×DI×EI) → DA_h → in attr_X_ch,attr_Y_ch,c_h_ch,d_h_ch,e_h_ch "
            "out h_c_ch,h_d_ch,h_e_ch Unit\n"
            "h(hπ,(cπ,dπ,eπ))(c_da,d_da,e_da) ≡ let (x,y,c_d′,d_d′,e_d′) = "
            "(attr_X_ch?,attr_Y_ch?,c_h_ch?,d_h_ch?,e_h_ch?) in "
            "h_c_ch ! (x,y); h_d_ch ! (x,y); h_e_ch ! (x,y); "
            "h(hπ,(cπ,dπ,eπ))(conv_c_h(c_d′),conv_d_h(d_d′),conv_e_h(e_d′)) end\n") in printed
    assert ("c(cπ,hπ)(h_da) ≡ let (u,h_d′) = (attr_U_ch?,h_c_ch?) in c_h_ch ! (u); "
            "c(cπ,hπ)(conv_h_c(h_d′)) end\n") in printed
    script = EnvironmentScript.from_json(
        {f"attr_{name}_ch": {"points": [[0, f"{value} m"], [2, "7 m"]], "cycle": 4}
         for value, name in enumerate("UVWXY", 1)}, graph)
    for seed in range(3):
        config = instantiate(graph, script, seed)
        trace = tuple(stream(config, 10))
        assert trace == oracle_run(config, 10)
        assert [(e.step, e.kind, e.channel, e.process, [str(q) for q in e.payload])
                for e in trace] == [
            (0, RECEIVE, "attr_U_ch", "c", ["1 m"]), (0, RECEIVE, "attr_V_ch", "d", ["2 m"]),
            (0, RECEIVE, "attr_W_ch", "e", ["3 m"]), (0, RECEIVE, "attr_X_ch", "h", ["4 m"]),
            (0, RECEIVE, "attr_Y_ch", "h", ["5 m"]), (0, DEADLOCK, None, "", [])]
