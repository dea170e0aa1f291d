"""Deterministic execution of compiled process graphs.

Processes run logically in parallel but on one thread under a deterministic
scheduler: the enabled inter-behaviour rendezvous are taken in channel-name
order (a compiled graph has one sender per channel) and the list is rotated
by the seed, advancing one position per step so nothing enabled is starved.
External-attribute channels are fed from a step-indexed environment script
(hold-last-value between points); reading them does not count against the
step budget, only inter-behaviour rendezvous do.  Every run with equal
graph, script and seed is bit-identical, and shorter runs are prefixes of
longer ones.
"""

from __future__ import annotations

import io
import json
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import (Any, Callable, Generator, Iterable, Iterator, NamedTuple, Optional, Sequence,
                    TextIO)

from . import compiler, periodic
from .analysis import parse_value
from .model import READ, RECEIVE, SEND, DomainModel, ProcessDef, ProcessGraph, attr_channel
from .units import KindRegistry, Quantity, fraction_str, parse_fraction

RECURSION = "recursion"
DEADLOCK = "deadlock"


class UncoveredChannel(ValueError):
    pass


class MissingInit(ValueError):
    pass


class ScriptError(ValueError):
    pass


@dataclass(frozen=True)
class ScriptTrack:
    """Step-indexed values for one external channel.

    ``points`` are (step, value) pairs sorted by step; between points the
    last value holds.  A finite track is exhausted after its final point; a
    cyclic track repeats with period ``cycle``.
    """

    points: tuple[tuple[int, Quantity], ...]
    cycle: Optional[int] = None

    def value_at(self, step: int) -> Optional[Quantity]:
        if self.cycle:
            step %= self.cycle
        elif self.points and step > self.points[-1][0]:
            return None  # finite track exhausted
        index = bisect_right(self.points, step, key=lambda point: point[0])
        return self.points[index - 1][1] if index else None


@dataclass(frozen=True)
class EnvironmentScript:
    tracks: dict[str, ScriptTrack]

    @staticmethod
    def from_json(data: dict, graph: ProcessGraph) -> "EnvironmentScript":
        """Build a script from the JSON form: channel -> [[step, "value"], ...]
        or channel -> {"points": [...], "cycle": N}, with no other key.
        Steps are non-negative JSON integers and a cycle is a positive
        integer; a cyclic track's steps are below its cycle, and points at
        one step have one value.  Anything else raises ``ScriptError``."""
        if not isinstance(data, dict):
            raise ScriptError("script must be a JSON object mapping channels to tracks")
        registry: KindRegistry = graph.registry
        tracks: dict[str, ScriptTrack] = {}
        for name, entry in data.items():
            channel = graph.channel(name)
            if channel is None:
                raise ScriptError(f"script names unknown channel {name!r}")
            if not channel.external or len(channel.kinds) != 1:
                raise ScriptError(f"channel {name!r} is not an external-attribute channel")
            kind = registry.resolve(channel.kinds[0])
            cycle = None
            points = entry
            if isinstance(entry, dict):
                unknown = [key for key in entry if key not in ("points", "cycle")]
                if unknown:
                    raise ScriptError(f"{name!r}: unknown track key {unknown[0]!r}; "
                                      f"a track object has only \"points\" and \"cycle\"")
                points = entry.get("points")
                cycle = entry.get("cycle")
            if cycle is not None and (type(cycle) is not int or cycle <= 0):
                raise ScriptError(f"{name!r}: cycle must be a positive integer, not {cycle!r}")
            if not (isinstance(points, (list, tuple)) and all(
                    isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[1], str)
                    for p in points)):
                raise ScriptError(f"{name!r}: points must be [step, \"value\"] pairs")
            parsed = []
            for step, text in points:
                if type(step) is not int:
                    raise ScriptError(f"{name!r}: step {step!r} is not an integer")
                if step < 0:
                    raise ScriptError(f"{name!r}: point at negative step {step}")
                if cycle is not None and step >= cycle:
                    raise ScriptError(f"{name!r}: point at step {step} is never read, "
                                      f"as the track repeats with cycle {cycle}")
                try:
                    value = parse_value(text, kind, registry)
                except ValueError as exc:
                    raise ScriptError(f"{name!r} at step {step}: {exc}") from None
                parsed.append((step, value))
            parsed.sort(key=lambda p: p[0])
            for (before, held), (step, value) in zip(parsed, parsed[1:]):
                if step == before and value != held:
                    raise ScriptError(f"{name!r}: two values at step {step}: {held} and {value}")
            tracks[name] = ScriptTrack(tuple(parsed), cycle)
        return EnvironmentScript(tracks)


class TraceEvent(NamedTuple):
    """One trace record, an immutable named tuple.  Equal payload values in
    one trace may be one shared ``Quantity`` object."""

    step: int
    kind: str
    channel: Optional[str]
    process: str
    payload: tuple[Quantity, ...] = ()


@dataclass(frozen=True)
class Verdict:
    """Outcome of one axiom over a trace."""

    name: str
    status: str  # "pass" or "fail"
    failing_step: Optional[int] = None
    expected: tuple[Quantity, ...] = ()
    actual: tuple[Quantity, ...] = ()
    checked: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class RunConfig:
    graph: ProcessGraph
    script: EnvironmentScript
    seed: int


def instantiate(graph: ProcessGraph, script: EnvironmentScript, seed: int) -> RunConfig:
    """Validate a (graph, script) pairing and produce a runnable configuration.

    Every external input channel must be covered from step 0, and every
    controllable attribute needs an initial value (``compile_model``
    refuses a model without one, E303, so only a graph built by hand meets
    ``MissingInit``).
    """
    registry: KindRegistry = graph.registry
    for process in graph.processes():
        inits = dict(process.init_values)
        for attr in process.signature.controllable_params:
            if attr not in inits:
                raise MissingInit(f"{process.name}: controllable {attr!r} has no init value")
        for name in (channel for op, channel in process.signature.actions if op == READ):
            track = script.tracks.get(name)
            if track is None:
                raise UncoveredChannel(f"the script has no track for external channel {name!r}")
            if not track.points or min(s for s, _ in track.points) > 0:
                raise ScriptError(f"script for {name!r} must define a value at step 0")
            kind = registry.resolve(graph.channel(name).kinds[0])
            for _, value in track.points:
                if value.kind != kind:
                    raise ScriptError(
                        f"script value {value} does not have channel kind {kind.name!r}")
    return RunConfig(graph, script, seed)


@dataclass
class _ProcState:
    name: str
    # One core cycle, resolved for the run: the signature's actions, then
    # the recursion; each entry is (op, channel, operand).
    program: tuple
    pc: int = 0
    # Channel -> the value numbers of its last payload; attribute -> number.
    received: dict = field(default_factory=dict)
    controllables: dict = field(default_factory=dict)


def _chain_apply(model: DomainModel, registry: KindRegistry,
                 chain: tuple[str, ...]) -> Callable[[Quantity], Quantity]:
    """The chain's map: each named conversion in turn, first to last, each
    into its own resolved target kind; an empty chain returns its input.  The
    chains come from a compiled graph, so every name is a declared conversion
    (E112 refuses the rest).  Each call maps afresh: ``_schedule`` keeps one
    table per chain from value number to number, and the monitor decides each
    distinct combination of payload objects once."""
    links = [(conv, registry.resolve(conv.to_kind))
             for conv in map(model.conversion, chain)]

    def apply(value: Quantity) -> Quantity:
        for conv, kind in links:
            value = conv.apply(value, kind)
        return value
    return apply


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)``, once: a hit is a
    plain subscript, with no Python-level call."""

    def __init__(self, fill: Callable[[Any], Any]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def run(config: RunConfig, max_steps: int) -> periodic.Lasso:
    """``stream(config, max_steps)`` held: each run of scheduled events as a
    tuple, taken whole before the next part, and the ``Replay``, if there is
    one, unbuilt.  It iterates as often as asked and has a length."""
    return periodic.Lasso([part if type(part) is periodic.Replay else tuple(part)
                           for part in stream(config, max_steps).parts])


def stream(config: RunConfig, max_steps: int) -> periodic.Lasso:
    """Execute until ``max_steps`` rendezvous or quiescence, yielding each
    event as the run produces it.

    The step counter advances once per inter-behaviour rendezvous; environment
    reads and recursions are recorded at the current step without advancing
    it.  Quiescence (no rendezvous can ever fire again) ends the events with
    a deadlock event.  Each process's program and the table of possible
    rendezvous are resolved once, when the run starts.  A step's events are
    yielded when the step ends, from a buffer that is then cleared, so the
    run holds no event list: its memory is bounded by the distinct values it
    carries, not by the number of steps.

    The scheduler never looks at a value, so the run carries value numbers:
    each script point read and each init value is numbered when the run
    starts, and each chain maps numbers through a table filled on first use.
    Events carry ``Quantity`` payloads, one shared tuple per distinct
    message: a send and its receive carry one tuple, and so do the reads of
    one point and the recursions that leave the controllables equal.

    An eventually periodic run is replayed once it repeats: the rest of the
    run is copies of one recorded window with shifted steps (``periodic``).
    The search for it takes its first state key two rounds of the
    rendezvous table in, when every track is cyclic, so a run that is
    already in its loop there replays one checkpoint spacing later.
    The events are unchanged; the run holds one window.  The events come as
    a one-pass ``periodic.Lasso``: the scheduled events, then the
    ``Replay`` that the scheduling generator returns, if there is one
    (``periodic.one_pass``).
    """
    return periodic.Lasso(periodic.one_pass(_schedule(config, max_steps)))


def _schedule(config: RunConfig,
              max_steps: int) -> Generator[TraceEvent, None, Optional[periodic.Replay]]:
    """The scheduler of ``stream``: it yields the events it takes, and
    returns the ``Replay`` of the rest when it stops at a repeating window,
    else None."""
    graph = config.graph
    # Each value is numbered the first time the run sees its object.  Values
    # are never hashed: equal values of two objects get two numbers, which
    # only costs a second payload tuple.
    values: list[Quantity] = []
    numbers: dict[int, int] = {}  # id(value) -> its number; values keeps the object alive

    def number(value: Quantity) -> int:
        found = numbers.get(id(value))
        if found is None:
            found = numbers[id(value)] = len(values)
            values.append(value)
        return found

    # A tuple of value numbers -> the one payload tuple of those values.
    payloads = _Table(lambda key: tuple(map(values.__getitem__, key)))

    @cache
    def table(chain: tuple[str, ...]) -> _Table:
        # Value number -> the number of its image under the chain.
        apply = _chain_apply(graph.model, graph.registry, chain)
        return _Table(lambda n: number(apply(values[n])))

    tracks = config.script.tracks

    def reading(track: Optional[ScriptTrack]) -> Optional[tuple]:
        # A read's operand: the steps of the points, each point's
        # (numbers, payload), the cycle and the last step of a finite track.
        if track is None:
            return None
        keys = [(number(value),) for _, value in track.points]
        return ([step for step, _ in track.points], [(key, payloads[key]) for key in keys],
                track.cycle, track.points[-1][0] if track.points else -1)

    def program(process: ProcessDef) -> tuple:
        # The signature's actions, then the recursion.  Every send's operand
        # is the wire: per slot, the sender's attribute channel and chain table.
        body = process.body
        wire = tuple((attr_channel(attr), table(() if conv is None else (conv,)))
                     for attr, conv in body.wire)
        actions = [(op, channel, reading(tracks.get(channel)) if op == READ
                    else wire if op == SEND else None)
                   for op, channel in process.signature.actions]
        updates = tuple((u.attr, u.channel, u.index, table(u.chain)) for u in body.updates)
        return (*actions, (RECURSION, None, (process.signature.controllable_params, updates)))

    states = [_ProcState(p.name, program(p), controllables={
                  attr: number(value) for attr, value in p.init_values})
              for p in sorted(graph.processes(), key=lambda p: p.name)]
    if not states:
        return
    # The states a phase must visit although no rendezvous moved them: those
    # with no inter-behaviour action, and those reading a track that starts
    # after step 0 (``instantiate`` refuses one), since they may wake later.
    restless = {i for i, state in enumerate(states)
                if all(op in (READ, RECURSION) for op, _, _ in state.program)
                or any(op == READ and operand is not None and operand[0] and operand[0][0] > 0
                       for op, _, operand in state.program)}
    # One entry (channel, sender, send pc, receiver, receive pc, visit) per
    # channel with both ends running, in channel-name order: one sender per
    # channel.  Only the two states it moves and the restless ones can leave
    # a phase moved, so the next phase visits just those, in name order.
    receiving = {channel: (i, pc) for i, state in enumerate(states)
                 for pc, (op, channel, _) in enumerate(state.program) if op == RECEIVE}
    rendezvous = []
    for s, sender in enumerate(states):
        for pc, (op, channel, _) in enumerate(sender.program):
            if op == SEND and channel in receiving:
                r, rpc = receiving[channel]
                rendezvous.append((channel, sender, pc, states[r], rpc,
                                   [states[i] for i in sorted(restless | {s, r})]))
    rendezvous.sort(key=operator.itemgetter(0))
    events: list[TraceEvent] = []  # this step's events, cleared once yielded
    # Records are built without the named tuple's Python-level __new__.
    new = tuple.__new__
    steps = 0

    def advance_phase(visit: list[_ProcState]) -> None:
        for state in visit:
            program, pc, received, name = state.program, state.pc, state.received, state.name
            recursed = False
            while True:
                op, channel, operand = program[pc]
                if op == READ:
                    if operand is None:
                        break  # no track: blocked for good
                    points, reads, cycle, last = operand
                    if cycle:
                        at = steps % cycle
                    elif steps > last:
                        break  # the script is exhausted: blocked for good
                    else:
                        at = steps
                    index = bisect_right(points, at)
                    if not index:
                        break  # before the track's first point
                    key, payload = reads[index - 1]
                    events.append(new(TraceEvent, (steps, RECEIVE, channel, name, payload)))
                    received[channel] = key
                    pc += 1
                elif op == RECURSION:
                    if recursed:
                        break  # one cycle per phase for channel-free spinners
                    order, updates = operand
                    controllables = state.controllables
                    for attr, source, index, to in updates:
                        key = received.get(source)
                        if key is not None:
                            controllables[attr] = to[key[index]]
                    events.append(new(TraceEvent, (steps, RECURSION, None, name, payloads[
                        tuple(map(controllables.__getitem__, order))])))
                    pc = 0
                    recursed = True
                else:
                    break  # blocked on an inter-behaviour action
            state.pc = pc

    recurrence = periodic.Recurrence.of(tracks.values(), max_steps, len(rendezvous))
    checkpoint = recurrence and recurrence.next

    def state_key() -> tuple:
        return tuple([(state.pc, tuple(state.received.items()),
                       tuple(state.controllables.values())) for state in states])

    visit = states
    while steps < max_steps:
        advance_phase(visit)
        pairs = [pair for pair in rendezvous if pair[1].pc == pair[2] and pair[3].pc == pair[4]]
        if not pairs:
            events.append(TraceEvent(steps, DEADLOCK, None, ""))
            yield from events
            return
        # Rotate the enabled list by the seed, walking one position per step
        # so no enabled channel is starved forever.
        channel, sender, pc, receiver, _, visit = pairs[(config.seed + steps) % len(pairs)]
        received = sender.received
        key = tuple([to[received[source][0]] for source, to in sender.program[pc][2]])
        message = payloads[key]
        events.append(new(TraceEvent, (steps, SEND, channel, sender.name, message)))
        events.append(new(TraceEvent, (steps, RECEIVE, channel, receiver.name, message)))
        sender.pc += 1
        receiver.received[channel] = key
        receiver.pc += 1
        steps += 1
        if steps == checkpoint:
            if recurrence.visit(steps, state_key, events, len(pairs)):
                yield from events
                return recurrence.replay(max_steps)
            checkpoint = recurrence.next
        yield from events
        events.clear()
    if steps:
        advance_phase(visit)  # the reads and recursions after the last rendezvous
        yield from events


# ---------------------------------------------------------------------------
# Axiom monitoring
# ---------------------------------------------------------------------------

def check_axioms(model: DomainModel, trace: Iterable[TraceEvent]) -> list[Verdict]:
    """One verdict per declared axiom, from one walk over the events.

    The walk is a fold that takes each event as it comes and keeps none:
    it holds the last payload on each watched channel and the payload
    combinations that passed, so it can consume ``stream`` or
    ``write_jsonl`` directly, with no trace in memory.

    At every recursion event of the axiom's target behaviour the controllable
    values must equal the declared conversion chains applied to the most
    recent payloads received on the corresponding channels.  The model is
    compiled first, so a model that ``check_wellformed`` rejects raises
    ``CompileError`` with its errors; in one it accepts, E305 and E307 have
    wired each target attribute to exactly one source.  A recursion before
    every source channel of an axiom has delivered is not checked.

    A check is decided once per distinct combination of objects: the
    recursion payload and the last payload on each source channel.  Events
    from ``stream``, ``run`` or ``trace_from_jsonl`` share their payload
    tuples, so most checks are a dict hit; unshared tuples get the same
    verdicts, only slower.

    Over a ``periodic.Lasso``, what ``stream``, ``run``, ``write_jsonl``
    and ``trace_from_jsonl`` return, the first copy of each ``Replay`` is
    walked, and each later copy and the tail add their check counts; the
    state that the tail leaves, ``last``, is put back for the events after
    it (``periodic.segments``).  The verdicts, counts included, are those
    of the walk over every event.
    """
    graph = compiler.compile_model(model)
    processes = {p.name: p for p in graph.processes()}
    # Process -> its axioms, each as (index, channels, sources, slots): the
    # distinct source channels; the expected values from sources (channel,
    # payload index, chain map); the actual ones from the recursion payload's
    # slots.
    watched: dict[str, list[tuple[int, tuple[str, ...], list, list[int]]]] = {}
    for index, axiom in enumerate(model.axioms):
        process = processes[model.endurant(axiom.target_sort).behaviour_name]
        updates = {u.attr: u for u in process.body.updates}
        order = process.signature.controllable_params
        sources = [updates[attr] for attr in axiom.target_attrs]
        watched.setdefault(process.name, []).append((
            index, tuple(dict.fromkeys(u.channel for u in sources)),
            [(u.channel, u.index, _chain_apply(model, graph.registry, u.chain))
             for u in sources],
            [order.index(attr) for attr in axiom.target_attrs]))
    # The last payload per channel of each watched process.
    last: dict[str, dict[str, tuple[Quantity, ...]]] = {name: {} for name in watched}
    # (axiom index, id(recursion payload), *ids of the source payloads) of
    # each passed check -> those objects, kept alive so no id is reused.
    passed: dict[tuple[int, ...], tuple] = {}
    checked = [0] * len(model.axioms)
    failed: dict[int, Verdict] = {}
    for events in periodic.segments(trace, checked, last):
        for step, kind, channel, name, payload in events:
            received = last.get(name)
            if received is None:
                continue
            if kind == RECEIVE:
                received[channel] = payload
            elif kind == RECURSION:
                for index, channels, sources, slots in watched[name]:
                    if index in failed:
                        continue
                    try:
                        inputs = [received[on] for on in channels]
                    except KeyError:
                        continue  # a source channel has not delivered yet
                    checked[index] += 1
                    key = (index, id(payload), *map(id, inputs))
                    if key in passed:
                        continue
                    expected = tuple([to(received[on][at]) for on, at, to in sources])
                    actual = tuple([payload[slot] for slot in slots])
                    if expected == actual:
                        passed[key] = (payload, inputs)
                    else:
                        failed[index] = Verdict(model.axioms[index].name, "fail", step,
                                                expected, actual, checked[index])
    return [failed.get(index) or Verdict(axiom.name, "pass", checked=checked[index])
            for index, axiom in enumerate(model.axioms)]


# ---------------------------------------------------------------------------
# Trace serialization (JSON lines)
# ---------------------------------------------------------------------------

# The lines of a replayed run written, or read back, at once: a bounded
# piece, so that neither's memory grows with the window.
PIECE_LINES = 64
# The characters of JSONL text that the reader splits into lines at a time
# (about 64 KiB, more to end just after a ``\n``), so its memory does not
# grow with a list of every line.
PIECE_CHARS = 1 << 16


def write_jsonl(events: Iterable[TraceEvent], handle: TextIO) -> periodic.Lasso:
    """Write each event to ``handle`` as one JSON line and pass it on.

    A line is the event as ``json.dumps(..., sort_keys=True)`` writes it:
    keys in sorted order (``channel``, ``kind``, ``payload`` of
    ``kind``/``value`` objects, ``process``, ``step``), strings
    ASCII-escaped, and each magnitude as an exact decimal or ``p/q`` string.
    Each line goes to ``handle`` before its event is passed on, and the
    handle's own buffer batches the writes: a consumer that stops early, or
    a write that fails, leaves every earlier line with the handle.

    Everything before the step, the head, is formatted once per distinct
    (kind, channel, process, payload object), and each distinct quantity
    object once, when a head first needs it; both are plain dicts keyed on
    object ids.  Events from ``run`` or ``stream`` share one payload tuple
    per distinct message, so most lines only add their step; unshared
    tuples are written the same, only slower.

    The events are passed on as a one-pass ``periodic.Lasso`` of the parts
    of ``events``, a plain iterable being one part.  A run of events is
    written line by line.  A ``Replay`` is written whole when the events
    before it end, before it is passed on: every copy of its window and the
    tail, from the heads of the window's events, ``PIECE_LINES`` lines to a
    write (``_copies``)."""
    # (kind, channel, process, id(payload)) -> the head, and id(quantity) ->
    # its text; ``payloads`` keeps each keyed payload, and so each keyed
    # quantity, alive, so no id can be reused.
    heads: dict[tuple, str] = {}
    texts: dict[int, str] = {}
    payloads = []

    def head_of(kind: str, channel: Optional[str], process: str,
                payload: tuple[Quantity, ...]) -> str:
        key = (kind, channel, process, id(payload))
        head = heads.get(key)
        if head is None:
            payloads.append(payload)
            for q in payload:
                if id(q) not in texts:
                    texts[id(q)] = (f'{{"kind": {encode_basestring_ascii(q.kind.name)}, '
                                    f'"value": "{fraction_str(q.magnitude)}"}}')
            head = heads[key] = (
                f'{{"channel": {"null" if channel is None else encode_basestring_ascii(channel)}, '
                f'"kind": {encode_basestring_ascii(kind)}, '
                f'"payload": [{", ".join([texts[id(q)] for q in payload])}], '
                f'"process": {encode_basestring_ascii(process)}, "step": ')
        return head

    def lines(events: Iterable[TraceEvent]) -> Iterator[TraceEvent]:
        write = handle.write
        for event in events:
            step, kind, channel, process, payload = event
            head = heads.get((kind, channel, process, id(payload)))
            if head is None:
                head = head_of(kind, channel, process, payload)
            write(head + int.__repr__(step) + "}\n")
            yield event

    def parts() -> Iterator[Iterable[TraceEvent]]:
        for part in events.parts if isinstance(events, periodic.Lasso) else (events,):
            if type(part) is not periodic.Replay:
                yield lines(part)
                continue
            window = [head_of(*event[1:]) for event in part.events]
            for piece, _ in _copies(window, part, len(part)):
                handle.write(piece)
            yield part
    return periodic.Lasso(parts())


def _copies(heads: list[str], replay: periodic.Replay, lines: int) -> Iterator[tuple[str, int]]:
    """The text of the first ``lines`` lines of ``replay``'s copies, as
    ``write_jsonl`` writes them: each line the head and separator in
    ``heads`` of its window event, its step, ``}`` and ``\\n``.  The text
    comes in pieces of ``PIECE_LINES`` lines, up to each copy's end, each
    with its number of lines.  The pieces of a copy are joined from one
    list of the heads and the copy's step texts, one per distinct step."""
    length = len(heads)
    parts = [""] * (2 * length)
    parts[0::2] = heads
    for k in range(-(-lines // length)):  # the copies that hold the lines
        shift = (k + 1) * replay.period
        parts[1::2] = map(list(map("%d}\n".__mod__, [step + shift for step in replay.steps]))
                          .__getitem__, replay.positions)
        end = min(length, lines - k * length)
        for at in range(0, end, PIECE_LINES):
            stop = min(at + PIECE_LINES, end)
            yield "".join(parts[2 * at:2 * stop]), stop - at


def trace_to_jsonl(trace: Iterable[TraceEvent]) -> str:
    """The text ``write_jsonl`` writes for ``trace``, as one string."""
    buffer = io.StringIO()
    for _ in write_jsonl(trace, buffer):
        pass
    return buffer.getvalue()


def trace_from_jsonl(text: str, registry: KindRegistry) -> periodic.Lasso:
    """Read a trace back from JSON lines, as a ``periodic.Lasso`` of
    ``TraceEvent``s: one JSON object per line with the keys ``step``,
    ``kind``, ``channel``, ``process`` and ``payload``, in any order and
    spacing; blank lines are skipped.  A malformed line raises ``ValueError("line N: ...")``, N
    counted from 1.  Lines and their numbers are those of
    ``text.splitlines()``, though the text is split one piece at a time,
    ``PIECE_CHARS`` characters and on to the next ``\\n``, so no list of
    every line is made.

    A line that repeats an earlier one but for its step is not decoded
    again.  The writer ends every line in ``, "step": N}``, and the text
    before it, the head, is fixed by the event's other fields.  A line
    ending so, with N in plain digits, whose head an earlier such line had,
    takes that line's event with its own step: in valid JSON this key is
    the top-level object's last ``step``, the one ``json.loads`` keeps, so
    the event is the one it would give.  Events read this way share their
    payload tuple.

    A trace whose lines repeat as copies of one window, as ``write_jsonl``
    writes a replayed run, is read a window at a time once the window is
    found.  At the end of each piece, a search (``_repeat_of``) looks for
    L lines and P steps such that the lines since a later copy of a marked
    line, the first piece's last line or Brent's mark, repeat the lines L
    before them with steps P higher.  The lines that follow are then
    spelled as the copies of a ``periodic.Replay`` of the last L events
    and accepted ``PIECE_LINES`` lines at a time, each piece only if the
    text is exactly its lines (``_accept``); at the first piece that
    differs, reading goes on line by line.  A spelled line is a repeated
    head, its separator and a plain step, so its event is the one the
    line-by-line read gives.  Which lines are read so does not change the
    events.

    The result holds the events read line by line and, after each run of
    them, the ``Replay`` of the copies accepted next, whole and partial,
    whose events are not built: ``tuple(...)`` of it is every event, ``len``
    their number, ``check_axioms`` folds each ``Replay`` a window at a time,
    and ``write_jsonl`` writes each in bulk.  A window is the lines just
    before its first copy, read since the last bulk run, so each copy meets
    the monitor state that the window left.
    """
    events = []
    append = events.append
    # The events read line by line before each bulk run, then its Replay;
    # ``since`` is the index in ``events`` of the first event after the last
    # bulk run.
    parts: list = []
    since = 0
    new = tuple.__new__
    separator = ', "step": '
    # Head -> the (kind, channel, process, payload) of the first line with
    # that head and a plain step, which every later such line shares; until
    # the head repeats, that line's event, so that a head read once costs no
    # more than its decoding.
    firsts: dict[str, tuple] = {}
    # The ids of a repeated head's fields -> the head and separator, so that
    # the lines of a window are spelled from its events.
    by_fields: dict[tuple[int, ...], str] = {}
    # A trace repeats a handful of (kind, value) pairs; equal ones share a Quantity.
    quantities: dict[tuple[str, str], Quantity] = {}
    # The search for a window marks two lines, each the last line of a piece
    # that ends in a repeated line: the first such, kept while the search
    # lasts, and Brent's mark, which moves on once the line count reaches
    # ``due`` (the next power of two).  Each is its line's fields, its index
    # and the indices of the later lines with its head.
    anchor, anchored, anchor_hits = None, 0, []
    mark, marked, hits, due = None, 0, [], 1
    fields = None  # the last line's fields, when that line repeated a head
    number, start, size = 0, 0, len(text)
    while start < size:
        end = text.find("\n", start + PIECE_CHARS - 1) + 1 or size
        for number, line in enumerate(text[start:end].splitlines(), number + 1):
            try:
                head, _, tail = line.rpartition(separator)
                digits = tail[:-1]
                # JSON integer digits: ASCII, and no leading zero.
                plain = (tail[-1:] == "}" and digits.isdigit() and digits.isascii()
                         and (digits[0] != "0" or digits == "0"))
                if plain:
                    fields = firsts.get(head)
                    if fields is not None:
                        if type(fields) is TraceEvent:  # the head's first repeat
                            fields = firsts[head] = fields[1:]
                            by_fields[tuple(map(id, fields))] = head + separator
                        append(new(TraceEvent, (int(digits), *fields)))
                        if fields is mark:
                            hits.append(len(events) - 1)
                        elif fields is anchor:
                            anchor_hits.append(len(events) - 1)
                        continue
                elif not line.strip():
                    continue
                event = _decode_event(line, registry, quantities)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            if plain:  # it decoded, so its tail followed the separator
                firsts[head] = event
            append(event)
            fields = None
        start = end
        if start == size:
            break
        found = ((anchor_hits and _repeat_of(events, anchor_hits, anchored))
                 or (hits and _repeat_of(events, hits, marked)))
        if found:
            start, replay = _accept(text, start, events, since, by_fields, *found)
            if replay is not None:  # the search starts again after the accepted lines
                parts += (events[since:], replay)
                number, since = number + len(replay), len(events)
                fields = anchor = mark = None
                due, anchor_hits, hits = len(events), [], []
        if fields is not None and len(events) >= due:
            if anchor is None:
                anchor, anchored = fields, len(events) - 1
            else:
                mark, marked, hits = fields, len(events) - 1, []
            due = 1 << len(events).bit_length()
    parts.append(events[since:] if since else events)
    return periodic.Lasso(parts)


def _repeat_of(events: list[TraceEvent], hits: list[int],
               marked: int) -> Optional[tuple[int, int]]:
    """The length L and step period P of a window that the last events
    repeat, or None.  Each hit, a later line with the marked line's head,
    proposes L lines and P steps from the marked line to it; the hit holds
    when P >= 0 and every line since it, at most the last L, has the same
    fields (as objects) as the line L before and a step P higher.  A hit
    is judged once at least ``min(L, PIECE_LINES)`` lines follow it; the
    judged hits leave ``hits``, the rest stay for a later piece."""
    count = len(events)
    first = events[marked][0]
    for at, hit in enumerate(hits):
        length = hit - marked
        if count - hit < min(length, PIECE_LINES):
            del hits[:at]  # this hit and the later ones are too recent
            return None
        period = events[hit][0] - first
        if period >= 0:
            for index in range(max(hit, count - length), count):
                now, before = events[index], events[index - length]
                if (now[0] - before[0] != period or now[4] is not before[4]
                        or now[3] is not before[3] or now[1] is not before[1]
                        or now[2] is not before[2]):
                    break
            else:
                del hits[:at + 1]
                return length, period
    hits.clear()
    return None


def _accept(text: str, at: int, events: list[TraceEvent], since: int,
            by_fields: dict[tuple[int, ...], str], length: int,
            period: int) -> tuple[int, Optional[periodic.Replay]]:
    """The copies of the last ``length`` events, the window, that ``text``
    holds from offset ``at``, each copy with steps ``period`` higher than the
    one before: the offset after them and their ``Replay``, whose tail is
    the lines of a last, partial copy, or None when no line is taken.  The
    copies' text is spelled as ``write_jsonl`` writes the
    ``Replay`` (``_copies``), each line from the head and separator that
    ``by_fields`` gives for its window event's fields, and a piece is taken
    only if the text is exactly its lines.  The ``Replay``'s events share
    the window's fields, the objects that the line-by-line read of the same
    lines shares, so each is the event that read gives.  No copy is taken if
    an event of the window has the fields of no repeated head.

    A window shorter than ``PIECE_LINES`` lines is taken as several copies
    at once, as far as the events read since index ``since``, the last bulk
    run, reach back: so the window is the lines just before its first copy."""
    if length < PIECE_LINES:
        copies = min(-(-PIECE_LINES // length), (len(events) - since) // length)
        length, period = length * copies, period * copies
    window = events[-length:]
    heads = [by_fields.get((id(kind), id(channel), id(process), id(payload)))
             for _, kind, channel, process, payload in window]
    if None in heads:
        return at, None
    replay = periodic.Replay(window, period, 0, 0)
    taken = 0
    for piece, lines in _copies(heads, replay, len(text) - at):
        if not text.startswith(piece, at):
            break
        at += len(piece)
        taken += lines
    replay.windows, replay.rest = divmod(taken, length)
    return at, replay if taken else None


def _decode_event(line: str, registry: KindRegistry,
                  quantities: dict[tuple[str, str], Quantity]) -> TraceEvent:
    """One trace line through ``json.loads``, each field checked.  Payload
    values are looked up in, and added to, ``quantities``."""
    try:
        data = json.loads(line)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    try:
        step, kind, channel, process, items = (
            data["step"], data["kind"], data["channel"], data["process"], data["payload"])
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except TypeError:  # a JSON array, string, number or null
        raise ValueError("not a JSON object") from None
    if type(step) is not int or step < 0:
        raise ValueError(f"step {step!r} is not a non-negative integer")
    if type(kind) is not str:
        raise ValueError(f"kind {kind!r} is not a string")
    if type(process) is not str:
        raise ValueError(f"process {process!r} is not a string")
    if channel is not None and type(channel) is not str:
        raise ValueError(f"channel {channel!r} is neither a string nor null")
    if type(items) is not list:
        raise ValueError(f"payload {items!r} is not a list")
    payload = []
    for item in items:
        try:
            key = item["kind"], item["value"]
            # Only pairs of strings are stored, so a hit is a checked pair.
            quantity = quantities.get(key)
        except (KeyError, TypeError):  # TypeError: not an object, or unhashable
            quantity = key = None
        if quantity is None:
            if key is None or type(key[0]) is not str or type(key[1]) is not str:
                raise ValueError(f'payload item {item!r} is not {{"kind": str, "value": str}}')
            quantity = quantities[key] = Quantity(parse_fraction(key[1]),
                                                  registry.resolve(key[0]))
        payload.append(quantity)
    return tuple.__new__(TraceEvent, (step, kind, channel, process, tuple(payload)))


def verdicts_to_json(verdicts: Sequence[Verdict]) -> dict:
    return {
        "all_pass": all(v.passed for v in verdicts),
        "verdicts": [{
            "name": v.name,
            "status": v.status,
            "failing_step": v.failing_step,
            "expected": [str(q) for q in v.expected],
            "actual": [str(q) for q in v.actual],
            "checked": v.checked,
        } for v in verdicts],
    }
