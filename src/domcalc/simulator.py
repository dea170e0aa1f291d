"""Deterministic execution of compiled process graphs.

Processes run logically in parallel but on one thread under a deterministic
scheduler: the enabled inter-behaviour rendezvous are sorted by (channel,
sender) and the list is rotated by the seed, advancing one position per step
so nothing enabled is starved.  External-attribute channels are fed from a
step-indexed environment script (hold-last-value between points); reading
them does not count against the step budget, only inter-behaviour rendezvous
do.  Every run with equal graph, script and seed is bit-identical, and
shorter runs are prefixes of longer ones.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, Optional, Sequence, TypeVar

from .analysis import parse_value, registry_for_model
from .model import DomainModel, ProcessDef, ProcessGraph
from .units import KindRegistry, Quantity, fraction_str, parse_fraction

T = TypeVar("T")

SEND = "send"
RECEIVE = "receive"
RENDEZVOUS = "rendezvous"
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
        or channel -> {"points": [...], "cycle": N}.  Steps are non-negative
        JSON integers and a cycle is a positive integer; anything else raises
        ``ScriptError``."""
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
                try:
                    value = parse_value(text, kind, registry)
                except ValueError as exc:
                    raise ScriptError(f"{name!r} at step {step}: {exc}") from None
                parsed.append((step, value))
            tracks[name] = ScriptTrack(tuple(sorted(parsed, key=lambda p: p[0])), cycle)
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
class Trace:
    events: tuple[TraceEvent, ...]

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def deadlocked(self) -> bool:
        return bool(self.events) and self.events[-1].kind == DEADLOCK


@dataclass(frozen=True)
class Verdict:
    """Outcome of one axiom (or conversion round-trip) over a trace."""

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
    controllable attribute needs an initial value.
    """
    registry: KindRegistry = graph.registry
    for process in graph.processes():
        inits = dict(process.init_values)
        for attr in process.signature.controllable_params:
            if attr not in inits:
                raise MissingInit(f"{process.name}: controllable {attr!r} has no init value")
        for name in process.in_channels:
            channel = graph.channel(name)
            if channel is None or not channel.external:
                continue
            track = script.tracks.get(name)
            if track is None:
                raise UncoveredChannel(name)
            if not track.points or min(s for s, _ in track.points) > 0:
                raise ScriptError(f"script for {name!r} must define a value at step 0")
            kind = registry.resolve(channel.kinds[0])
            for _, value in track.points:
                if value.kind != kind:
                    raise ScriptError(
                        f"script value {value} does not have channel kind {kind.name!r}")
    return RunConfig(graph, script, seed)


@dataclass
class _ProcState:
    process: ProcessDef
    pc: int = 0
    received: dict = field(default_factory=dict)
    controllables: dict = field(default_factory=dict)
    # One core cycle: every receive, then every send, then the recursion.
    program: tuple = field(init=False)

    def __post_init__(self) -> None:
        body = self.process.body
        self.program = (*(("recv", name) for name in body.receives),
                        *(("send", spec) for spec in body.sends), ("recurse", None))


def _by_identity(fn: Callable[[Any], T]) -> Callable[[Any], T]:
    """``fn`` memoised on the identity of its argument, for the lifetime of
    the returned function.  Each entry keeps its argument alive, so the
    ``id`` cannot be reused, and nothing but the ``id`` is hashed; an equal
    but distinct argument is simply computed again."""
    seen: dict[int, tuple[Any, T]] = {}

    def memo(value):
        hit = seen.get(id(value))
        if hit is None:
            hit = seen[id(value)] = (value, fn(value))
        return hit[1]
    return memo


def chain_maps(model: DomainModel, registry: KindRegistry
               ) -> Callable[[tuple[str, ...]], Callable[[Quantity], Quantity]]:
    """Chain -> its map, which applies each named conversion in turn, first
    to last, each into its own resolved target kind; an empty chain returns
    its input.  Maps are built on first use and memoised by identity; each
    call returns fresh memos, one per caller.

    ``ScriptTrack.value_at`` hands out the same point objects every cycle,
    so a run feeds each map a few objects over and over and its payloads
    share one result per (object, chain).
    """
    def stepwise(chain: tuple[str, ...]) -> Callable[[Quantity], Quantity]:
        links = [(conv, registry.resolve(conv.to_kind))
                 for conv in map(model.conversion, chain)]

        def apply(value: Quantity) -> Quantity:
            for conv, kind in links:
                value = conv.apply(value, kind)
            return value
        return _by_identity(apply)
    return cache(stepwise)


def run(config: RunConfig, max_steps: int) -> Trace:
    """Execute until ``max_steps`` rendezvous or quiescence.

    The step counter advances once per inter-behaviour rendezvous; environment
    reads and recursions are recorded at the current step without advancing
    it.  Quiescence (no rendezvous can ever fire again) terminates the trace
    with a deadlock event.
    """
    graph = config.graph
    model: DomainModel = graph.model
    registry: KindRegistry = graph.registry
    external = {c.name for c in graph.channels if c.external}
    states = [_ProcState(p, controllables=dict(p.init_values))
              for p in sorted(graph.processes(), key=lambda p: p.name)]
    if not states:
        return Trace(())
    # The one receiver of each channel that can rendezvous; absent when elided.
    state_of = {state.process.name: state for state in states}
    receiver_of = {c.name: state_of[c.receivers[0]] for c in graph.channels
                   if c.name not in external and c.receivers[0] in state_of}
    events: list[TraceEvent] = []
    steps = 0
    map_of = chain_maps(model, registry)

    def recurse(state: _ProcState) -> None:
        for update in state.process.body.updates:
            payload = state.received.get(update.channel)
            if payload is None:
                continue
            state.controllables[update.attr] = map_of(update.chain)(payload[update.index])
        payload = tuple(state.controllables[a]
                        for a in state.process.signature.controllable_params)
        events.append(TraceEvent(steps, RECURSION, None, state.process.name, payload))
        state.pc = 0

    tracks = config.script.tracks

    def advance_phase() -> None:
        for state in states:
            recursed = False
            while True:
                op, arg = state.program[state.pc]
                if op == "recv" and arg in external:
                    track = tracks.get(arg)
                    value = None if track is None else track.value_at(steps)
                    if value is None:
                        break  # script exhausted: blocked for good
                    events.append(TraceEvent(steps, RECEIVE, arg,
                                             state.process.name, (value,)))
                    state.received[arg] = (value,)
                    state.pc += 1
                elif op == "recurse":
                    if recursed:
                        break  # one cycle per phase for channel-free spinners
                    recurse(state)
                    recursed = True
                else:
                    break  # blocked on an inter-behaviour action

    def enabled_pairs():
        pairs = []
        for sender in states:
            op, arg = sender.program[sender.pc]
            if op != "send":
                continue
            receiver = receiver_of.get(arg.channel)
            if receiver is not None and receiver.program[receiver.pc] == ("recv", arg.channel):
                pairs.append((arg.channel, sender, receiver, arg))
        return sorted(pairs, key=lambda p: (p[0], p[1].process.name))

    settled = False
    while steps < max_steps:
        advance_phase()
        pairs = enabled_pairs()
        if not pairs:
            events.append(TraceEvent(steps, DEADLOCK, None, ""))
            settled = True
            break
        # Rotate the sorted pair list by the seed, walking one position per
        # step so no enabled channel is starved forever.
        channel, sender, receiver, send_spec = pairs[(config.seed + steps) % len(pairs)]
        message = tuple(
            map_of(() if conv_name is None else (conv_name,))(
                sender.received[f"attr_{attr}_ch"][0])
            for attr, conv_name in send_spec.parts)
        events.append(TraceEvent(steps, SEND, channel, sender.process.name, message))
        events.append(TraceEvent(steps, RECEIVE, channel, receiver.process.name, message))
        sender.pc += 1
        receiver.received[channel] = message
        receiver.pc += 1
        steps += 1
    if not settled and max_steps > 0:
        advance_phase()
    return Trace(tuple(events))


# ---------------------------------------------------------------------------
# Axiom monitoring
# ---------------------------------------------------------------------------

def check_axioms(model: DomainModel, trace: Trace) -> list[Verdict]:
    """One verdict per declared axiom, from one walk over the trace.

    At every recursion event of the axiom's target behaviour the controllable
    values must equal the declared conversion chains applied to the most
    recent payloads received on the corresponding channels.
    """
    from .compiler import compile_model

    graph = compile_model(model)
    processes = {p.name: p for p in graph.processes()}
    map_of = chain_maps(model, graph.registry)
    # Payload values are shared objects, so each (expected, actual) pair of
    # objects is compared once: equal_to(expected)(actual).
    equal_to = _by_identity(lambda expected: _by_identity(partial(operator.eq, expected)))
    # Process -> its axioms, each as (index, sources, slots): the expected
    # values come from sources (channel, payload index, chain map), the
    # actual ones from the recursion payload's slots.  An axiom with a target
    # attribute that nothing updates is never checked.
    watched: dict[str, list[tuple[int, list, list[int]]]] = {}
    for index, axiom in enumerate(model.axioms):
        target = model.endurant(axiom.target_sort)
        process = processes.get(target.behaviour_name) if target else None
        if process is None:
            continue
        updates = {u.attr: u for u in process.body.updates}
        if all(attr in updates for attr in axiom.target_attrs):
            order = process.signature.controllable_params
            watched.setdefault(process.name, []).append((
                index, [(u.channel, u.index, map_of(u.chain))
                        for u in map(updates.get, axiom.target_attrs)],
                [order.index(attr) for attr in axiom.target_attrs]))
    # The last payload per channel of each watched process.
    last: dict[str, dict[str, tuple[Quantity, ...]]] = {name: {} for name in watched}
    checked = [0] * len(model.axioms)
    failed: dict[int, Verdict] = {}
    for step, kind, channel, name, payload in trace:
        received = last.get(name)
        if received is None:
            continue
        if kind == RECEIVE:
            received[channel] = payload
        elif kind == RECURSION:
            for index, sources, slots in watched[name]:
                if index in failed:
                    continue
                try:
                    expected = [to(received[on][at]) for on, at, to in sources]
                except KeyError:
                    continue  # a source channel has not delivered yet
                checked[index] += 1
                actual = [payload[slot] for slot in slots]
                if not all(map(lambda e, a: equal_to(e)(a), expected, actual)):
                    failed[index] = Verdict(model.axioms[index].name, "fail", step,
                                            tuple(expected), tuple(actual), checked[index])
    return [failed.get(index) or Verdict(axiom.name, "pass", checked=checked[index])
            for index, axiom in enumerate(model.axioms)]


def conversion_roundtrip_check(model: DomainModel, samples: int, seed: int) -> list[Verdict]:
    """Check every declared inverse pair on sampled values, exactly.

    Conversions without an inverse are skipped: recordings cannot be
    converted back to actual values by design.
    """
    import random

    registry, _ = registry_for_model(model)
    rng = random.Random(seed)
    verdicts: list[Verdict] = []
    for conv in model.conversions:
        if conv.inverse_of is None:
            continue
        partner = model.conversion(conv.inverse_of)
        if partner is None:
            continue
        from_kind = registry.resolve(conv.from_kind)
        to_kind = registry.resolve(conv.to_kind)
        verdict = None
        for _ in range(samples):
            magnitude = Fraction(rng.randint(-10 ** 6, 10 ** 6), 10 ** rng.randint(0, 6))
            start = Quantity(magnitude, from_kind)
            there = conv.apply(start, to_kind)
            back = partner.apply(there, from_kind)
            if back != start:
                verdict = Verdict(conv.name, "fail", None, (start,), (back,))
                break
        verdicts.append(verdict or Verdict(conv.name, "pass", checked=samples))
    return verdicts


# ---------------------------------------------------------------------------
# Trace serialization (JSON lines)
# ---------------------------------------------------------------------------

def trace_to_jsonl(trace: Trace) -> str:
    """One JSON object per event and line, as ``json.dumps(..., sort_keys=True)``
    writes it: keys in sorted order (``channel``, ``kind``, ``payload`` of
    ``kind``/``value`` objects, ``process``, ``step``), strings ASCII-escaped,
    and each magnitude as an exact decimal or ``p/q`` string."""
    text_of = _by_identity(lambda q: f'{{"kind": {encode_basestring_ascii(q.kind.name)}, '
                                    f'"value": "{fraction_str(q.magnitude)}"}}')

    # The text around the payload, per (channel, kind, process).
    frames: dict[tuple, tuple[str, str]] = {}
    lines = []
    for step, kind, channel, process, payload in trace:
        frame = frames.get((channel, kind, process))
        if frame is None:
            frame = frames[channel, kind, process] = (
                f'{{"channel": {"null" if channel is None else encode_basestring_ascii(channel)}, '
                f'"kind": {encode_basestring_ascii(kind)}, "payload": [',
                f'], "process": {encode_basestring_ascii(process)}, "step": ')
        lines.append(f"{frame[0]}{', '.join(map(text_of, payload))}{frame[1]}"
                     f"{int.__repr__(step)}}}\n")
    return "".join(lines)


def trace_from_jsonl(text: str, registry: KindRegistry) -> Trace:
    events = []
    # A trace repeats a handful of (kind, value) pairs; equal ones share a Quantity.
    quantities: dict[tuple[str, str], Quantity] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        payload = []
        for p in data["payload"]:
            key = (p["kind"], p["value"])
            try:
                quantity = quantities[key]
            except (KeyError, TypeError):  # TypeError: a JSON array or object, refused below
                quantity = Quantity(parse_fraction(key[1]), registry.resolve(key[0]))
                quantities[key] = quantity
            payload.append(quantity)
        events.append(TraceEvent(data["step"], data["kind"], data["channel"],
                                 data["process"], tuple(payload)))
    return Trace(tuple(events))


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
