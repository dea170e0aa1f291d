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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .analysis import parse_value, registry_for_model
from .model import DomainModel, ProcessDef, ProcessGraph
from .units import KindRegistry, Quantity, fraction_str, parse_fraction

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

    ``points`` are (step, value) pairs; between points the last value holds.
    A finite track is exhausted after its final point; a cyclic track repeats
    with period ``cycle``.
    """

    points: tuple[tuple[int, Quantity], ...]
    cycle: Optional[int] = None

    def value_at(self, step: int) -> Optional[Quantity]:
        if self.cycle:
            step %= self.cycle
        elif self.points and step > max(p for p, _ in self.points):
            return None  # finite track exhausted
        value = None
        for pstep, pvalue in self.points:
            if pstep <= step:
                value = pvalue
        return value


@dataclass(frozen=True)
class EnvironmentScript:
    tracks: dict[str, ScriptTrack]

    @staticmethod
    def from_json(data: dict, graph: ProcessGraph) -> "EnvironmentScript":
        """Build a script from the JSON form: channel -> [[step, "value"], ...]
        or channel -> {"points": [...], "cycle": N}.  Steps are non-negative
        and a cycle is a positive integer; anything else raises ``ScriptError``."""
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
                try:
                    step = int(step)
                    value = parse_value(text, kind, registry)
                except (TypeError, ValueError, ZeroDivisionError) as exc:
                    raise ScriptError(f"{name!r} at step {step!r}: {exc}") from None
                if step < 0:
                    raise ScriptError(f"{name!r}: point at negative step {step}")
                parsed.append((step, value))
            tracks[name] = ScriptTrack(tuple(sorted(parsed, key=lambda p: p[0])), cycle)
        return EnvironmentScript(tracks)


@dataclass(frozen=True)
class TraceEvent:
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
    recursed_in_phase: bool = False

    def action(self):
        receives = self.process.body.receives
        sends = self.process.body.sends
        if self.pc < len(receives):
            return ("recv", receives[self.pc])
        if self.pc < len(receives) + len(sends):
            return ("send", sends[self.pc - len(receives)])
        return ("recurse", None)


def apply_chain(model: DomainModel, registry: KindRegistry, chain: Iterable[str],
                value: Quantity) -> Quantity:
    """Push ``value`` through the named conversions, first to last."""
    for name in chain:
        conv = model.conversion(name)
        value = conv.apply(value, registry.resolve(conv.to_kind))
    return value


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
    events: list[TraceEvent] = []
    steps = 0

    def recurse(state: _ProcState) -> None:
        for update in state.process.body.updates:
            payload = state.received.get(update.channel)
            if payload is None:
                continue
            state.controllables[update.attr] = apply_chain(
                model, registry, update.chain, payload[update.index])
        payload = tuple(state.controllables[a]
                        for a in state.process.signature.controllable_params)
        events.append(TraceEvent(steps, RECURSION, None, state.process.name, payload))
        state.pc = 0
        state.recursed_in_phase = True

    def advance_phase() -> None:
        for state in states:
            state.recursed_in_phase = False
        for state in states:
            while True:
                op, arg = state.action()
                if op == "recv" and arg in external:
                    value = None
                    track = config.script.tracks.get(arg)
                    if track is not None:
                        value = track.value_at(steps)
                    if value is None:
                        break  # script exhausted: blocked for good
                    events.append(TraceEvent(steps, RECEIVE, arg,
                                             state.process.name, (value,)))
                    state.received[arg] = (value,)
                    state.pc += 1
                elif op == "recurse":
                    if state.recursed_in_phase:
                        break  # one cycle per phase for channel-free spinners
                    recurse(state)
                else:
                    break  # blocked on an inter-behaviour action

    def enabled_pairs():
        pairs = []
        for sender in states:
            op, arg = sender.action()
            if op != "send":
                continue
            for receiver in states:
                rop, rarg = receiver.action()
                if rop == "recv" and rarg == arg.channel and rarg not in external:
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
            apply_chain(model, registry, () if conv_name is None else (conv_name,),
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
    """One verdict per declared axiom.

    At every recursion event of the axiom's target behaviour the controllable
    values must equal the declared conversion chains applied to the most
    recent payloads received on the corresponding channels.
    """
    from .compiler import compile_model

    graph = compile_model(model)
    registry: KindRegistry = graph.registry
    processes = {p.name: p for p in graph.processes()}
    verdicts: list[Verdict] = []
    for axiom in model.axioms:
        target = model.endurant(axiom.target_sort)
        process = processes.get(target.behaviour_name) if target else None
        if process is None:
            verdicts.append(Verdict(axiom.name, "pass", checked=0))
            continue
        updates = {u.attr: u for u in process.body.updates}
        order = process.signature.controllable_params
        last: dict[str, tuple[Quantity, ...]] = {}
        verdict = None
        checked = 0
        for event in trace:
            if event.kind == RECEIVE and event.process == process.name:
                last[event.channel] = event.payload
            if event.kind != RECURSION or event.process != process.name:
                continue
            expected: list[Quantity] = []
            actual: list[Quantity] = []
            complete = True
            for attr in axiom.target_attrs:
                update = updates.get(attr)
                if update is None or update.channel not in last:
                    complete = False
                    break
                expected.append(apply_chain(model, registry, update.chain,
                                            last[update.channel][update.index]))
                actual.append(event.payload[order.index(attr)])
            if not complete:
                continue
            checked += 1
            if expected != actual:
                verdict = Verdict(axiom.name, "fail", event.step,
                                  tuple(expected), tuple(actual), checked)
                break
        verdicts.append(verdict or Verdict(axiom.name, "pass", checked=checked))
    return verdicts


def conversion_roundtrip_check(model: DomainModel, samples: int, seed: int) -> list[Verdict]:
    """Check every declared inverse pair on sampled values, exactly.

    Conversions without an inverse are skipped: recordings cannot be
    converted back to actual values by design.
    """
    import random

    registry, _ = registry_for_model(model)
    rng = random.Random(seed)
    verdicts: list[Verdict] = []
    first_declared = {c.name: c for c in reversed(model.conversions)}
    for conv in model.conversions:
        if conv.inverse_of is None:
            continue
        partner = first_declared.get(conv.inverse_of)
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
    lines = []
    for event in trace:
        lines.append(json.dumps({
            "step": event.step,
            "kind": event.kind,
            "channel": event.channel,
            "process": event.process,
            "payload": [{"kind": q.kind.name, "value": fraction_str(q.magnitude)}
                        for q in event.payload],
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str, registry: KindRegistry) -> Trace:
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        payload = tuple(Quantity(parse_fraction(p["value"]), registry.resolve(p["kind"]))
                        for p in data["payload"])
        events.append(TraceEvent(data["step"], data["kind"], data["channel"],
                                 data["process"], payload))
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
