"""Output checks that do not trust domcalc's own monitor.

Trace events are recomputed from the generator's script and coefficients
(``gen.Spec``): every environment read must carry the script value at its
step, every send the ``a2r`` image of the sensor's last reads, every
inter-behaviour receive the payload just sent, and every display recursion
``c * r + o`` of the last message received (``init 0`` before the first).
The verdict JSON must then agree with the recursion counts found here.

An event is ``(step, kind, channel, process, magnitudes)``, with exact
``Fraction`` magnitudes, whether it came from an in-memory ``Trace`` or a
JSONL file parsed with the standard ``json`` module.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

MAX_MESSAGES = 5


@dataclass
class Report:
    rendezvous: int = 0
    events: int = 0
    checked: Counter = field(default_factory=Counter)  # display behaviour -> checks
    failures: int = 0
    messages: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def trace_events(trace):
    """Events of an in-memory domcalc ``Trace``."""
    for e in trace:
        yield e.step, e.kind, e.channel, e.process, tuple(q.magnitude for q in e.payload)


def jsonl_events(path):
    """Events of a JSONL trace file, read without domcalc."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            d = json.loads(line)
            yield (d["step"], d["kind"], d["channel"], d["process"],
                   tuple(Fraction(p["value"]) for p in d["payload"]))


def check_events(spec, events) -> Report:
    report = Report()
    by_channel = {s.channel: s for s in spec.sensors}
    sensors = {s.behaviour for s in spec.sensors}
    displays = {g.behaviour: g for g in spec.groups}
    display_of = {s.channel: g.behaviour for g in spec.groups for s in g.sensors}
    env: dict[str, Fraction] = {}
    messages: dict[str, tuple] = {}
    sent = None
    for step, kind, channel, process, values in events:
        report.events += 1
        at = f"step {step} {kind} {channel or ''} {process}"
        if kind == "receive" and channel in spec.tracks:
            env[channel] = spec.tracks[channel].value_at(step)
            if values != (env[channel],):
                report.fail(f"{at}: read {values}, script says {env[channel]}")
        elif kind == "send":
            sensor = by_channel.get(channel)
            if sensor is None or process != sensor.behaviour or step != report.rendezvous:
                report.fail(f"{at}: unexpected send")
            else:
                want = tuple(a.a * env.get(f"attr_{a.name}_ch", Fraction(0))
                             for a in sensor.attrs)
                if values != want:
                    report.fail(f"{at}: sent {values}, expected {want}")
            report.rendezvous += 1
            sent = (channel, values)
        elif kind == "receive":
            if sent != (channel, values) or display_of.get(channel) != process:
                report.fail(f"{at}: receive does not match the last send")
            messages[channel] = values
            sent = None
        elif kind == "recursion" and process in displays:
            want = []
            for sensor in displays[process].sensors:
                message = messages.get(sensor.channel)
                want += [a.c * r + a.o for a, r in zip(sensor.attrs, message)] if message \
                    else [Fraction(0)] * len(sensor.attrs)
            if all(s.channel in messages for s in displays[process].sensors):
                report.checked[process] += 1
            if values != tuple(want):
                report.fail(f"{at}: holds {values}, expected {tuple(want)}")
        elif kind == "recursion" and process in sensors:
            if values:
                report.fail(f"{at}: sensor recursion carries {values}")
        else:
            report.fail(f"{at}: unexpected event")
    return report


def check_verdicts(text: str, report: Report, names: dict[str, str]) -> list[str]:
    """``names`` maps each display behaviour to its axiom's name."""
    verdicts = json.loads(text)
    got = {v["name"]: v for v in verdicts["verdicts"]}
    problems = []
    if verdicts["all_pass"] is not True:
        problems.append("all_pass is not true")
    if set(got) != set(names.values()):
        problems.append(f"verdict names {sorted(got)}")
    for behaviour, name in names.items():
        v = got.get(name)
        if v is not None and (v["status"] != "pass" or v["checked"] != report.checked[behaviour]):
            problems.append(f"{name}: {v['status']} checked {v['checked']}, "
                            f"expected pass checked {report.checked[behaviour]}")
    return problems


def axiom_names(spec) -> dict[str, str]:
    return {g.behaviour: f"tracks_{g.behaviour}" for g in spec.groups}


def check_graph(spec, graph: dict, process_text: str) -> list[str]:
    """Process and channel names of ``compile --json`` against the generator's."""
    problems = []
    processes = {p["name"] for p in graph["processes"]}
    if processes != spec.processes():
        problems.append(f"processes {sorted(processes ^ spec.processes())} differ")
    channels = {c["name"] for c in graph["channels"]}
    if channels != spec.channels():
        problems.append(f"channels {sorted(channels ^ spec.channels())} differ")
    signatures = {line.split(":")[0] for line in process_text.splitlines() if ": " in line}
    if not spec.processes() <= signatures:
        problems.append("process text lacks a behaviour signature")
    return problems
