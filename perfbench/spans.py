"""Spans around domcalc's public functions, installed from outside the program.

Inside ``with Tracer():`` each function in ``LAYERS`` is replaced on its
module (or class) by a wrapper that records a span: name, start, end, parent span
and pass id.  Callers that look the function up on its module at call time
(``cli``, ``dsl.parse_file``, ``check_axioms``'s own compile) go through the
wrapper; nothing inside domcalc changes.  Spans stay in memory, with the
arguments and result of the call so that counts can be taken after the
timed pass, and are written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional

from domcalc import analysis, compiler, dsl, simulator

LAYERS = (
    (dsl, "parse_model", "dsl.parse"),
    (dsl, "print_model", "dsl.print"),
    (analysis, "check_wellformed", "analysis.check"),
    (compiler, "compile_model", "compiler.compile"),
    (compiler, "print_process", "compiler.emit"),
    (compiler, "graph_to_json", "compiler.emit"),
    (simulator.EnvironmentScript, "from_json", "simulator.instantiate"),
    (simulator, "instantiate", "simulator.instantiate"),
    (simulator, "run", "simulator.run"),
    (simulator, "check_axioms", "simulator.monitor"),
    (simulator, "trace_to_jsonl", "simulator.jsonl_write"),
    (simulator, "trace_from_jsonl", "simulator.jsonl_read"),
)


@dataclass(eq=False)
class Span:
    name: str
    parent: Optional[int]
    pass_id: str
    args: tuple
    start: float = 0.0
    end: float = 0.0
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.pass_id = ""
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, self.pass_id, args)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            return span.result
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self.layers:
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(name, original.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def of(self, name: str, pass_id: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.pass_id == pass_id]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                         "parent": s.parent, "pass": s.pass_id}) + "\n")


def _total(spans: list[Span]) -> float:
    return sum(s.duration for s in spans)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, pass_id: str, wall: float, check_id: str) -> dict:
    """Per-layer metrics of one pass.  ``check_id`` marks the spans of the
    output check, where the only call of ``print_model`` happens."""
    def of(name):
        return tracer.of(name, pass_id)

    parse, check, compiles = of("dsl.parse"), of("analysis.check"), of("compiler.compile")
    runs, monitors = of("simulator.run"), of("simulator.monitor")
    writes, reads = of("simulator.jsonl_write"), of("simulator.jsonl_read")
    kinds = Counter()
    env_reads = 0
    for span in runs:
        external = {c.name for c in span.args[0].graph.channels if c.external}
        for event in span.result:
            kinds[event.kind] += 1
            env_reads += event.kind == "receive" and event.channel in external
    monitor_index = {i for i, s in enumerate(tracer.spans) if s in monitors}
    nested = [s for s in tracer.spans if s.parent in monitor_index]
    parse_bytes = sum(len(s.args[0].encode()) for s in parse)
    read_events = sum(len(s.result) for s in reads)
    top = [s for s in tracer.spans if s.pass_id == pass_id and s.parent is None]
    return {
        "dsl.parse_s": _total(parse),
        "dsl.bytes": parse_bytes,
        "dsl.bytes_per_s": _rate(parse_bytes, _total(parse)),
        "dsl.print_s": _total(tracer.of("dsl.print", check_id)),
        "analysis.check_s": _total(check),
        "analysis.decls": sum(len(m.endurants) + len(m.conversions) + len(m.channels)
                              + len(m.axioms) for m, *_ in (s.args for s in check)),
        "compiler.compile_s": _total(compiles),
        "compiler.compile_calls": len(compiles),
        "compiler.processes": sum(len(s.result.processes()) for s in compiles),
        "compiler.channels": sum(len(s.result.channels) for s in compiles),
        "compiler.emit_s": _total(of("compiler.emit")),
        "simulator.instantiate_s": _total(of("simulator.instantiate")),
        "simulator.run_s": _total(runs),
        "simulator.run_rendezvous_per_s": _rate(kinds["send"], _total(runs)),
        "simulator.rendezvous": kinds["send"],
        "simulator.env_reads": env_reads,
        "simulator.recursions": kinds["recursion"],
        "simulator.events": sum(kinds.values()),
        "simulator.monitor_s": _total(monitors),
        "simulator.monitor_self_s": _total(monitors) - _total(nested),
        "simulator.monitor_checked": sum(v.checked for s in monitors for v in s.result),
        "simulator.jsonl_write_s": _total(writes),
        "simulator.jsonl_bytes": sum(len(s.result.encode()) for s in writes),
        "simulator.jsonl_read_s": _total(reads),
        "simulator.jsonl_read_events_per_s": _rate(read_events, _total(reads)),
        "cli.overhead_s": wall - _total(top),
    }
