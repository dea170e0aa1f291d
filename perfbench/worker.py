"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

``run.py`` writes the job and reads the result.  The pass runs domcalc's
public entry points one command at a time, as a user would, and the timed
region spans from the first input read to the last output written.  Peak
memory is read when the timed region ends; the output checks run after it.
With ``"traced": true`` the pass runs inside a ``spans.Tracer`` and the
result carries the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import domcalc  # noqa: E402
from domcalc import analysis, cli, dsl, simulator  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

if Path(domcalc.__file__).resolve().parent != ROOT / "src" / "domcalc":
    raise SystemExit(f"domcalc imported from {domcalc.__file__}, not from this checkout")

CORPUS = ROOT / "src" / "domcalc" / "corpus"
AIRCRAFT_DOM = str(CORPUS / "aircraft.dom")
AIRCRAFT_SCRIPT = str(CORPUS / "aircraft_script.json")
AIRCRAFT_AXIOMS = {"display": "displays_track_recordings"}
GOLDEN = ROOT / "tests" / "golden"
RAISED = -1


def timed_call(operation) -> tuple[int, str, float]:
    """One operation: exit code (``RAISED`` if it raised), standard output,
    seconds.  An operation that raises is a failed operation, not a crash
    of the benchmark."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = operation()
    except Exception:
        traceback.print_exc()
        code = RAISED
    return code, out.getvalue(), time.perf_counter() - start


def command(argv: list[str]) -> tuple[int, str, float]:
    """One domcalc command, as from the shell."""
    return timed_call(lambda: cli.main(argv))


class Outcome:
    """What one pass measured and how its outputs checked.  The reference
    workload is timed twice on creation, just before the pass.  It is not
    timed after the pass, whose leftover heap would slow it."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies_s: list[float] = []
        self.peak_rss_mb = 0.0
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.emit_bytes = 0
        self.expect = None
        self.reference_s = [calibrate.reference_seconds() for _ in range(2)]

    def timed(self, wall_s: float, latencies_s: list[float]) -> None:
        """Record the timed region just ended."""
        self.wall_s = wall_s
        self.latencies_s = latencies_s
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.attempted = len(latencies_s)

    def record(self, what: str, problems: list[str]) -> None:
        """Count one operation as failed if its output had any problem."""
        if problems:
            self.failed += 1
            self.messages += [f"{what}: {p}" for p in problems[:check.MAX_MESSAGES]]


def _trace_problems(report: check.Report) -> list[str]:
    return [f"{report.failures} bad events", *report.messages] if report.failures else []


def aircraft_long(job: dict, outcome: Outcome, tracer) -> None:
    """``domcalc simulate --trace`` on the bundled aircraft model and script."""
    p = job["params"]
    trace_path = Path(job["work"]) / f"aircraft-{job['pass']}.jsonl"
    code, out, seconds = command(
        ["simulate", AIRCRAFT_DOM, "--script", AIRCRAFT_SCRIPT, "--steps", str(p["steps"]),
         "--seed", str(job["seed"]), "--trace", str(trace_path)])
    outcome.timed(seconds, [seconds])
    tracer.pass_id = "check"
    if code:
        return outcome.record("simulate aircraft", [f"exit code {code}"])
    problems = []
    digest = check.sha256(trace_path)
    if digest != job["digest"]:
        problems.append(f"trace sha256 {digest} is not the reference {job['digest']}")
    outcome.expect = job["expect"]
    if outcome.expect is None:
        spec = gen.aircraft(json.loads(Path(AIRCRAFT_SCRIPT).read_text()))
        report = check.check_events(spec, check.jsonl_events(trace_path))
        problems += _trace_problems(report)
        problems += check.check_verdicts(out, report, AIRCRAFT_AXIOMS)
        outcome.expect = {"verdicts": out, "work": report.rendezvous}
    elif out != outcome.expect["verdicts"]:
        problems.append("verdicts differ from the first pass")
    trace_path.unlink()
    outcome.work = outcome.expect["work"]
    outcome.record("simulate aircraft", problems)


def pairs_wide(job: dict, outcome: Outcome, tracer) -> None:
    """``domcalc simulate`` without a trace on N sensor/display pairs."""
    p = job["params"]
    code, out, seconds = command(
        ["simulate", p["dom"], "--script", p["script"], "--steps", str(p["steps"]),
         "--seed", str(job["seed"])])
    outcome.timed(seconds, [seconds])
    tracer.pass_id = "check"
    if code:
        return outcome.record("simulate pairs", [f"exit code {code}"])
    problems = []
    runs = [s for s in tracer.spans if s.name == "simulator.run"]
    spec = gen.pairs_wide(job["seed"], p["pairs"])
    report = check.check_events(spec, check.trace_events(runs[-1].result))
    problems += _trace_problems(report)
    problems += check.check_verdicts(out, report, check.axiom_names(spec))
    if report.rendezvous != p["steps"]:
        problems.append(f"{report.rendezvous} rendezvous, expected {p['steps']}")
    outcome.work = report.rendezvous
    outcome.record("simulate pairs", problems)


def compile_corpus(job: dict, outcome: Outcome, tracer) -> None:
    """``domcalc compile --json`` on the aircraft model, then each generated model."""
    p = job["params"]
    work = Path(job["work"])
    models = [AIRCRAFT_DOM] + p["models"]
    graphs = [work / f"graph-{job['pass']}-{i}.json" for i in range(len(models))]
    results = []
    start = time.perf_counter()
    for model, graph in zip(models, graphs):
        results.append(command(["compile", model, "--json", str(graph)]))
    outcome.timed(time.perf_counter() - start, [r[2] for r in results])
    tracer.pass_id = "check"
    specs = [None] + gen.corpus(job["seed"], p["small"], tuple(p["large"]))
    for model, graph, spec, (code, out, _) in zip(models, graphs, specs, results):
        if code:
            outcome.record(f"compile {Path(model).name}", [f"exit code {code}"])
            continue
        problems = []
        document = graph.read_text(encoding="utf-8")
        outcome.emit_bytes += len(out.encode()) + len(document.encode())
        if spec is None:
            if out != (GOLDEN / "aircraft_process.txt").read_text(encoding="utf-8"):
                problems.append("process text differs from tests/golden")
            if document != (GOLDEN / "aircraft_graph.json").read_text(encoding="utf-8"):
                problems.append("graph JSON differs from tests/golden")
        else:
            problems += check.check_graph(spec, json.loads(document), out)
            parsed, diagnostics = dsl.parse_model(Path(model).read_text(encoding="utf-8"))
            again, _ = dsl.parse_model(dsl.print_model(parsed))
            if diagnostics or again != parsed:
                problems.append("parse_model(print_model(m)) != m")
        graph.unlink(missing_ok=True)
        outcome.record(f"compile {Path(model).name}", problems)
    outcome.work = len(models)


def trace_replay(job: dict, outcome: Outcome, tracer) -> None:
    """Read a saved aircraft JSONL trace and monitor its axioms offline."""
    events = []

    def replay() -> int:
        model, diagnostics = dsl.parse_file(AIRCRAFT_DOM)
        registry, _ = analysis.registry_for_model(model)
        with open(job["params"]["trace"], encoding="utf-8") as handle:
            trace = simulator.trace_from_jsonl(handle.read(), registry)
        verdicts = simulator.check_axioms(model, trace)
        print(json.dumps(simulator.verdicts_to_json(verdicts), indent=2, sort_keys=True))
        events.append(len(trace))
        return 1 if diagnostics else 0

    code, out, seconds = timed_call(replay)
    outcome.timed(seconds, [seconds])
    tracer.pass_id = "check"
    if code:
        return outcome.record("replay aircraft trace", [f"exit code {code}"])
    problems = []
    outcome.expect = job["expect"]
    if outcome.expect is None:
        spec = gen.aircraft(json.loads(Path(AIRCRAFT_SCRIPT).read_text()))
        report = check.check_events(spec, check.jsonl_events(job["params"]["trace"]))
        problems += _trace_problems(report)
        problems += check.check_verdicts(out, report, AIRCRAFT_AXIOMS)
        outcome.expect = {"verdicts": out, "work": report.events}
    elif out != outcome.expect["verdicts"]:
        problems.append("verdicts differ from the first pass")
    if events != [outcome.expect["work"]]:
        problems.append(f"read {events} events, expected {outcome.expect['work']}")
    outcome.work = outcome.expect["work"]
    outcome.record("replay aircraft trace", problems)


PASSES = {f.__name__: f for f in (aircraft_long, pairs_wide, compile_corpus, trace_replay)}


def run_pass(job: dict) -> dict:
    """Run the job's pass and return its result as JSON-ready data."""
    outcome = Outcome()
    if job["traced"]:
        layers = spans.LAYERS
    elif job["workload"] == "pairs_wide":
        # Keep the trace that run returns, for the check; nothing is timed.
        layers = [layer for layer in spans.LAYERS if layer[2] == "simulator.run"]
    else:
        layers = ()
    with spans.Tracer(layers) as tracer:
        tracer.pass_id = str(job["pass"])
        PASSES[job["workload"]](job, outcome, tracer)
    result = {
        "wall_s": outcome.wall_s, "latencies_s": outcome.latencies_s,
        "peak_rss_mb": outcome.peak_rss_mb, "work": outcome.work,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "messages": outcome.messages, "expect": outcome.expect,
        "reference_s": outcome.reference_s,
    }
    if job["traced"] and not outcome.failed:
        layers = spans.layer_metrics(tracer, str(job["pass"]), outcome.wall_s, "check")
        layers["compiler.emit_bytes"] = outcome.emit_bytes
        result["layers"] = layers
        tracer.write(Path(job["work"]) / f"spans-{job['workload']}-{job['pass']}.jsonl")
    return result


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = run_pass(job)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
