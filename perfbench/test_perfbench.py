"""The benchmark's own tests: seeded inputs repeat, the checks catch tampered
output, and traced layer counts repeat.  Run with

    python3 -m pytest perfbench
"""

import dataclasses
import json
from fractions import Fraction

import check
import gen
import worker
from domcalc import cli, simulator


def _pairs_inputs(tmp_path, seed=3, pairs=6):
    spec = gen.pairs_wide(seed, pairs)
    (tmp_path / "pairs.dom").write_text(gen.model_text(spec), encoding="utf-8")
    (tmp_path / "pairs.json").write_text(gen.script_json(spec), encoding="utf-8")
    return spec


def _pairs_job(tmp_path, traced, number=0, pairs=6, steps=60):
    _pairs_inputs(tmp_path, pairs=pairs)
    return {"workload": "pairs_wide", "seed": 3, "work": str(tmp_path), "pass": number,
            "traced": traced, "expect": None,
            "params": {"dom": str(tmp_path / "pairs.dom"), "script": str(tmp_path / "pairs.json"),
                       "steps": steps, "pairs": pairs}}


def _aircraft_jsonl(tmp_path, steps=200):
    path = tmp_path / "aircraft.jsonl"
    code, _, _ = worker.command(["simulate", worker.AIRCRAFT_DOM, "--script",
                                 worker.AIRCRAFT_SCRIPT, "--steps", str(steps), "--seed", "0",
                                 "--trace", str(path)])
    assert code == 0
    return path, gen.aircraft(json.loads(open(worker.AIRCRAFT_SCRIPT).read()))


def test_same_seed_same_bytes_and_other_seed_other_bytes():
    def texts(seed):
        specs = [gen.pairs_wide(seed, 30)] + gen.corpus(seed, 12, (10, 11))
        return [gen.model_text(s) + gen.script_json(s) for s in specs]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)

    def sizes(seed):
        return sorted(sum(len(s.attrs) for s in spec.sensors)
                      for spec in gen.corpus(seed, 12, (10, 11)))

    assert sizes(5) == sizes(6)  # the seed picks content, not the amount of work


def test_untampered_aircraft_trace_passes(tmp_path):
    path, spec = _aircraft_jsonl(tmp_path)
    report = check.check_events(spec, check.jsonl_events(path))
    assert report.failures == 0
    assert report.rendezvous == 200 and report.checked["display"] > 0


def test_tampered_trace_payload_is_a_failure(tmp_path):
    path, spec = _aircraft_jsonl(tmp_path)
    lines = path.read_text().splitlines()
    index = max(i for i, line in enumerate(lines)
                if '"recursion"' in line and '"display"' in line)
    event = json.loads(lines[index])
    event["payload"][0]["value"] = str(Fraction(event["payload"][0]["value"]) + 1)
    lines[index] = json.dumps(event, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    assert check.check_events(spec, check.jsonl_events(path)).failures == 1


def test_perturbed_script_value_is_a_failure(tmp_path):
    spec = _pairs_inputs(tmp_path)
    trace = []
    original = simulator.run
    simulator.run = lambda *args: trace.append(original(*args)) or trace[-1]
    try:
        code, _, _ = worker.command(["simulate", str(tmp_path / "pairs.dom"), "--script",
                                     str(tmp_path / "pairs.json"), "--steps", "40",
                                     "--seed", "3"])
    finally:
        simulator.run = original
    assert code == 0
    assert check.check_events(spec, check.trace_events(trace[0])).failures == 0
    name, track = sorted(spec.tracks.items())[0]
    step, value = track.points[0]
    bumped = dataclasses.replace(track, points=((step, value + Fraction(1, 100)),)
                                 + track.points[1:])
    perturbed = dataclasses.replace(spec, tracks=dict(spec.tracks, **{name: bumped}))
    assert check.check_events(perturbed, check.trace_events(trace[0])).failures > 0


def test_untraced_pass_checks_its_output(tmp_path):
    result = worker.run_pass(_pairs_job(tmp_path, traced=False))
    assert (result["attempted"], result["failed"], result["work"]) == (1, 0, 60)


def test_failing_command_is_a_failed_operation(tmp_path):
    job = _pairs_job(tmp_path, traced=False)
    job["params"]["dom"] = str(tmp_path / "missing.dom")
    result = worker.run_pass(job)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert worker.timed_call(lambda: 1 / 0)[0] == worker.RAISED


def test_traced_layer_counts_repeat_and_account_for_wall(tmp_path):
    counts = ("simulator.rendezvous", "simulator.events", "simulator.env_reads",
              "simulator.recursions", "simulator.monitor_checked",
              "compiler.compile_calls", "compiler.processes", "dsl.bytes", "analysis.decls")
    runs = [worker.run_pass(_pairs_job(tmp_path, traced=True, number=n)) for n in (1, 2)]
    first, second = ({name: r["layers"][name] for name in counts} for r in runs)
    assert first == second
    assert first["compiler.compile_calls"] == 2  # the monitor compiles again
    assert first["simulator.rendezvous"] == 60
    layers = runs[0]["layers"]
    nested_compile = layers["simulator.monitor_s"] - layers["simulator.monitor_self_s"]
    top = (layers["dsl.parse_s"] + layers["analysis.check_s"] + layers["compiler.compile_s"]
           - nested_compile + layers["simulator.instantiate_s"] + layers["simulator.run_s"]
           + layers["simulator.monitor_s"] + layers["cli.overhead_s"])
    assert abs(top - runs[0]["wall_s"]) < 1e-9
    assert 0 <= layers["simulator.monitor_self_s"] <= layers["simulator.monitor_s"]
    spans = (tmp_path / "spans-pairs_wide-1.jsonl").read_text().splitlines()
    assert {json.loads(line)["pass"] for line in spans} == {"1"}


def test_tracer_restores_the_public_functions():
    before = (simulator.run, simulator.EnvironmentScript.from_json, cli.compiler.compile_model)
    with worker.spans.Tracer():
        assert simulator.run is not before[0]
    assert (simulator.run, simulator.EnvironmentScript.from_json,
            cli.compiler.compile_model) == before
