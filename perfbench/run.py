"""The domcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere; it uses the domcalc sources of the checkout it sits in
(``src/``) and writes only under ``.perfbench_work/`` there.  Each pass of
a workload runs in a fresh interpreter (``worker.py``), one command at a
time, closed loop, one process, no threads.  Passes repeat until ``S``
seconds have gone.  The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The exit code is 1 when any output check failed, and 2,
with no result printed, when the benchmark cannot run.

Workloads, metrics and what each layer metric should move are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
AIRCRAFT = SRC / "domcalc" / "corpus"
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

# Sizes are fixed; the seed picks content only, so every seed asks for the
# same work.  The aircraft trace does not depend on the seed (one rendezvous
# is enabled at a time), so reference.json holds one digest per workload,
# for these step counts.
AIRCRAFT_STEPS = 12000
REPLAY_STEPS = 10000
PAIRS = 100
PAIRS_STEPS = 300
CORPUS_SMALL = 120
CORPUS_LARGE = tuple(range(10, 40))
SETUP_SAMPLES = 11
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

WORKLOADS = ("aircraft_long", "pairs_wide", "compile_corpus", "trace_replay")
WORK_UNIT = {"aircraft_long": "rendezvous_per_s", "pairs_wide": "rendezvous_per_s",
             "compile_corpus": "models_per_s", "trace_replay": "events_per_s"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
              "model_p50_ms": "ms", "model_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dsl.parse_s": "s", "dsl.bytes": "bytes", "dsl.bytes_per_s": "bytes/s",
    "dsl.print_s": "s", "analysis.check_s": "s", "analysis.decls": "count",
    "compiler.compile_s": "s", "compiler.compile_calls": "count",
    "compiler.processes": "count", "compiler.channels": "count",
    "compiler.emit_s": "s", "compiler.emit_bytes": "bytes",
    "simulator.instantiate_s": "s", "simulator.run_s": "s",
    "simulator.run_rendezvous_per_s": "1/s", "simulator.rendezvous": "count",
    "simulator.env_reads": "count", "simulator.recursions": "count",
    "simulator.events": "count", "simulator.monitor_s": "s",
    "simulator.monitor_self_s": "s", "simulator.monitor_checked": "count",
    "simulator.jsonl_write_s": "s", "simulator.jsonl_bytes": "bytes",
    "simulator.jsonl_read_s": "s", "simulator.jsonl_read_events_per_s": "1/s",
    "cli.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=timeout,
                          capture_output=True, text=True)


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import domcalc and build the
    unit registry, after one untimed start that leaves bytecode caches warm;
    and the host factor just before the samples."""
    code = ("import time; t = time.perf_counter(); import domcalc.units; "
            "domcalc.units.builtin_registry(); print(time.perf_counter() - t, domcalc.__file__)")
    factor = calibrate.factor([calibrate.reference_seconds() for _ in range(2)])
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = _python(["-c", code], timeout=60)
        if done.returncode != 0:
            raise BenchError(f"cannot import domcalc:\n{done.stderr}")
        seconds, origin = done.stdout.split()
        if Path(origin).resolve().parent != SRC / "domcalc":
            raise BenchError(f"domcalc imported from {origin}, not from {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples[1:]), factor


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs for ``seed``; return the job fields
    shared by its passes."""
    if workload == "aircraft_long":
        return {"params": {"steps": AIRCRAFT_STEPS}, "digest": REFERENCE["aircraft_long"]}
    if workload == "pairs_wide":
        spec = gen.pairs_wide(seed, PAIRS)
        (work / "pairs.dom").write_text(gen.model_text(spec), encoding="utf-8")
        (work / "pairs.json").write_text(gen.script_json(spec), encoding="utf-8")
        return {"params": {"dom": str(work / "pairs.dom"), "script": str(work / "pairs.json"),
                           "steps": PAIRS_STEPS, "pairs": PAIRS}}
    if workload == "compile_corpus":
        models = []
        for i, spec in enumerate(gen.corpus(seed, CORPUS_SMALL, CORPUS_LARGE)):
            path = work / f"model-{i:03d}.dom"
            path.write_text(gen.model_text(spec), encoding="utf-8")
            models.append(str(path))
        return {"params": {"models": models, "small": CORPUS_SMALL, "large": CORPUS_LARGE}}
    # trace_replay: the saved trace is made here, outside any timed region,
    # and must match its reference digest so every commit replays the same bytes.
    trace = work / "replay.jsonl"
    done = _python(["-m", "domcalc.cli", "simulate", str(AIRCRAFT / "aircraft.dom"),
                    "--script", str(AIRCRAFT / "aircraft_script.json"),
                    "--steps", str(REPLAY_STEPS), "--seed", str(seed),
                    "--trace", str(trace)], timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"cannot write the replay trace:\n{done.stderr}")
    digest = check.sha256(trace)
    if digest != REFERENCE["trace_replay"]:
        raise BenchError(f"replay trace sha256 {digest} is not the reference")
    return {"params": {"trace": str(trace)}}


def run_pass(job: dict, work: Path) -> dict:
    job_path = work / f"job-{job['pass']}.json"
    result_path = work / f"result-{job['pass']}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    done = _python([str(HERE / "worker.py"), str(job_path), str(result_path)],
                   timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"pass {job['pass']} of {job['workload']} crashed:\n{done.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = measure_setup()
    shared = prepare(workload, seed, work)
    passes: list[dict] = []
    expect = None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES * (1 + traced) or time.perf_counter() - start < seconds:
        # With --trace 1 untraced and traced passes alternate, so the
        # tracing overhead is measured under the same conditions.
        job = dict(shared, workload=workload, seed=seed, work=str(work), expect=expect,
                   **{"pass": len(passes), "traced": traced and len(passes) % 2 == 1})
        passes.append(run_pass(job, work) | {"traced": job["traced"]})
        expect = passes[-1]["expect"]
    return summarize(workload, setup, passes, traced)


def summarize(workload: str, setup: tuple[float, float], passes: list[dict],
              traced: bool) -> dict:
    """End-to-end times are divided by the host factor taken just before
    them (see calibrate.py); the raw medians are printed beside them."""
    plain = [p for p in passes if not p["traced"]]
    for p in passes:
        p["factor"] = calibrate.factor(p["reference_s"])
    latencies_ms = sorted(1000 * s / p["factor"] for p in plain for s in p["latencies_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for message in [m for p in passes for m in p["messages"]][:10]:
        print(f"check failed: {message}", file=sys.stderr)
    if traced:
        layered = [p for p in passes if "layers" in p]
        if not layered:
            raise BenchError(f"no traced pass of {workload} checked correct")
        values = {name: statistics.median(p["layers"][name] for p in layered)
                  for name in PER_LAYER if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] / p["factor"] for p in layered)
            / statistics.median(p["wall_s"] / p["factor"] for p in plain))
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup[0] / setup[1],
            "wall_s": statistics.median(p["wall_s"] / p["factor"] for p in plain),
            "throughput_per_s": statistics.median(p["work"] / p["wall_s"] * p["factor"]
                                                  for p in plain),
            "model_p50_ms": statistics.median(latencies_ms),
            "model_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    print(f"{workload}: {len(passes)} passes, {len(latencies_ms)} timed commands, "
          f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted}), "
          f"throughput counts {WORK_UNIT[workload]}")
    print(f"  host factor {statistics.median(p['factor'] for p in passes):.4f}, "
          f"raw setup_s {setup[0]:.6g} s, "
          f"raw wall_s {statistics.median(p['wall_s'] for p in plain):.6g} s")
    for name, value in values.items():
        print(f"  {name:36} {value:>16.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    for needed in (SRC / "domcalc" / "__init__.py", ROOT / "tests" / "golden"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a domcalc checkout", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{m}": v for w, r in results.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
