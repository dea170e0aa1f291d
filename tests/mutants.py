"""A mutation gate for the fast paths: the bulk trace reader and writer,
the replay and the window monitor.

These paths are optimisations over an oracle, so a bug in them gives bytes
and verdicts that look right.  Each mutant below is one exact edit of one
file of ``src/domcalc`` and the tests that must kill it.  The runner copies
``src`` to a temporary directory, applies the edit, which must match
exactly once, and runs the tests in a subprocess with ``PYTHONPATH`` on the
copy.  A mutant is killed when a test fails; one whose tests pass, or whose
edit no longer matches, fails the gate.  A change to a mutated line updates
its mutant.

Run from anywhere, with pytest installed::

    python tests/mutants.py               # every mutant
    python tests/mutants.py NAME ...      # the named mutants
    python tests/mutants.py --self-test   # the runner reports a survivor
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

SIM = "tests/test_simulator.py::"
RUN = "tests/test_run_oracle.py::"
BULK = SIM + "test_jsonl_reader_takes_repeated_windows_in_bulk"
WINDOWS = SIM + "test_jsonl_reader_reads_repeated_windows_as_the_oracle"
ONE_EDIT = SIM + "test_jsonl_reader_reads_copies_with_one_edit_as_the_oracle"
WRITER = RUN + "test_replayed_copies_are_written_as_the_oracle_in_any_piece"
READ_FOLD = SIM + "test_read_lasso_verdicts_equal_the_walk_over_every_event"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/domcalc
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, any of which must fail


MUTANTS = (
    # The bulk reader, ``simulator._accept`` and the window search.
    Mutant("reader first copy shifted twice", "simulator.py",
           "    replay = periodic.Replay(window, period, 0, 0)\n",
           "    replay = periodic.Replay(window, period, 0, 0)\n"
           "    replay.steps = [step + period for step in replay.steps]\n",
           (BULK,)),
    Mutant("reader channel and process columns swapped", "simulator.py",
           "    replay = periodic.Replay(window, period, 0, 0)\n",
           "    replay = periodic.Replay(\n"
           "        [event._replace(channel=event.process, process=event.channel)\n"
           "         for event in window], period, 0, 0)\n",
           (WINDOWS, ONE_EDIT)),
    Mutant("reader compares only the piece's length", "simulator.py",
           "        if not text.startswith(piece, at):",
           "        if len(text) - at < len(piece):",
           (WINDOWS, ONE_EDIT)),
    Mutant("reader takes a window whose steps fall", "simulator.py",
           "        if period >= 0:",
           "        if True:",
           (WINDOWS,)),
    Mutant("reader line numbers not advanced past a bulk read", "simulator.py",
           "number, since = number + len(replay), len(events)",
           "number, since = number, len(events)",
           (WINDOWS, ONE_EDIT)),
    Mutant("reader groups without their newlines", "simulator.py",
           'map("%d}\\n".__mod__, [step + shift',
           'map("%d}".__mod__, [step + shift',
           (BULK,)),
    Mutant("reader takes a window line of no head", "simulator.py",
           "    if None in heads:\n        return at, None\n",
           "",
           (WINDOWS,)),
    Mutant("reader unrolls a short window with one copy's period", "simulator.py",
           "        length, period = length * copies, period * copies",
           "        length, period = length * copies, period",
           (BULK,)),
    Mutant("reader first-piece mark never kept", "simulator.py",
           "            if anchor is None:\n",
           "            if False:\n",
           (BULK,)),
    Mutant("reader unrolls a short window back past the last bulk run", "simulator.py",
           "(len(events) - since) // length)",
           "len(events) // length)",
           (SIM + "test_jsonl_reader_takes_a_short_window_after_a_bulk_run",)),
    Mutant("reader Replay holds one copy too many", "simulator.py",
           "    replay.windows, replay.rest = divmod(taken, length)\n",
           "    replay.windows, replay.rest = divmod(taken + length, length)\n",
           (WINDOWS, ONE_EDIT)),
    Mutant("reader judges a hit one line early", "simulator.py",
           "        if count - hit < min(length, PIECE_LINES):",
           "        if count - hit < min(length, PIECE_LINES) - 1:",
           (SIM + "test_repeat_of_judges_a_hit_once_a_window_or_a_piece_follows",)),
    Mutant("reader Brent mark never moves", "simulator.py",
           "            else:\n                mark, marked, hits = fields,",
           "            elif mark is None:\n                mark, marked, hits = fields,",
           (SIM + "test_jsonl_reader_moves_brent_mark_past_prefix_heads",)),
    # The copies of a window, as the writer writes them and the reader
    # spells them (``simulator._copies``).
    Mutant("writer skips the last piece of a copy", "simulator.py",
           "        for at in range(0, end, PIECE_LINES):",
           "        for at in range(0, end - PIECE_LINES, PIECE_LINES):",
           (WRITER, RUN + "test_simulate_trace_matches_oracle_on_aircraft")),
    Mutant("copies start one copy late", "simulator.py",
           "        shift = (k + 1) * replay.period\n",
           "        shift = (k + 2) * replay.period\n",
           (BULK, WRITER)),
    # The replay and the window monitor.
    Mutant("segments counts one copy too many", "periodic.py",
           "(checked[index] - count) * (part.windows - 1)",
           "(checked[index] - count) * part.windows",
           (RUN + "test_replay_matches_oracle_on_aircraft", READ_FOLD)),
    Mutant("segments counts one copy too few", "periodic.py",
           "(checked[index] - count) * (part.windows - 1)",
           "(checked[index] - count) * (part.windows - 2)",
           (READ_FOLD,)),
    Mutant("segments counts the tail with one event more", "periodic.py",
           "yield islice(first, part.rest)",
           "yield islice(first, part.rest + 1)",
           (RUN + "test_monitor_folds_copies_and_tail_as_the_walk_over_every_event",)),
    Mutant("recurrence probes one step late", "periodic.py",
           "first = 2 * table + 1 if probe else start or spacing",
           "first = 2 * table + 2 if probe else start or spacing",
           (RUN + "test_recurrence_needs_one_whole_window_after_the_first_checkpoint",
            RUN + "test_replay_matches_oracle_on_aircraft")),
    Mutant("recurrence power grows fourfold", "periodic.py",
           "            self.power *= 2\n",
           "            self.power *= 4\n",
           (RUN + "test_replay_matches_oracle_on_aircraft",
            RUN + "test_replay_matches_oracle_on_small_cycle_scripts",
            RUN + "test_missed_probe_saves_at_the_next_checkpoint",
            RUN + "test_replay_waits_for_the_seed_rotation")),
    Mutant("replay tail takes one event more", "periodic.py",
           "key=itemgetter(0)) - 2)",
           "key=itemgetter(0)) - 1)",
           (RUN + "test_replay_matches_oracle_on_aircraft",)),
)


def run_mutant(mutant: Mutant, tests: tuple[str, ...], *options: str) -> Optional[str]:
    """Run ``tests`` against ``src`` with ``mutant`` applied: "killed",
    "survived", or None with the reason printed when the edit does not
    match once or pytest stops without running the tests."""
    source = (ROOT / "src" / "domcalc" / mutant.file).read_text(encoding="utf-8")
    matches = source.count(mutant.old)
    if matches != 1:
        print(f"  {mutant.name}: the edit matches {matches} times in {mutant.file}")
        return None
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "domcalc" / mutant.file).write_text(source.replace(mutant.old, mutant.new),
                                                   encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *options, *tests],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode == 1:  # a test failed
        return "killed"
    if done.returncode == 0:
        return "survived"
    print(f"  {mutant.name}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")
    return None


def gate(mutants: tuple[Mutant, ...]) -> bool:
    """Run every mutant against its tests; True when each is killed."""
    whole, good = time.perf_counter(), True
    for mutant in mutants:
        start = time.perf_counter()
        result = run_mutant(mutant, mutant.tests)
        print(f"{result or 'error':8} {time.perf_counter() - start:6.1f} s  {mutant.name}",
              flush=True)
        good = good and result == "killed"
    print(f"{len(mutants)} mutants in {time.perf_counter() - whole:.1f} s")
    return good


def self_test() -> bool:
    """The runner kills a mutant with its tests, reports it as a survivor
    with those tests deselected and a passing test left to run, and refuses
    an edit that does not match."""
    mutant = MUTANTS[0]
    spared = mutant.tests + (SIM + "test_trace_event_surface",)
    deselect = [option for test in mutant.tests for option in ("--deselect", test)]
    stale = mutant._replace(name="stale edit", old=mutant.old + "# no such line")
    checks = {"killed with its tests": run_mutant(mutant, mutant.tests) == "killed",
              "survives with them deselected":
                  run_mutant(mutant, spared, *deselect) == "survived",
              "a stale edit is refused": run_mutant(stale, mutant.tests) is None}
    for check, passed in checks.items():
        print(f"{'ok' if passed else 'FAILED':8} {check}")
    return all(checks.values())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that the runner reports a survivor")
    args = parser.parse_args(argv)
    if args.self_test:
        return 0 if self_test() else 1
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"no mutant named {', '.join(map(repr, unknown))}")
    chosen = tuple(known[name] for name in args.names) or MUTANTS
    return 0 if gate(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
