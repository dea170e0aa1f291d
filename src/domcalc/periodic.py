"""Replay of runs that repeat: detection, the replayed events, and the
monitor's bulk handling of the repeated windows.

Over a script whose tracks are cyclic or finite, a compiled graph is a
finite-state system once every finite track has ended, so its run is
eventually periodic: a prefix, then one window repeated.  ``Recurrence``
finds the window as the scheduler runs, recording the events of the steps
after each state key it saves; ``Replay`` is the rest of the run as copies
of those events with shifted steps.  It is the one form of a repeated
window: the scheduler returns it, ``simulator.write_jsonl`` writes its
copies in bulk, ``simulator.trace_from_jsonl`` returns one for each run of
copies it reads in bulk, and ``check_axioms`` folds it a window at a time
(``segments``).

Both sides hold a replayed run as a lasso: ``parts`` that are runs of
events and ``Replay``s, in order.  ``Events``, what ``simulator.stream``
and ``simulator.write_jsonl`` return, is one pass over a generator whose
``Replay`` is known only once its events end, so it can be neither iterated
again nor counted without being spent.  ``Lasso``, what
``simulator.trace_from_jsonl`` returns, holds its parts, and can be.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any, Callable, Collection, Generator, Iterable, Iterator, Optional


class Events:
    """An iterator over a run's events, from the generator that schedules
    them: it yields the events it took one at a time and returns the
    ``Replay`` of the rest, or None.

    Iterating it yields every event.  A consumer that knows the replay can
    instead take ``scheduled``, the scheduled events, and then, once those
    are exhausted, ``replay``, the generator's return value: the rest of the
    run, one window at a time.  ``parts`` yields the two in turn, the
    ``replay`` only if there is one."""

    def __init__(self, scheduled: Generator[Any, None, Optional[Replay]]) -> None:
        self.replay: Optional[Replay] = None
        self.scheduled = self._returned(scheduled)
        self.parts = self._parts()
        self._all = chain.from_iterable(self.parts)

    def _returned(self, scheduled: Generator[Any, None, Optional[Replay]]) -> Iterator:
        self.replay = yield from scheduled

    def _parts(self) -> Iterator[Iterable]:
        yield self.scheduled
        if self.replay is not None:
            yield self.replay

    def __iter__(self) -> Iterator:
        return self._all

    def __next__(self):
        return next(self._all)


class Replay:
    """The rest of a run that repeats one window of ``period`` steps, whose
    ``events`` are held as recorded: ``windows`` copies of them, each with
    steps ``period`` higher than the one before, the first from step
    ``start``, then the first ``rest`` events of one more copy.

    ``steps`` are the window's distinct steps, in order, and ``positions``
    each event's index into them, so that a copy makes one step number per
    distinct step.  A copy's events have the type of the window's and share
    their other fields.  Its length is its number of events."""

    def __init__(self, events: list, period: int, windows: int, rest: int) -> None:
        self.events, self.period, self.windows, self.rest = events, period, windows, rest
        self.start = events[0][0] + period
        self.steps = sorted({event[0] for event in events})
        position = {step: index for index, step in enumerate(self.steps)}
        self.positions = [position[event[0]] for event in events]
        self._columns = list(zip(*events))[1:]  # the kinds, channels, processes and payloads

    def window(self, k: int) -> Iterator:
        """The events of copy ``k``, counted from 0; copy ``windows`` is the
        tail, the events after the last whole copy."""
        shift = (k + 1) * self.period
        numbers = [step + shift for step in self.steps]
        count = len(self.events) if k < self.windows else self.rest
        return map(tuple.__new__, repeat(type(self.events[0])), zip(
            map(numbers.__getitem__, islice(self.positions, count)), *self._columns))

    def tail(self) -> Iterator:
        """The events after the last whole copy."""
        return self.window(self.windows)

    def __iter__(self) -> Iterator:
        return chain.from_iterable(map(self.window, range(self.windows + 1)))

    def __len__(self) -> int:
        return self.windows * len(self.events) + self.rest


class Lasso:
    """Events held as ``parts``, in order: lists of events, and ``Replay``s
    whose window is the events just before them, of which only the last
    part may have a tail (``segments``).  It iterates every event, as often
    as asked, and its length is their number."""

    def __init__(self, parts: list) -> None:
        self.parts = parts

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self.parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))


class Recurrence:
    """Finds the window a run repeats, from one saved state key.

    The scheduler takes a state key (each process's pc, received value
    numbers and controllables) every ``spacing`` steps.  Brent's cycle
    finding compares each key with one saved key, which it replaces by the
    current one after ``power`` checkpoints, doubling ``power`` each time:
    2, 4, 8, ... from a first checkpoint, 1, 2, 4, ... from a probe
    (``of``).  The ``spacing`` steps after each save are recorded.  When
    the next checkpoint's key equals the saved one, and ``spacing`` is
    divisible by the enabled-list length at each recorded step, the seed's
    rotation makes at each step the choice it made ``spacing`` steps
    before, from the same state, so the recorded steps end in the state
    they began in and repeat for good.
    A key that recurs d > 1 checkpoints after its save, when nothing
    recorded is the window, or a recorded length that does not divide
    ``spacing`` widens the spacing to the lcm of d·``spacing`` and the
    lengths, and the key is saved again."""

    def __init__(self, spacing: int, first: int, power: int) -> None:
        self.spacing = spacing
        self.next = first  # the step of the next checkpoint
        self.saved: Optional[tuple] = None
        self.power, self.distance = power, 0  # checkpoints since the save
        self.first = 0  # the step of the save: the first recorded step
        self._clear()

    @classmethod
    def of(cls, tracks: Collection, max_steps: int, table: int) -> Optional[Recurrence]:
        """The search over a run of ``tracks`` (``ScriptTrack``s) to
        ``max_steps``, whose scheduler has ``table`` possible rendezvous:
        checkpoints every C steps, C the lcm of the track cycles.

        The first checkpoint is the step after every finite track's last
        point, or step C when every track is cyclic, and saves its key to
        be compared at the next two checkpoints.  When every track is
        cyclic and 2·``table`` + 1 < C, a probe at step 2·``table`` + 1
        comes first instead: by then the seed's rotation has gone twice
        round the rendezvous table, and the run is most often in its loop
        already.  The probe's key is compared at the next checkpoint only;
        if it does not recur there, that checkpoint saves its key as a
        first checkpoint would, and the search goes on as from step C,
        shifted by the probe's steps.

        None when the first checkpoint plus 2·C exceeds ``max_steps``, as
        the earliest window, the C steps from the first checkpoint, would
        leave no whole copy to replay."""
        spacing = math.lcm(*(track.cycle for track in tracks if track.cycle))
        start = max((track.points[-1][0] + 1 for track in tracks
                     if not track.cycle and track.points), default=0)
        probe = not start and 2 * table + 1 < spacing
        first = 2 * table + 1 if probe else start or spacing
        if first + 2 * spacing > max_steps:
            return None
        return cls(spacing, first, 1 if probe else 2)

    def _clear(self) -> None:
        self.events: list[tuple] = []
        self.lengths: set[int] = set()

    def visit(self, steps: int, key: Callable[[], tuple], events: list[tuple],
              enabled: int) -> bool:
        """Take the checkpoint at ``steps``: ``key`` gives the state key,
        ``events`` are the events of the step before and ``enabled`` its
        enabled-list length.  True once the recorded window repeats from
        ``steps`` on; otherwise ``next`` is the next checkpoint."""
        if self.saved is not None and not self.distance:
            self.events += events
            self.lengths.add(enabled)
            if steps - self.first < self.spacing:
                self.next = steps + 1
                return False
        now = key()
        self.distance += 1
        if now == self.saved:
            if self.distance == 1 and all(self.spacing % n == 0 for n in self.lengths):
                return True
            # The key recurs, but the recorded steps are not its window: it
            # recurs after more than one checkpoint, or the seed's rotation
            # did not repeat.  Look again, with the recurrence and every
            # enabled-list length seen dividing the checkpoint spacing.
            self.spacing = math.lcm(self.distance * self.spacing, *self.lengths)
            self.power = 1
        elif self.saved is None:
            pass  # the first checkpoint: its key is saved with the power given
        elif self.distance < self.power:
            self.next = steps + self.spacing
            return False
        else:
            self.power *= 2
        self.saved, self.distance, self.first, self.next = now, 0, steps, steps + 1
        self._clear()
        return False

    def replay(self, max_steps: int) -> Replay:
        """The recorded window repeated from the step after it to
        ``max_steps``: the last, part copy holds the steps before
        ``max_steps`` and the reads and recursions at it, every event of
        that step but its send and receive."""
        windows, extra = divmod(max_steps - self.first, self.spacing)
        return Replay(self.events, self.spacing, windows - 1,
                      bisect_right(self.events, self.first + extra, key=itemgetter(0)) - 2)


def segments(trace: Iterable, checked: list[int]) -> Iterator[Iterable]:
    """The runs of ``trace``'s events for a monitor to fold in turn,
    ``checked`` being its check count per axiom.  A plain iterable is one
    run; the parts of ``Events`` or a ``Lasso`` are taken in order, each
    list or iterator of events as one run.

    A ``Replay`` meets, at its first copy, the state that its window left,
    as its window is the events just before it.  The monitor's state is the
    last payload on each channel, and a copy sets each channel it receives
    on to what the window did and leaves the others, so every copy, and the
    tail, meets that same state and makes the same checks: each a hit of
    the monitor's memo, or one of an axiom that has failed.  So the first
    copy is folded event by event, in two runs split after its first
    ``rest`` events; each later whole copy adds the first copy's counts,
    and the tail those of its first ``rest`` events, without their events.
    A ``Replay`` with no whole copy is its tail, folded event by event.
    The fold of one with whole copies leaves the monitor as a whole copy
    does, not as its tail does, so only the last part may have a tail."""
    for part in trace.parts if isinstance(trace, (Events, Lasso)) else (trace,):
        if type(part) is not Replay:
            yield part
        elif not part.windows:
            yield part.tail()
        else:
            before = checked.copy()
            first = part.window(0)
            yield islice(first, part.rest)
            at_rest = checked.copy()
            yield first
            for index, count in enumerate(before):
                checked[index] += ((checked[index] - count) * (part.windows - 1)
                                   + at_rest[index] - count)
