"""Replayable tie-break schedulers for the schedule explorer.

The engine exposes one degree of scheduling freedom: when several READY
threads are tied at the minimal virtual clock, which runs first?  (See
``repro.sim.engine.Scheduler``.)  Each tie with >= 2 candidates is a
*choice point*; a whole run is therefore described by the sequence of
indices chosen at its choice points, with index 0 being the historical
default (lowest tid).

Two strategies are provided:

* :class:`RecordingScheduler` -- replays a fixed choice prefix, then takes
  the default, recording every decision and the candidate count at each
  choice point.  ``RecordingScheduler(())`` is behaviourally identical to
  no scheduler at all.
* :class:`RandomWalkScheduler` -- draws each choice from its own seeded
  ``random.Random``; the recorded trace makes any walk replayable (and
  shrinkable) via a :class:`RecordingScheduler`.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.sim.engine import Scheduler, SimTask

__all__ = ["RandomWalkScheduler", "RecordingScheduler"]


class RecordingScheduler(Scheduler):
    """Replay ``choices`` index-by-index, default (0) past the end.

    A choice that is out of range for its tie set is clamped to 0: after
    shrinking, an earlier flipped decision can change how many threads are
    tied downstream, and a clamped replay keeps the schedule well-defined.
    """

    def __init__(self, choices: Sequence[int] = ()) -> None:
        self.choices = list(choices)
        #: Index actually chosen at each choice point of the run.
        self.trace: List[int] = []
        #: Number of tied candidates at each choice point.
        self.counts: List[int] = []

    def pick(self, ready: List[SimTask]) -> SimTask:
        i = len(self.trace)
        choice = self.choices[i] if i < len(self.choices) else 0
        if not 0 <= choice < len(ready):
            choice = 0
        self.trace.append(choice)
        self.counts.append(len(ready))
        return ready[choice]


class RandomWalkScheduler(Scheduler):
    """Uniform random tie-breaks from a private seeded generator."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.trace: List[int] = []
        self.counts: List[int] = []

    def pick(self, ready: List[SimTask]) -> SimTask:
        choice = self._rng.randrange(len(ready))
        self.trace.append(choice)
        self.counts.append(len(ready))
        return ready[choice]
