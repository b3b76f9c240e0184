"""IVY-style sequentially-consistent DSM (Li & Hudak, 1986).

The baseline design TreadMarks improved on, included as a drop-in runtime
so the same applications run unmodified on both: the paper's opening --
"much work has been done in the past decade to improve the performance of
DSM systems" -- is exactly the distance between this protocol and lazy
release consistency, and running both makes it measurable.

Protocol summary (fixed distributed management):

* every page has one **owner** and a **copyset**; a fixed per-page
  manager (page number modulo processors) tracks both;
* a **read fault** asks the manager, which forwards to the owner; the
  owner ships the whole 4-KB page and keeps a read copy;
* a **write fault** asks the manager, which first *invalidates every
  copy*, then transfers the page and its ownership to the writer --
  single-writer semantics, hence sequential consistency;
* synchronization (locks, barriers) carries no consistency information
  at all: memory is always consistent.

The cost TreadMarks eliminates is visible immediately: two processors
alternately writing disjoint halves of one page make it *ping-pong* with
a full page flight each time (false sharing), and every write fault
pays whole-page transfers where TreadMarks ships word-granular diffs.
"""

from repro.ivy.api import Ivy, attach_ivy
from repro.ivy.core import IvyCore
from repro.ivy.sync import IvyBarrier, IvyLocks

__all__ = ["Ivy", "IvyBarrier", "IvyCore", "IvyLocks", "attach_ivy"]
