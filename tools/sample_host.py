#!/usr/bin/env python
"""Where the simulator spends host CPU time, by an untraced sampler.

cProfile pays its hook on every Python call and nothing inside numpy, so
it overstates code that makes many small calls.  This sampler adds no
per-call cost: a ``SIGPROF`` interval timer (``ITIMER_PROF``, process CPU
time, every 0.5 ms) interrupts the run, and each sample is charged to the
innermost frame of the ``repro`` package on the stack.  Time in numpy or
another C call lands on the ``repro`` frame that made it.  A sample
weighs the CPU time since the previous one, so ticks that fall inside
one long C call, and reach Python as a single signal, are not lost.

The experiments run once each at the tiny preset first (imports, numpy
set-up, the source fingerprint), untimed.  Then each runs cold, as one
``benchmarks/e2e`` grid unit does: a fresh temporary result cache and no
in-process oracle, so simulation, sequential oracle, verification and
the cache write are all sampled.

Run:   python tools/sample_host.py fig06 fig08 --system pvm --nprocs 8
       python tools/sample_host.py all --system tmk --preset bench --top 20

Prints one row per function: ``self %`` (samples it was the innermost
``repro`` frame of) and ``incl %`` (samples it was anywhere on the stack).
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro  # noqa: E402
from repro import api  # noqa: E402
from repro.bench import harness  # noqa: E402
from repro.bench.cache import ResultCache  # noqa: E402

#: Sampling interval, seconds of process CPU time.
INTERVAL = 0.0005
_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: The row charged with samples that have no ``repro`` frame.
OUTSIDE = "(no repro frame)"


class Sampler:
    """Per-function CPU seconds, self and inclusive, from SIGPROF."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.total_s = 0.0
        self.samples = 0
        self._last = 0.0
        self._names: dict = {}

    def _name(self, code) -> str | None:
        name = self._names.get(code, False)
        if name is False:
            path = os.path.abspath(code.co_filename)
            name = None
            if path.startswith(_PACKAGE):
                module = os.path.splitext(os.path.basename(path))[0]
                qualname = getattr(code, "co_qualname", code.co_name)
                name = f"{module}.{qualname}"
            self._names[code] = name
        return name

    def _tick(self, signum, frame) -> None:
        now = time.process_time()
        weight, self._last = now - self._last, now
        self.samples += 1
        self.total_s += weight
        innermost = None
        seen = set()
        while frame is not None:
            name = self._name(frame.f_code)
            if name is not None:
                if innermost is None:
                    innermost = name
                seen.add(name)
            frame = frame.f_back
        self.self_s[innermost or OUTSIDE] += weight
        for name in seen:
            self.incl_s[name] += weight

    def run(self, fn):
        """Call ``fn()`` with the timer armed; returns its result."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def report(self, top: int) -> str:
        total = self.total_s or 1.0
        lines = [f"{'self %':>7} {'incl %':>7}  frame"]
        for name, seconds in self.self_s.most_common(top):
            incl = self.incl_s.get(name, seconds)
            lines.append(f"{100 * seconds / total:7.1f} "
                         f"{100 * incl / total:7.1f}  {name}")
        return "\n".join(lines)


def cold_run(config: api.RunConfig) -> api.RunResult:
    """One run into a fresh cache, its oracle not yet computed."""
    harness.clear_cache()
    directory = tempfile.mkdtemp(prefix="sample-")
    try:
        return api.run(config, cache=ResultCache(directory))
    finally:
        shutil.rmtree(directory)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sample host CPU time of cold runs by repro frame.")
    parser.add_argument("experiments", nargs="+", metavar="EXP",
                        help="experiment ids, or 'all'")
    parser.add_argument("--system", default="pvm")
    parser.add_argument("--nprocs", type=int, default=8)
    parser.add_argument("--preset", default="bench")
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    experiments = (list(harness.EXPERIMENTS)
                   if args.experiments == ["all"] else args.experiments)
    configs = [api.RunConfig(exp, args.system, args.nprocs, args.preset)
               for exp in experiments]
    for config in configs:  # warm-up, untimed
        cold_run(api.RunConfig(config.experiment, args.system,
                               args.nprocs, "tiny"))
    sampler = Sampler()
    started = time.perf_counter()
    for config in configs:
        sampler.run(lambda: cold_run(config))
    wall = time.perf_counter() - started
    print(f"{len(configs)} cold run(s), {args.system}, {args.nprocs} "
          f"procs, {args.preset} preset: {wall:.2f} s wall, "
          f"{sampler.total_s:.2f} s CPU, {sampler.samples} samples")
    print(sampler.report(args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
