"""The traced pass: an in-memory span recorder plus a cProfile run.

Spans form a ``pass -> op -> phase`` tree with parent ids.  A *phase* is
a public call of the harness that the benchmark wraps from outside for
the length of the traced pass (nothing under ``src/`` is edited):
the sequential oracle, the parallel run, result verification, cache-key
construction, the source fingerprint, and the result cache's get/put.
Each wrapper is installed under the name its callers look up, and
removed when the pass ends.

The profile is folded into layers by :mod:`layers`; spans and the fold go
to one Chrome-trace JSON file, written once, after the pass.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["PHASES", "SpanRecorder", "phase_wrappers", "write_chrome_trace"]

#: Phase names, in report order (metric ``phase.<name>_s``).
PHASES = ("seq_oracle", "parallel", "verify", "cache_key", "fingerprint",
          "cache_get", "cache_put")


class SpanRecorder:
    """Nested spans on one thread (the workloads are single-threaded;
    ``serve_warm`` runs one closed-loop client, so the server's phases
    always fall inside the request that caused them)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, cat: str) -> Iterator[None]:
        index = len(self.spans)
        record = {"name": name, "cat": cat, "id": index,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self, cat: str) -> Dict[str, float]:
        """Self time by span name for one category: a span's duration
        minus the part its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for span in self.spans:
            if span["cat"] == cat:
                own = span["end"] - span["start"] - covered[span["id"]]
                out[span["name"]] = out.get(span["name"], 0.0) + own
        return out


@contextlib.contextmanager
def phase_wrappers(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap the phase entry points in spans for the length of the block."""
    from repro import api
    from repro.apps import base
    from repro.bench.cache import ResultCache

    undo = []

    def wrap(owner: Any, attr: str, phase: str, *, frozen: bool = False):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with recorder.span(phase, "phase"):
                return inner(*args, **kwargs)

        # AppSpec is a frozen dataclass; its ``verify`` field is data.
        put = object.__setattr__ if frozen else setattr
        put(owner, attr, wrapper)
        undo.append((put, owner, attr, inner))

    wrap(base, "run_sequential", "seq_oracle")
    wrap(base, "run_parallel", "parallel")
    for spec in base.APPS.values():
        wrap(spec, "verify", "verify", frozen=True)
    wrap(api, "cache_key", "cache_key")
    # api.py binds the function at import, so its callers look it up there.
    wrap(api, "source_fingerprint", "fingerprint")
    wrap(ResultCache, "get", "cache_get")
    wrap(ResultCache, "put", "cache_put")
    try:
        yield
    finally:
        for put, owner, attr, inner in reversed(undo):
            put(owner, attr, inner)


def write_chrome_trace(path: str, recorder: SpanRecorder,
                       layers: Dict[str, Dict[str, float]],
                       meta: Optional[Dict[str, Any]] = None) -> None:
    """Spans as complete ("X") events, microseconds from the first span;
    the layer fold and run metadata ride along under ``otherData``."""
    origin = recorder.spans[0]["start"] if recorder.spans else 0.0
    events = [{
        "name": span["name"], "cat": span["cat"], "ph": "X",
        "pid": 1, "tid": 1,
        "ts": (span["start"] - origin) * 1e6,
        "dur": (span["end"] - span["start"]) * 1e6,
        "args": {"id": span["id"], "parent": span["parent"]},
    } for span in recorder.spans]
    document = {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"layers": layers, **(meta or {})}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")
