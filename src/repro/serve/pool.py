"""Bounded worker pool: admission control, deadline propagation, retry.

Cold computations run in worker *processes* (``ProcessPoolExecutor``
with the ``spawn`` start method, the same isolation discipline as the
sweep runner).  The pool wraps the executor with the failure machinery
the serving layer needs:

* **Admission.**  ``workers + queue_depth`` slots; acquiring past that
  raises :class:`PoolSaturated` synchronously so the caller can shed
  (429) without ever queueing unbounded work.
* **Deadline propagation.**  Each task carries an absolute wall-clock
  deadline.  The server side stops waiting at the deadline; the worker
  side checks the same deadline *before starting* a queued task, so a
  request that expired while waiting never burns a worker slot (it
  returns an ``{"expired": true}`` marker instead of computing).  A
  task that already *started* runs to completion and warms the result
  cache -- abandoned, not wasted.
* **Retry on transient worker death.**  A worker process dying breaks
  the whole executor (every pending future raises
  ``BrokenProcessPool``).  The pool rebuilds the executor and retries
  innocent tasks with jittered exponential backoff; a task that itself
  injected the crash is not retried.  Retries exhausted raise
  :class:`WorkerCrash` for the circuit breaker to count.
* **Chaos hooks.**  A task payload may carry ``inject: "crash"`` (the
  worker calls ``os._exit``) or ``inject: "slow:SECONDS"``; the serve
  layer only forwards these when injection is enabled.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Dict, Optional

__all__ = ["DeadlineExceeded", "PoolSaturated", "WorkerCrash",
           "WorkerPool", "serve_worker"]


class PoolSaturated(Exception):
    """Every worker and queue slot is taken: shed the request."""


class WorkerCrash(Exception):
    """A worker died and retries are exhausted (or were not allowed)."""

    def __init__(self, message: str, *, injected: bool) -> None:
        super().__init__(message)
        self.injected = injected


class DeadlineExceeded(Exception):
    """The task's deadline passed before a result was produced."""


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _worker_init(cache_dir: Optional[str]) -> None:
    if cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = cache_dir


def serve_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one serving task inside a worker process.

    Payloads are plain JSON dicts (the same discipline as the sweep
    workers): ``kind`` selects the computation, ``deadline`` is an
    absolute ``time.time()`` instant, ``inject`` is the chaos hook.
    Returns ``{"body": str, "content_type": str}`` or the expired
    marker.
    """
    inject = payload.get("inject")
    if inject == "crash":
        os._exit(1)  # simulated worker death: the pool must recover
    deadline = payload.get("deadline")
    if deadline is not None and time.time() >= deadline:
        # Expired while queued: hand the slot back without computing.
        return {"expired": True}
    if inject and inject.startswith("slow:"):
        time.sleep(float(inject.split(":", 1)[1]))
    kind = payload["kind"]
    from repro import api
    if kind == "run":
        result = api.run(api.RunConfig.from_json(payload["config"]))
        return {"body": result.to_json_bytes().decode(),
                "content_type": "application/json",
                "cached": result.cached}
    if kind == "speedup":
        from repro.bench.cache import canonical_json
        series = api.speedup_series(
            payload["experiment"], payload["system"],
            payload["nprocs_list"], payload["preset"])
        body = canonical_json({
            "experiment": payload["experiment"],
            "system": payload["system"],
            "nprocs": payload["nprocs_list"],
            "preset": payload["preset"],
            "speedups": series,
        })
        return {"body": body, "content_type": "application/json"}
    if kind == "figure":
        from repro.cli import cmd_figure
        text = cmd_figure(payload["experiment"],
                          tuple(payload["nprocs_list"]), payload["preset"])
        return {"body": text, "content_type": "text/plain"}
    if kind == "profile":
        from repro.cli import cmd_profile
        text = cmd_profile(payload["experiment"], payload["system"],
                           payload["nprocs"], payload["preset"])
        return {"body": text, "content_type": "text/plain"}
    if kind == "trace":
        from repro.cli import cmd_trace
        text = cmd_trace(payload["app"], payload["nprocs"],
                         payload["limit"])
        return {"body": text, "content_type": "text/plain"}
    raise ValueError(f"unknown task kind {kind!r}")


def _warmup() -> bool:
    """Imported-and-ready probe (pays the interpreter start-up cost)."""
    import repro.api  # noqa: F401
    return True


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class WorkerPool:
    """The asyncio-facing pool wrapper."""

    def __init__(self, workers: int, queue_depth: int, *,
                 retry_limit: int = 3, backoff_base: float = 0.05,
                 backoff_cap: float = 1.0,
                 cache_dir: Optional[str] = None) -> None:
        self.workers = workers
        self.slots = workers + queue_depth
        self.retry_limit = retry_limit
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.cache_dir = cache_dir
        self._inflight = 0
        self._generation = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._rng = random.Random()
        #: Diagnostics for /metrics and the chaos benchmark.
        self.crashes = 0
        self.retries = 0
        self.expired_in_queue = 0

    # -- executor lifecycle --------------------------------------------
    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=get_context("spawn"),
            initializer=_worker_init, initargs=(self.cache_dir,))

    def _current_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def _note_broken(self, generation: int) -> None:
        """Replace the broken executor (only once per break)."""
        self.crashes += 1
        if generation == self._generation:
            self._generation += 1
            broken, self._executor = self._executor, None
            if broken is not None:
                broken.shutdown(wait=False)

    async def prewarm(self) -> None:
        """Pay each worker's interpreter+import start-up cost up front."""
        loop = asyncio.get_running_loop()
        executor = self._current_executor()
        futures = [loop.run_in_executor(executor, _warmup)
                   for _ in range(self.workers)]
        await asyncio.gather(*futures, return_exceptions=True)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- admission ------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    def acquire_slot(self) -> None:
        """Claim an admission slot or raise :class:`PoolSaturated`."""
        if self._inflight >= self.slots:
            raise PoolSaturated(
                f"{self._inflight} tasks in flight >= {self.slots} slots")
        self._inflight += 1

    def release_slot(self) -> None:
        self._inflight = max(0, self._inflight - 1)

    # -- execution ------------------------------------------------------
    async def run_task(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run one already-admitted task to completion (or failure).

        Never cancelled by request deadlines -- callers wait on a
        shielded view of this coroutine, so an abandoned computation
        still completes and warms the cache for the next request.
        """
        loop = asyncio.get_running_loop()
        injected = payload.get("inject") == "crash"
        attempts = 0
        while True:
            generation = self._generation
            executor = self._current_executor()
            try:
                result = await loop.run_in_executor(
                    executor, serve_worker, payload)
            # NOTE: BrokenProcessPool subclasses RuntimeError, so it
            # must be caught before the shutdown-race clause below.
            except BrokenProcessPool:
                self._note_broken(generation)
                if injected:
                    raise WorkerCrash("injected worker crash",
                                      injected=True)
                if attempts >= self.retry_limit:
                    raise WorkerCrash(
                        f"worker died {attempts + 1} times running this "
                        "task", injected=False)
                attempts += 1
                self.retries += 1
                cap = min(self.backoff_cap,
                          self.backoff_base * (2 ** attempts))
                await asyncio.sleep(self._rng.uniform(0, cap))
                continue
            except RuntimeError as exc:
                # Lost the race with a concurrent pool rebuild: the
                # captured executor was shut down between lookup and
                # submit.  Retry against the fresh one (no crash count).
                if "shutdown" not in str(exc):
                    raise
                if attempts >= self.retry_limit:
                    raise WorkerCrash("pool kept breaking under this task",
                                      injected=False)
                attempts += 1
                continue
            if result.get("expired"):
                self.expired_in_queue += 1
                raise DeadlineExceeded("task expired while queued")
            return result
