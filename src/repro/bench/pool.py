"""The one worker pool: spawn processes, JSON in and out, one crash policy.

``repro sweep`` submits N run configs to it, ``repro serve`` one
computation per admitted request: a ``run``, or a view of
:data:`repro.bench.views.VIEWS` by name.  Workers are processes
(``ProcessPoolExecutor`` with the ``spawn`` start method, so they inherit
no interpreter state) and exchange only JSON: :func:`work` takes a
payload dict and returns a dict -- a failed computation included, as
``{"error", "type"}`` -- so nothing that crosses the boundary needs to
unpickle (an exception with a custom constructor cannot).

* **Crash policy.**  A worker dying breaks the whole executor: every
  pending future raises ``BrokenProcessPool``, guilty and innocent
  alike.  The shared executor is rebuilt once per break, and each
  affected task is re-run alone in a fresh one-worker executor, one
  isolation re-run at a time.  A second death in isolation implicates
  exactly that task (:class:`WorkerCrash`); every other task completes.
* **Admission.**  ``workers + queue_depth`` slots; acquiring past that
  raises :class:`PoolSaturated` synchronously, so a server sheds instead
  of queueing unbounded work.
* **Deadlines.**  A payload may carry an absolute ``time.time()``
  ``deadline``; a task that expired while queued returns the
  ``{"expired": true}`` marker without computing
  (:class:`DeadlineExceeded`), while one that already started runs to
  completion and warms the result cache.
* **Chaos hook.**  ``inject: "crash"`` (the worker calls ``os._exit``)
  or ``inject: "slow:SECONDS"``; the server forwards these only when
  injection is enabled.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Dict, Optional

__all__ = ["DeadlineExceeded", "PoolSaturated", "TaskError", "WorkerCrash",
           "WorkerPool", "work"]


class PoolSaturated(Exception):
    """Every worker and queue slot is taken: shed the request."""


class WorkerCrash(Exception):
    """The task's worker died again when the task ran alone."""


class DeadlineExceeded(Exception):
    """The task's deadline passed before it started."""


class TaskError(Exception):
    """The computation raised; ``type`` names the worker's exception."""

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(f"{type_name}: {message}")
        self.type = type_name
        self.message = message


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _worker_init(cache_dir: Optional[str]) -> None:
    if cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = cache_dir


def _warmup() -> bool:
    """Imported-and-ready probe (pays the interpreter start-up cost)."""
    import repro.api  # noqa: F401
    return True


def work(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one task; JSON in, JSON out, errors included.

    ``kind`` is ``run`` or a view name, over ``config`` (a ``RunConfig``
    as JSON) and, for a view, its ``params``.  Returns ``{"body",
    "content_type", "wall_seconds"}`` (plus ``cached`` for ``run``), the
    expired marker, or ``{"error", "type"}``.
    """
    inject = payload.get("inject")
    if inject == "crash":
        os._exit(1)  # simulated worker death: the pool must isolate it
    deadline = payload.get("deadline")
    if deadline is not None and time.time() >= deadline:
        return {"expired": True}
    if inject and inject.startswith("slow:"):
        time.sleep(float(inject.split(":", 1)[1]))
    started = time.perf_counter()
    try:
        from repro import api
        from repro.bench.views import VIEWS
        kind = payload["kind"]
        if kind != "run" and kind not in VIEWS:
            raise ValueError(f"unknown task kind {kind!r}")
        config = api.RunConfig.from_json(payload["config"])
        if kind == "run":
            result = api.run(config, use_cache=payload.get("use_cache", True))
            out = {"body": result.to_json_bytes().decode(),
                   "content_type": "application/json",
                   "cached": result.cached}
        else:
            body, content_type = VIEWS[kind].render(config,
                                                    **payload["params"])
            out = {"body": body, "content_type": content_type}
    except Exception as exc:
        return {"error": str(exc), "type": type(exc).__name__}
    out["wall_seconds"] = time.perf_counter() - started
    return out


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkerPool:
    """``workers`` spawn processes behind an asyncio-facing ``run``."""

    def __init__(self, workers: int, queue_depth: int = 0, *,
                 cache_dir: Optional[str] = None) -> None:
        self.workers = workers
        self.slots = workers + queue_depth
        self.cache_dir = cache_dir
        self._inflight = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._solo: Optional[ProcessPoolExecutor] = None
        self._solo_lock = asyncio.Lock()
        self._closed = False
        #: Diagnostics for /metrics: breaks of the shared executor (one
        #: per break, however many tasks it took down) and tasks that
        #: expired while queued.
        self.crashes = 0
        self.expired_in_queue = 0

    def _spawn(self, workers: int) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn"),
            initializer=_worker_init, initargs=(self.cache_dir,))

    def _shared(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = self._spawn(self.workers)
        return self._executor

    async def prewarm(self) -> None:
        """Pay each worker's interpreter+import start-up cost up front."""
        loop = asyncio.get_running_loop()
        executor = self._shared()
        await asyncio.gather(*[loop.run_in_executor(executor, _warmup)
                               for _ in range(self.workers)],
                             return_exceptions=True)

    def shutdown(self) -> None:
        """Stop accepting work; never waits for running tasks."""
        self._closed = True
        for executor in (self._executor, self._solo):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._solo = None

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
    async def run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run one task to its result, or raise :class:`WorkerCrash`,
        :class:`DeadlineExceeded` or :class:`TaskError`.

        Never cancelled by request deadlines -- a server waits on a
        shielded view of this coroutine, so an abandoned computation
        still completes and warms the cache for the next request.
        """
        loop = asyncio.get_running_loop()
        executor = self._shared()
        try:
            out = await loop.run_in_executor(executor, work, payload)
        except BrokenProcessPool:
            if self._executor is executor:  # the first to see this break
                self.crashes += 1
                self._executor = None
                executor.shutdown(wait=False)
            out = await self._isolated(payload)
        if out.get("expired"):
            self.expired_in_queue += 1
            raise DeadlineExceeded("task expired while queued")
        if "error" in out:
            raise TaskError(out["type"], out["error"])
        return out

    async def _isolated(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Re-run a task a break took down, alone in a fresh process."""
        loop = asyncio.get_running_loop()
        async with self._solo_lock:
            self._solo = solo = self._spawn(1)
            try:
                return await loop.run_in_executor(solo, work, payload)
            except BrokenProcessPool:
                raise WorkerCrash(
                    "worker process died (twice; once in isolation)")
            finally:
                solo.shutdown(wait=False)
                self._solo = None
