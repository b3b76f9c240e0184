"""The resilient serving layer: ``repro serve`` over the result cache.

An asyncio HTTP service exposing ``/run`` and one ``/<view>`` route per
row of :data:`repro.bench.views.VIEWS` (``/figure``, ``/profile``,
``/trace``): the table gives each route its fields, its own parameters
and its 400 refusals, and a view's body is exactly what ``repro <view>``
prints.  ``/run`` is the one cached route; every other cold computation
is a task of the worker pool.  The ``X-Repro-Served`` header classifies
every response as exactly one rung of the degradation ladder (DESIGN.md
§5i): ``fresh`` (computed now, or from the disk cache), ``coalesced``
(rode an identical in-flight computation), ``stale-degraded`` (a
complete last-known-good response, always marked with a ``Degraded:``
header, when the pool is saturated, the deadline passed or the request's
own run killed its worker), or ``shed`` (an explicit 429 +
``Retry-After``, never a hang).  The only 5xx the server originates is
an *injected* fault surfacing to the request that injected it (marked
``X-Repro-Injected``).

200 responses carry a strong ``ETag`` over the canonical result bytes;
an ``If-None-Match`` that names it yields a 304.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import api
from repro.bench.cache import (ResultCache, canonical_json,
                               default_cache_dir, source_fingerprint)
from repro.bench.pool import (DeadlineExceeded, PoolSaturated, TaskError,
                              WorkerCrash, WorkerPool)
from repro.bench.views import VIEWS, View, admit
from repro.kernels import get_backend
from repro.serve.config import ServeConfig
from repro.serve.http import (Request, Response, etag_for, none_match,
                              serve_connection)
from repro.serve.singleflight import SingleFlight

__all__ = ["ReproServer"]

#: Largest cluster one request may ask for, replica servers included (the
#: server's own ceiling; everything else about a run's validity is
#: ``RunConfig``'s call).
_MAX_NPROCS = 64

#: The server's own query parameters (how to serve, not what to run).
_SERVER_PARAMS = frozenset({"deadline_ms", "inject"})

#: A run that fails as the request configured it is the client's to fix.
_RUN_FAILURES = frozenset(exc.__name__ for exc in api.RUN_FAILURES)


class _BadRequest(Exception):
    """Client error; becomes a 400 with the message in the body."""


@dataclass
class _StaleEntry:
    body: bytes
    content_type: str
    etag: str
    stored_at: float


def _json_body(value: Any) -> bytes:
    return (canonical_json(value)).encode()


class ReproServer:
    """One serving instance (listener + pool + stale store)."""

    def __init__(self, config: ServeConfig,
                 cache_dir: Optional[str] = None) -> None:
        self.config = config
        self.cache_dir = (str(cache_dir) if cache_dir is not None
                          else str(default_cache_dir()))
        self.cache = ResultCache(self.cache_dir)
        self.pool = WorkerPool(config.workers, config.queue_depth,
                               cache_dir=self.cache_dir)
        self.flights = SingleFlight()
        self._stale: "OrderedDict[str, _StaleEntry]" = OrderedDict()
        self.metrics: Counter = Counter()
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, prewarm: bool = True) -> None:
        if prewarm:
            await self.pool.prewarm()
        self._server = await asyncio.start_server(
            lambda reader, writer: serve_connection(
                reader, writer, self._dispatch_safely, self._bad_request),
            self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.pool.shutdown()

    async def _dispatch_safely(self, request: Request) -> Response:
        self.metrics["requests"] += 1
        try:
            return await self._dispatch(request)
        except _BadRequest as exc:
            return self._bad_request(str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Last-resort backstop: an unexpected error must still
            # produce a classifiable response, never a dropped
            # connection.  (Anything landing here is a server bug; the
            # chaos benchmark's no-uninjected-5xx check will flag it.)
            self.metrics["unexpected_errors"] += 1
            return Response(
                status=500,
                body=_json_body({"error": f"internal error: {exc}"}),
                headers=[("X-Repro-Served", "error")])

    def _bad_request(self, message: str) -> Response:
        self.metrics["bad_requests"] += 1
        return Response(status=400, body=_json_body({"error": message}),
                        headers=[("X-Repro-Served", "rejected")])

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> Response:
        if request.method != "GET":
            return Response(status=405,
                            body=_json_body({"error": "GET only"}),
                            headers=[("X-Repro-Served", "rejected")])
        path = request.path
        if path == "/healthz":
            return self._healthz()
        if path == "/metrics":
            return self._metrics_response()
        if path == "/run" or path[1:] in VIEWS:
            return await self._serve(request, VIEWS.get(path[1:]))
        return Response(status=404,
                        body=_json_body({"error": f"no route {path}"}),
                        headers=[("X-Repro-Served", "rejected")])

    def _healthz(self) -> Response:
        return Response(status=200, body=_json_body({
            "status": "ok",
            "inflight": self.pool.inflight,
            "flights": len(self.flights),
            "kernels": get_backend().name,
            "source": source_fingerprint()[:12],
        }), headers=[("X-Repro-Served", "ops")])

    def _metrics_response(self) -> Response:
        counters = dict(sorted(self.metrics.items()))
        counters.update({
            "coalesced": self.flights.coalesced,
            "worker_crashes": self.pool.crashes,
            "expired_in_queue": self.pool.expired_in_queue,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_quarantined": self.cache.quarantined,
            "stale_entries": len(self._stale),
        })
        return Response(status=200, body=_json_body(counters),
                        headers=[("X-Repro-Served", "ops")])

    # ------------------------------------------------------------------
    # Request parsing helpers
    # ------------------------------------------------------------------
    def _deadline_seconds(self, request: Request) -> float:
        raw = request.query.get("deadline_ms") \
            or request.headers.get("x-deadline-ms")
        if raw is None:
            return self.config.default_deadline
        try:
            ms = float(raw)
        except ValueError:
            raise _BadRequest(f"bad deadline_ms {raw!r}")
        if not ms > 0:  # NaN included: it would slip past the ceiling
            raise _BadRequest(f"deadline_ms must be > 0, got {raw}")
        return min(ms / 1000.0, self.config.max_deadline)

    def _injection(self, request: Request) -> Optional[str]:
        inject = request.query.get("inject")
        if inject is None:
            return None
        if not self.config.allow_injection:
            raise _BadRequest("fault injection is disabled on this server")
        if inject != "crash" and not inject.startswith("slow:"):
            raise _BadRequest(f"unknown injection {inject!r}")
        return inject

    @staticmethod
    def _admit(request: Request, view: Optional[View] = None
               ) -> Tuple[Any, Dict[str, Any]]:
        """The request's ``RunConfig`` (and, for a view, its params): every
        query parameter named after a leaf (``nprocs``, ``faults.loss``)
        or a param of the view, converted and validated exactly as the
        CLI's flags are.  A leaf outside the view's fields, or a name that
        is neither, is refused, never dropped.  Every message is the 400
        body."""
        table = api.leaves(api.RunConfig)
        own = {} if view is None else \
            {p.name: p for p in view.params if p.served}
        values = {}
        for name, text in request.query.items():
            if name in own:
                parse = own[name].parse
            elif name in table:
                if view is not None and name not in view.fields:
                    raise _BadRequest(f"{request.path} does not take {name}")
                parse = table[name].parse
                if parse is None:  # a tuple of tuples: no text spelling
                    raise _BadRequest(f"{name} has no query spelling")
            elif name in _SERVER_PARAMS:
                continue
            else:
                raise _BadRequest(f"unknown parameter {name}")
            try:
                values[name] = parse(text)
            except ValueError as exc:
                raise _BadRequest(f"bad {name}: {exc}")
        try:
            config, params = (api.from_leaves(api.RunConfig, values), {}) \
                if view is None else admit(view, values)
        except ValueError as exc:
            raise _BadRequest(str(exc))
        replicas = config.replication.replicas if config.replication else 0
        if config.nprocs + replicas > _MAX_NPROCS:
            raise _BadRequest(
                f"nprocs + replication.replicas must be <= {_MAX_NPROCS}, "
                f"got {config.nprocs + replicas}")
        return config, params

    @staticmethod
    def _logical_key(request: Request) -> str:
        items = sorted((k, v) for k, v in request.query.items()
                       if k not in _SERVER_PARAMS)
        return request.path + "?" + "&".join(f"{k}={v}" for k, v in items)

    # ------------------------------------------------------------------
    # The degradation ladder
    # ------------------------------------------------------------------
    def _stale_put(self, logical: str, body: bytes, content_type: str,
                   etag: str) -> None:
        self._stale[logical] = _StaleEntry(
            body=body, content_type=content_type, etag=etag,
            stored_at=time.monotonic())
        self._stale.move_to_end(logical)
        while len(self._stale) > self.config.stale_capacity:
            self._stale.popitem(last=False)

    def _respond_fresh(self, request: Request, logical: str, body: bytes,
                       content_type: str, *, classification: str,
                       cache_state: str) -> Response:
        etag = etag_for(body)
        self._stale_put(logical, body, content_type, etag)
        headers = [("ETag", etag),
                   ("X-Repro-Served", classification),
                   ("X-Repro-Cache", cache_state)]
        if none_match(request.headers.get("if-none-match"), etag):
            self.metrics["not_modified"] += 1
            return Response(status=304, headers=headers)
        self.metrics[classification] += 1
        return Response(status=200, body=body, content_type=content_type,
                        headers=headers)

    def _degrade_or_shed(self, logical: str, reason: str) -> Response:
        """The bottom half of the ladder: stale-degraded, else shed."""
        stale = self._stale.get(logical)
        if stale is not None:
            age = time.monotonic() - stale.stored_at
            self.metrics["degraded"] += 1
            return Response(
                status=200, body=stale.body,
                content_type=stale.content_type,
                headers=[("Degraded", f"stale; reason={reason}; "
                                      f"age={age:.1f}s"),
                         ("X-Repro-Served", "stale-degraded"),
                         ("ETag", stale.etag)])
        self.metrics["shed"] += 1
        self.metrics[f"shed_{reason}"] += 1
        return Response(
            status=429,
            body=_json_body({"error": "overloaded", "reason": reason}),
            headers=[("Retry-After", f"{self.config.retry_after:g}"),
                     ("X-Repro-Served", "shed"),
                     ("X-Repro-Reason", reason)])

    async def _compute(self, request: Request, logical: str,
                       flight_key: str, payload: Dict[str, Any],
                       deadline_s: float, inject: Optional[str]) -> Response:
        """Run the cold path: coalesce, admit, wait under the deadline."""
        deadline_at = time.monotonic() + deadline_s
        payload["deadline"] = time.time() + deadline_s
        if inject:
            payload["inject"] = inject
            flight_key = f"{flight_key}|inject={inject}"
        created = self.flights.peek(flight_key) is None
        if created:
            try:
                self.pool.acquire_slot()
            except PoolSaturated:
                return self._degrade_or_shed(logical, "queue_full")
            task = self.flights.create(
                flight_key, lambda: self._run_flight(payload))
        else:
            task = self.flights.join(flight_key)
        remaining = max(deadline_at - time.monotonic(), 0.001)
        try:
            data = await SingleFlight.wait(task, remaining)
        except asyncio.TimeoutError:
            self.metrics["deadline_timeouts"] += 1
            return self._degrade_or_shed(logical, "deadline")
        except DeadlineExceeded:
            return self._degrade_or_shed(logical, "deadline")
        except WorkerCrash:
            if inject == "crash":
                self.metrics["injected_errors"] += 1
                return Response(
                    status=500,
                    body=_json_body({"error": "injected worker crash"}),
                    headers=[("X-Repro-Injected", "crash"),
                             ("X-Repro-Served", "error")])
            return self._degrade_or_shed(logical, "worker_crash")
        except TaskError as exc:
            if exc.type in ("ValueError", "KeyError"):
                # The worker rejected the request's parameters.
                raise _BadRequest(exc.message)
            if exc.type in _RUN_FAILURES:
                # Deterministic, so the client's to fix, not a 5xx.
                raise _BadRequest(str(exc))
            raise
        return self._respond_fresh(
            request, logical, data["body"].encode(), data["content_type"],
            classification="fresh" if created else "coalesced",
            cache_state="miss")

    async def _run_flight(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The leader's computation (shared by every coalesced waiter)."""
        try:
            return await self.pool.run(payload)
        finally:
            self.pool.release_slot()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _serve(self, request: Request,
                     view: Optional[View]) -> Response:
        """``/run`` (``view`` None) or ``/<view>``: admit, then answer
        from the disk cache (``/run`` only) or run a task on the pool."""
        config, params = self._admit(request, view)
        deadline_s = self._deadline_seconds(request)
        inject = self._injection(request)
        logical = flight = self._logical_key(request)
        if view is None:
            # The one cached route: its body is the canonical RunResult
            # bytes the disk cache and the ETag are defined over.
            if inject is None:
                flight, result = api.lookup(config, self.cache)
                if result is not None:
                    return self._respond_fresh(
                        request, logical, result.to_json_bytes(),
                        "application/json", classification="fresh",
                        cache_state="hit")
            else:
                flight = api.cache_key(config)
        payload = {"kind": request.path[1:], "config": config.to_json(),
                   "params": params}
        return await self._compute(request, logical, flight, payload,
                                   deadline_s, inject)
