"""The resilient serving layer: ``repro.serve`` over the result cache.

An asyncio HTTP service exposing the repo's evaluation surface --
``/run``, ``/speedup``, ``/figure``, ``/profile``, ``/trace`` -- over
:func:`repro.api.run` and the persistent result cache, engineered for
failure first.  Every response is classifiable (the ``X-Repro-Served``
header) as exactly one of:

* ``fresh`` -- computed now, or served from the disk cache;
* ``coalesced`` -- rode an identical in-flight computation
  (single-flight);
* ``stale-degraded`` -- a last-known-good response served because the
  pool is saturated, the deadline passed, or the request's own run
  killed its worker; **always** marked with a ``Degraded:`` header so a
  degraded answer can never masquerade as a fresh one;
* ``shed`` -- refused (429 + ``Retry-After``) because every degradation
  rung above was unavailable.

The invariants of the ladder (DESIGN.md §5i): a degraded response is
always a *complete, previously-correct* result, never a partial one;
shedding is explicit, never a hang; and the only 5xx the server ever
originates is an *injected* fault surfacing to the request that
injected it (marked ``X-Repro-Injected``).

Conditional requests: 200 responses carry a strong ``ETag`` over the
canonical result bytes -- the same bytes every byte-identity guarantee
in this repo is stated over -- and an ``If-None-Match`` that names it
(alone, ``W/``-prefixed, in a list, or as ``*``) yields a 304.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import hashlib
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.bench.cache import (ResultCache, canonical_json,
                               default_cache_dir, source_fingerprint)
from repro.bench.pool import (DeadlineExceeded, PoolSaturated, TaskError,
                              WorkerCrash, WorkerPool)
from repro.kernels import get_backend
from repro.serve.config import ServeConfig
from repro.serve.http import (HttpError, Request, Response, read_request,
                              render_response)
from repro.serve.singleflight import SingleFlight

__all__ = ["ReproServer"]

#: Largest cluster one request may ask for, replica servers included (the
#: server's own ceiling; everything else about a run's validity is
#: ``RunConfig``'s call).
_MAX_NPROCS = 64


class _BadRequest(Exception):
    """Client error; becomes a 400 with the message in the body."""


@dataclass
class _StaleEntry:
    body: bytes
    content_type: str
    etag: str
    stored_at: float


def _etag_for(body: bytes) -> str:
    return '"' + hashlib.sha256(body).hexdigest() + '"'


def _none_match(header: Optional[str], etag: str) -> bool:
    """``If-None-Match`` against ``etag`` (RFC 9110 section 13.1.2):
    ``*`` or a comma-separated list, compared weakly (``W/`` ignored)."""
    if header is None:
        return False
    return header == etag or header.strip() == "*" or any(
        tag.strip().removeprefix("W/") == etag for tag in header.split(","))


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
            self._handle_connection, self.config.host, self.config.port)
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

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(render_response(
                        self._error(400, str(exc)), keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch_safely(request)
                keep = request.keep_alive
                writer.write(render_response(response, keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with the connection open: close quietly.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch_safely(self, request: Request) -> Response:
        self.metrics["requests"] += 1
        try:
            return await self._dispatch(request)
        except _BadRequest as exc:
            return self._error(400, str(exc))
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

    def _error(self, status: int, message: str,
               headers: Optional[list] = None) -> Response:
        self.metrics["bad_requests" if status == 400 else "errors"] += 1
        return Response(status=status,
                        body=_json_body({"error": message}),
                        headers=(headers or [])
                        + [("X-Repro-Served", "rejected")])

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
        if path in ("/run", "/speedup", "/figure", "/profile", "/trace"):
            return await getattr(self, f"_{path[1:]}_endpoint")(request)
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
    def _config(request: Request, *, verb: Tuple[str, ...] = (),
                only: Optional[FrozenSet[str]] = None,
                **defaults: Any) -> Any:
        """The request's ``RunConfig``: every query parameter named after
        a leaf (``nprocs``, ``faults.loss``) over ``defaults``, converted
        and validated exactly as the CLI's flags are.  ``verb`` names the
        endpoint's own parameters; a leaf outside ``only`` is refused,
        never dropped.  Every message is the 400 body."""
        from repro import api
        table = api.leaves(api.RunConfig)
        values = dict(defaults)
        for name, text in request.query.items():
            if name in verb or name not in table:
                continue
            if only is not None and name not in only:
                raise _BadRequest(f"{request.path} does not take {name}")
            try:
                values[name] = table[name].parse(text)
            except ValueError as exc:
                raise _BadRequest(f"bad {name}: {exc}")
        try:
            config = api.from_leaves(api.RunConfig, values)
        except ValueError as exc:
            raise _BadRequest(str(exc))
        replicas = config.replication.replicas if config.replication else 0
        if config.nprocs + replicas > _MAX_NPROCS:
            raise _BadRequest(
                f"nprocs + replication.replicas must be <= {_MAX_NPROCS}, "
                f"got {config.nprocs + replicas}")
        return config

    def _series(self, request: Request, **defaults: Any
                ) -> Tuple[Any, List[int]]:
        """``?nprocs=N,N,...`` endpoints: the config at the largest count
        (the ceiling's case), and every count admitted on its own."""
        from repro import api
        try:
            counts = api.nprocs_list(request.query.get("nprocs", "1,2,4,8"))
            config = self._config(request, verb=("nprocs",),
                                  nprocs=max(counts), **defaults)
            for n in counts:
                dataclasses.replace(config, nprocs=n)
        except ValueError as exc:
            raise _BadRequest(str(exc))
        return config, list(counts)

    @staticmethod
    def _logical_key(request: Request) -> str:
        skip = {"deadline_ms", "inject"}
        items = sorted((k, v) for k, v in request.query.items()
                       if k not in skip)
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
        etag = _etag_for(body)
        self._stale_put(logical, body, content_type, etag)
        headers = [("ETag", etag),
                   ("X-Repro-Served", classification),
                   ("X-Repro-Cache", cache_state)]
        if _none_match(request.headers.get("if-none-match"), etag):
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
                       deadline_s: float) -> Response:
        """Run the cold path: coalesce, admit, wait under the deadline."""
        deadline_at = time.monotonic() + deadline_s
        payload = dict(payload)
        payload["deadline"] = time.time() + deadline_s
        inject = payload.get("inject")
        if inject:
            flight_key = f"{flight_key}|inject={inject}"
        task = self.flights.peek(flight_key)
        if task is not None:
            task = self.flights.join(flight_key)
            created = False
        else:
            try:
                self.pool.acquire_slot()
            except PoolSaturated:
                return self._degrade_or_shed(logical, "queue_full")
            task = self.flights.create(
                flight_key, lambda: self._run_flight(payload))
            created = True
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
            if exc.type in ("NodeFailure", "TransportError", "RaceError",
                            "EngineDeadlock"):
                # The run fails as the request configured it (more crashes
                # than it can survive, a link that drops every retry, the
                # watchdog ending a retransmission storm): deterministic,
                # so the client's to fix, not a 5xx.
                raise _BadRequest(str(exc))
            raise
        body = data["body"].encode()
        classification = "fresh" if created else "coalesced"
        return self._respond_fresh(request, logical, body,
                                   data["content_type"],
                                   classification=classification,
                                   cache_state="miss")

    async def _compute_uncached(self, request: Request, kind: str,
                                config: Any, **extra: Any) -> Response:
        """Endpoints with no disk-cache read of their own: a ``kind`` task
        over ``config`` on the cold path, coalesced and degraded by the
        logical request."""
        payload = {"kind": kind, "config": config.to_json(), **extra}
        deadline_s = self._deadline_seconds(request)
        inject = self._injection(request)
        if inject is not None:
            payload["inject"] = inject
        logical = self._logical_key(request)
        return await self._compute(request, logical, logical, payload,
                                   deadline_s)

    async def _run_flight(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The leader's computation (shared by every coalesced waiter)."""
        try:
            return await self.pool.run(payload)
        finally:
            self.pool.release_slot()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _run_endpoint(self, request: Request) -> Response:
        from repro import api
        config = self._config(request)
        deadline_s = self._deadline_seconds(request)
        inject = self._injection(request)
        logical = self._logical_key(request)
        if inject is None:
            key, result = api.lookup(config, self.cache)
            if result is not None:
                return self._respond_fresh(
                    request, logical, result.to_json_bytes(),
                    "application/json", classification="fresh",
                    cache_state="hit")
        else:
            key = api.cache_key(config)
        task_payload = {"kind": "run", "config": config.to_json()}
        if inject is not None:
            task_payload["inject"] = inject
        return await self._compute(request, logical, key, task_payload,
                                   deadline_s)

    async def _speedup_endpoint(self, request: Request) -> Response:
        config, counts = self._series(request)
        return await self._compute_uncached(request, "speedup", config,
                                            nprocs_list=counts)

    async def _figure_endpoint(self, request: Request) -> Response:
        # A figure draws both systems: ``system`` is the endpoint's own.
        config, counts = self._series(request, only=_all_leaves("system"))
        return await self._compute_uncached(request, "figure", config,
                                            nprocs_list=counts)

    async def _profile_endpoint(self, request: Request) -> Response:
        # Both systems unless ``system`` is given, as on the CLI.
        config = self._config(request, only=_PROFILED, preset="tiny")
        return await self._compute_uncached(
            request, "profile", config, both="system" not in request.query)

    async def _trace_endpoint(self, request: Request) -> Response:
        from repro.bench import harness
        try:
            experiment = harness.experiment_of_app(
                request.query.get("app", ""))
        except KeyError as exc:
            raise _BadRequest(exc.args[0])
        limit = request.query.get("limit", "60")
        if not limit.isdigit() or int(limit) < 1:
            raise _BadRequest(f"limit must be an integer >= 1, "
                              f"got {limit!r}")
        config = self._config(request, verb=("app", "limit"),
                              only=_all_leaves("experiment"),
                              experiment=experiment, nprocs=2,
                              preset="tiny")
        return await self._compute_uncached(request, "trace", config,
                                            limit=int(limit))


#: The fields ``/profile`` varies; the profiler sets ``obs``/``analysis``.
_PROFILED = frozenset(("experiment", "system", "nprocs", "preset"))


@functools.lru_cache(maxsize=None)
def _all_leaves(*but: str) -> FrozenSet[str]:
    """Every ``RunConfig`` leaf except ``but`` (an endpoint's own)."""
    from repro import api
    return frozenset(api.leaves(api.RunConfig)).difference(but)
