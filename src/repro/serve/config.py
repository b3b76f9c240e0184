"""Serving-layer configuration.

One frozen dataclass holds every tunable of the resilient HTTP service:
the listen address, the worker-pool shape (processes + admission queue),
the deadlines, and the degradation policy (stale store size, Retry-After
hint).  What a worker death does is not a setting: the pool's one crash
policy (:mod:`repro.bench.pool`) re-runs the task alone.  ``repro serve``
takes one flag per field (``--queue_depth 8``, ``--allow_injection``),
derived like ``RunConfig``'s; the chaos benchmark and tests
construct tighter ones (one worker, zero queue) to force each branch of
the degradation ladder deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes the service's behavior under load."""

    host: str = "127.0.0.1"
    #: TCP port; 0 asks the OS for an ephemeral port (the resolved port
    #: is printed by ``repro serve`` and exposed on the started server).
    port: int = 8095

    # -- worker pool + admission ---------------------------------------
    #: Worker *processes* executing cold simulations (spawn start
    #: method; cache reads/writes go through the shared disk cache).
    workers: int = 2
    #: Admitted-but-not-yet-running requests beyond the worker count.
    #: A cold request arriving when ``workers + queue_depth`` slots are
    #: taken is shed (429 + Retry-After) -- bounded memory, bounded
    #: queueing delay.
    queue_depth: int = 8

    # -- deadlines ------------------------------------------------------
    #: Per-request compute budget in seconds when the client sends no
    #: ``deadline_ms`` query parameter / ``X-Deadline-Ms`` header.
    default_deadline: float = 30.0
    #: Hard ceiling on any client-requested deadline.
    max_deadline: float = 300.0

    # -- graceful degradation ------------------------------------------
    #: Last-known-good responses kept in memory per logical request
    #: (serves ``Degraded: stale`` answers when the pool is saturated, a
    #: deadline passes, or a request's own run kills its worker).
    stale_capacity: int = 256
    #: ``Retry-After`` seconds attached to shed (429) responses.
    retry_after: float = 1.0

    # -- chaos hooks ----------------------------------------------------
    #: Honor ``?inject=crash`` / ``?inject=slow:SECONDS`` requests
    #: (worker kill / slow-run injection).  Only the chaos benchmark and
    #: the tests enable this; injected failures are the *only* 5xx the
    #: server ever originates.
    allow_injection: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {self.queue_depth}")
        if not (self.default_deadline > 0 and self.max_deadline > 0):
            raise ValueError("deadlines must be > 0")
