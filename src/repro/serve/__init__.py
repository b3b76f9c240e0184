"""Resilient HTTP serving layer over the result cache.

``repro serve`` turns the single-process evaluation pipeline into a
service that stays correct and responsive when traffic is hostile:
per-request deadlines propagated into a bounded worker pool (the spawn
pool ``repro sweep`` uses, :mod:`repro.bench.pool`, which re-runs a task
a worker death took down alone), single-flight coalescing of identical
cold requests, load shedding with ``Retry-After``, and graceful
degradation to header-marked stale results.  See DESIGN.md §5i.
"""

from repro.serve.app import ReproServer
from repro.serve.config import ServeConfig
from repro.serve.singleflight import SingleFlight

__all__ = [
    "ReproServer",
    "ServeConfig",
    "SingleFlight",
]
