"""The unified experiment-running facade: ``repro.api.run(config)``.

Before this module existed, every caller spelled a run differently:
``Cluster(...)`` plus ``attach_tmk``/``attach_pvm``/``attach_ivy`` plus a
growing pile of fault/masking/sanitizer/observability keyword arguments,
each repeated by the CLI, the bench harness, the benchmark suite, and the
examples.  The facade collapses all of that into two types and one call:

* :class:`RunConfig` -- a frozen, hashable, JSON-round-trippable
  description of one run: which experiment, which system, how many
  processors, which preset, plus the optional fault plan (crashes
  included), failure masking (replication), sanitizer (analysis)
  settings, observability settings, and cost-model override.
* :class:`RunResult` -- the versioned result record: measured virtual
  time, the sequential baseline, message/byte totals, and the masking
  ledger.  ``to_json()``/``from_json()`` round-trip exactly; the same
  schema is what the persistent result cache stores on disk.
* :func:`run` -- executes a config (verifying the parallel result against
  the sequential program, as every run in this repo always has) *through
  the persistent result cache*: a warm call returns the stored record
  without simulating anything.

Results served from disk carry only the summary record
(``result.parallel is None``); pass ``want_parallel=True`` when live
artifacts (stats buckets, endpoints, sanitizer, profiler) are needed --
the run then executes in-process and still populates the disk cache for
later summary-level readers.  :func:`run` is the only runner of a
``RunConfig`` and the disk store the only cache of runs: the caller owns
a live result, and nothing in the process keeps a finished simulation
alive.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.analysis.races import AnalysisConfig, RaceError
from repro.apps import base
from repro.bench import harness
from repro.bench.cache import (ResultCache, cache_key_from_material,
                               canonical_json, default_cache,
                               source_fingerprint)
from repro.kernels import get_backend
from repro.obs.core import ObsConfig
from repro.scabd.config import ReplicationConfig
from repro.sim.costmodel import CostModel
from repro.sim.engine import EngineDeadlock
from repro.sim.faults import FaultPlan, TransportError
from repro.sim.recovery import NodeFailure
from repro.tmk.pages import ADDRESS_SPACE

__all__ = [
    "Leaf",
    "RESULT_SCHEMA_VERSION",
    "RUN_FAILURES",
    "RunConfig",
    "RunResult",
    "cache_key",
    "crash_spec",
    "from_leaves",
    "leaves",
    "lookup",
    "messages_at",
    "nprocs_list",
    "run",
    "seq_time",
    "simulate",
    "speedup_series",
]

#: Version of the :class:`RunResult` JSON schema (shared with the disk
#: cache).  Bump on any incompatible field change; old cached records
#: then read as misses.
RESULT_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# The field table: one walk of a config dataclass, kept for the process
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Tuple[str, Any, Any], ...]:
    """``(name, hint, default)`` per field of a config dataclass, with
    ``Optional[X]`` unwrapped to ``X``; hints resolved once per class."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is typing.Union:
            hint = next(a for a in typing.get_args(hint)
                        if a is not type(None))
        out.append((f.name, hint, f.default))
    return tuple(out)


class Leaf(typing.NamedTuple):
    """One scalar field of a config, named by its dotted path (``nprocs``,
    ``faults.loss``, ``cost.udp_mtu``): the same entry spells a CLI flag
    (``--faults.loss 0.01``) and a query parameter (``?faults.loss=0.01``).
    """

    name: str
    hint: Any
    #: ``dataclasses.MISSING`` for a required field.
    default: Any
    #: Text -> value, raising ``ValueError``; ``None``: no text spelling.
    parse: Optional[Callable[[str], Any]]
    choices: Optional[Tuple[str, ...]]


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _scalar(kind: type) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        try:
            return _BOOLS[text.strip().lower()] if kind is bool \
                else kind(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {kind.__name__}, got {text!r}") \
                from None
    return parse


def _parser_for(hint: Any) -> Optional[Callable[[str], Any]]:
    """The converter a type hint implies: a scalar as itself, a
    ``frozenset[str]`` or a flat tuple comma-separated; ``None`` (no
    spelling) for anything else, such as a tuple of tuples."""
    scalars = (int, float, str, bool)
    if hint in scalars:
        return _scalar(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is frozenset and args == (str,):
        return lambda text: frozenset(
            filter(None, (item.strip() for item in text.split(","))))
    if origin is not tuple or not all(a in scalars or a is ...
                                      for a in args):
        return None

    def parse(text: str) -> Tuple[Any, ...]:
        parts = text.split(",")
        kinds = [args[0]] * len(parts) if args[-1] is ... else args
        if len(parts) != len(kinds):
            raise ValueError(f"expected {len(kinds)} comma-separated "
                             f"values, got {text!r}")
        return tuple(_scalar(k)(part) for k, part in zip(kinds, parts))
    return parse


def crash_spec(text: str) -> Tuple[Tuple[int, float], ...]:
    """``NODE@TIME[,NODE@TIME...]`` -> ``faults.crash_at`` entries (the
    syntax only: ``FaultPlan`` and ``RunConfig`` judge the values)."""
    out = []
    for item in text.split(","):
        node, sep, time = item.partition("@")
        try:
            if not sep:
                raise ValueError
            out.append((int(node), float(time)))
        except ValueError:
            raise ValueError(
                f"malformed crash spec {item!r}: expected NODE@TIME "
                "(e.g. 2@0.5 kills node 2 at t=0.5 virtual seconds)")
    return tuple(out)


def nprocs_list(text: str) -> Tuple[int, ...]:
    """``N,N,...``: the processor counts of a figure, sweep or speedup
    series (a verb's own parameter, not a field)."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(
            f"malformed processor counts {text!r}: expected comma-separated "
            "integers (e.g. 1,2,4,8)")


#: The leaves whose spelling the type hint does not imply.  ``system`` and
#: ``preset`` get their choices from the tuples ``RunConfig`` checks.
_CHOICES = {"system": base.SYSTEMS, "preset": harness.PRESETS}
_PARSERS = {"faults.crash_at": crash_spec}


@functools.lru_cache(maxsize=None)
def leaves(cls: type) -> Mapping[str, Leaf]:
    """Every leaf of config dataclass ``cls`` by dotted name, in field
    order; built once per class per process (``RunConfig`` has 59)."""
    table: Dict[str, Leaf] = {}

    def walk(cls: type, prefix: str) -> None:
        for name, hint, default in _fields(cls):
            if dataclasses.is_dataclass(hint):
                walk(hint, f"{prefix}{name}.")
                continue
            name = prefix + name
            table[name] = Leaf(name, hint, default,
                               _PARSERS.get(name, _parser_for(hint)),
                               _CHOICES.get(name))
    walk(cls, "")
    return types.MappingProxyType(table)


def from_leaves(cls: type, values: Mapping[str, Any]) -> Any:
    """Build ``cls`` from ``{leaf name: value}``.  A nested group stays at
    its default (``None``) unless one of its leaves is given; then it is
    built from those leaves over its own defaults."""
    top: Dict[str, Any] = {}
    groups: Dict[str, Dict[str, Any]] = {}
    for name, value in values.items():
        if "." in name:
            head, _, rest = name.partition(".")
            groups.setdefault(head, {})[rest] = value
        else:
            top[name] = value
    for name in _required(cls):
        if name not in top:
            raise ValueError(f"missing {name}")
    if groups:
        hints = {name: hint for name, hint, _ in _fields(cls)}
        for head, group in groups.items():
            top[head] = from_leaves(hints[head], group)
    return cls(**top)


@functools.lru_cache(maxsize=None)
def _required(cls: type) -> Tuple[str, ...]:
    return tuple(name for name, _, default in _fields(cls)
                 if default is dataclasses.MISSING)


def _jsonify(value: Any) -> Any:
    """Dataclass/tuple/frozenset -> plain JSON-encodable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _jsonify(getattr(value, name))
                for name, _, _ in _fields(type(value))}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    return value


def _retuple(value: Any) -> Any:
    """JSON lists back to (nested) tuples, as the dataclasses expect."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    return value


def _dataclass_from_json(cls: type, data: Dict[str, Any]) -> Any:
    """Rebuild ``cls`` from its :func:`_jsonify` form: fields absent from
    ``data`` keep their defaults, keys that are not fields are ignored."""
    kwargs = {}
    for name, hint, _ in _fields(cls):
        if name not in data:
            continue
        value = data[name]
        if value is None:
            pass
        elif dataclasses.is_dataclass(hint):
            value = _dataclass_from_json(hint, value)
        elif typing.get_origin(hint) is frozenset:
            value = frozenset(value)
        elif hint in (int, bool):
            value = hint(value)
        else:
            value = _retuple(value)
        kwargs[name] = value
    return cls(**kwargs)


# ----------------------------------------------------------------------
# RunConfig
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one experiment run.

    Frozen and hashable (usable as a dict key), and JSON-round-trippable
    (usable as a sweep-worker message and as cache-key material).
    """

    #: Experiment id (``fig01`` .. ``fig12``; see ``repro.bench.harness``).
    experiment: str
    #: ``"tmk"``, ``"pvm"``, or ``"ivy"``.
    system: str = "tmk"
    nprocs: int = 8
    #: Problem-size preset: ``"tiny"``, ``"bench"``, or ``"paper"``.
    preset: str = "bench"
    #: Deterministic network fault schedule (loss, delay, crashes, ...).
    faults: Optional[FaultPlan] = None
    #: DSM sanitizer: race detection and false-sharing analysis (tmk only).
    analysis: Optional[AnalysisConfig] = None
    #: Observability: span timeline and/or time-attribution profiler.
    obs: Optional[ObsConfig] = None
    #: Hardware cost-model override (``None`` = the paper's testbed).
    cost: Optional[CostModel] = None
    #: SC-ABD failure masking: replicate pages on a quorum of dedicated
    #: servers so minority crashes are absorbed (tmk only).  Without it
    #: a crash ends the run with ``NodeFailure``.
    replication: Optional[ReplicationConfig] = None
    #: Attach the runtime protocol-invariant monitors
    #: (``repro.verify.invariants``); a broken coherence rule raises
    #: ``InvariantViolation`` mid-run.  Pure observation -- results and
    #: times are identical with or without it.
    invariants: bool = False

    #: Read-only constants, not fields (no ``__init__`` argument, not
    #: serialized, ignored in old JSON): there is one engine, and the
    #: page-op backend is whatever ``repro.kernels.get_backend()``
    #: observes.  Kept for benchmarks/e2e; remove both with the next
    #: benchmark-archetype PR.
    engine = "coro"
    kernels = get_backend().name

    def __post_init__(self) -> None:
        """The one admission point: a config that constructs will run.

        Every surface (CLI, ``repro serve``, the sweep and their worker
        processes) builds a ``RunConfig`` and only translates this
        ``ValueError``; nothing below re-derives any of it.
        """
        harness.experiment(self.experiment)
        if self.preset not in harness.PRESETS:
            raise ValueError(f"preset must be one of {harness.PRESETS}, "
                             f"got {self.preset!r}")
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.cost is not None and self.cost.page_size > ADDRESS_SPACE:
            raise ValueError(
                f"page_size must be <= {ADDRESS_SPACE}, the "
                f"{ADDRESS_SPACE >> 30} GiB address space every processor "
                f"reserves, got {self.cost.page_size}")
        base.check_options(self.system, self.analysis, self.replication)
        # Replica servers are pids nprocs .. nprocs+replicas-1, appended
        # after the application ranks, and are legitimate crash targets.
        replicas = self.replication.replicas if self.replication else 0
        for node, _ in (self.faults.crash_at if self.faults else ()):
            if node >= self.nprocs + replicas:
                raise ValueError(
                    f"crash node {node} out of range: the run has "
                    f"{self.nprocs + replicas} processors"
                    + (f" ({self.nprocs} application + {replicas} replica)"
                       if replicas else ""))

    # ------------------------------------------------------------------
    # Both directions, the CLI flags and the query parameters derive from
    # the field table: a new option is a new field, nothing to list here.
    def to_json(self) -> Dict[str, Any]:
        return _jsonify(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunConfig":
        return _dataclass_from_json(cls, data)


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """The versioned record of one run (what the disk cache stores).

    ``to_json()``/``from_json()`` round-trip byte-identically through
    :func:`repro.bench.cache.canonical_json`, which is what the sweep
    byte-identity guarantees are stated over.
    """

    experiment: str
    system: str
    nprocs: int
    preset: str
    #: Measured parallel virtual time (the speedup denominator).
    time: float
    #: Sequential virtual time of the same preset (the Table 1 number).
    seq_time: float
    #: Total messages / kilobytes inside the measured window.
    messages: int
    kbytes: float
    link_utilization: float = 0.0
    #: Quorum-replication ledger summary (``None`` unless the run used
    #: the SC-ABD failure-masking mode).
    replication: Optional[Dict[str, Any]] = None
    schema_version: int = RESULT_SCHEMA_VERSION

    # -- process-local, never serialized --------------------------------
    #: The live ParallelResult when this record was computed in-process
    #: (stats buckets, endpoints, sanitizer, timeline, profiler);
    #: ``None`` when the record was served from the disk cache.
    parallel: Optional[Any] = field(default=None, compare=False, repr=False)
    #: True when this record came from the persistent cache.
    cached: bool = field(default=False, compare=False)
    #: The cache key this record was stored/found under (diagnostics).
    cache_key: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def speedup(self) -> float:
        return self.seq_time / self.time

    @property
    def etag(self) -> str:
        """Strong HTTP entity tag over the canonical result bytes.

        Two records with byte-identical canonical encodings share an
        ETag, so the serving layer's conditional requests (If-None-Match
        -> 304) are stated over exactly the same bytes as every other
        byte-identity guarantee in this repo.
        """
        import hashlib
        return '"' + hashlib.sha256(self.to_json_bytes()).hexdigest() + '"'

    # The serialized fields are the ``compare=True`` ones, both ways.
    def to_json(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self) if f.compare}

    def to_json_bytes(self) -> bytes:
        """Canonical encoding (the unit of byte-identity comparisons)."""
        return canonical_json(self.to_json()).encode()

    @classmethod
    def from_json(cls, data: Dict[str, Any], *, cached: bool = False,
                  cache_key: Optional[str] = None) -> "RunResult":
        if data.get("schema_version") != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"RunResult schema {data.get('schema_version')!r} != "
                f"{RESULT_SCHEMA_VERSION}")
        # A required field missing from ``data`` is a KeyError, which
        # :func:`lookup` reads as a miss.
        return cls(**{f.name: (data[f.name]
                               if f.default is dataclasses.MISSING
                               else data.get(f.name, f.default))
                      for f in dataclasses.fields(cls) if f.compare},
                   cached=cached, cache_key=cache_key)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _params_repr(experiment: str, preset: str) -> str:
    """The actual parameter set the registry resolves this run to.

    Included in the key so two runs with the same (experiment, preset)
    labels but different parameters (e.g. a test that swaps in a tiny
    parameterization) can never collide.
    """
    exp = harness.EXPERIMENTS[experiment]
    return repr(harness.params_for(exp, preset))


def cache_key(config: RunConfig) -> str:
    """Content-addressed key for one run.

    Covers the experiment id and its resolved parameters, the system,
    the processor count, the preset, the fault/replication/analysis/obs
    options, the cost-model constants in effect, the result schema
    version, and the fingerprint of the source this process imported.

    Memoised on exactly those inputs, so a repeated config costs a dict
    probe.  Configs that compare equal are one run and share a slot:
    ``FaultPlan(loss=0)`` and ``FaultPlan(loss=0.0)`` encode differently
    but both get the key of whichever this process saw first.
    """
    return _key_for(config, _params_repr(config.experiment, config.preset),
                    source_fingerprint())


# Bounded: a long-lived caller sweeping fault seeds must not grow for life.
@functools.lru_cache(maxsize=4096)
def _key_for(config: RunConfig, params: str, source: str) -> str:
    """The derivation itself; ``params`` and ``source`` are the two
    inputs of a key that are not fields of ``config``."""
    cost = config.cost if config.cost is not None else CostModel.paper_testbed()
    config_material = config.to_json()
    # Key on the *resolved* cost constants only, so an explicit default
    # cost model and cost=None produce the same key.
    config_material.pop("cost")
    material = {
        "kind": "run",
        "schema_version": RESULT_SCHEMA_VERSION,
        "config": config_material,
        "params": params,
        "cost": _jsonify(cost),
        "source": source,
    }
    return cache_key_from_material(material)


def _seq_cache_key(experiment: str, preset: str) -> str:
    """Key for a cached sequential time (no cluster: no cost model)."""
    material = {
        "kind": "seq",
        "schema_version": RESULT_SCHEMA_VERSION,
        "experiment": experiment,
        "preset": preset,
        "params": _params_repr(experiment, preset),
        "source": source_fingerprint(),
    }
    return cache_key_from_material(material)


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def run(config: RunConfig, *, use_cache: bool = True,
        cache: Optional[ResultCache] = None,
        want_parallel: bool = False) -> RunResult:
    """Run one experiment configuration through the result cache.

    * On a cache hit, returns the stored :class:`RunResult` without
      simulating anything (``result.cached`` is True, ``result.parallel``
      is None).  Cached records were verified against the sequential
      program when first computed.
    * On a miss (or with ``want_parallel=True``, which always executes),
      runs the simulation in-process, verifies its result against the
      sequential run, and stores the record for future sessions.
    """
    store = (cache if cache is not None else default_cache()) \
        if use_cache else None
    key: Optional[str] = None
    if store is not None and not want_parallel:
        key, hit = lookup(config, store)
        if hit is not None:
            return hit
    return _execute(config, store, key)


#: What an admitted run raises when it fails as configured -- more
#: crashes than it can survive, a link that drops every retry, a strict
#: race check, the watchdog ending a retransmission storm.  Deterministic,
#: so the caller's to fix: ``repro serve`` answers 400, the CLI one line.
RUN_FAILURES = (NodeFailure, TransportError, RaceError, EngineDeadlock)


def lookup(config: RunConfig, cache: Optional[ResultCache] = None
           ) -> Tuple[str, Optional[RunResult]]:
    """The cache-hit half of :func:`run`: ``(cache key, stored record)``.

    The record is ``None`` when nothing is stored under the key or the
    entry is corrupt / from an older schema (the caller recomputes, and
    passes the key on so the source tree is fingerprinted once).
    """
    store = cache if cache is not None else default_cache()
    key = cache_key(config)
    payload = store.get(key)
    if payload is not None:
        try:
            return key, RunResult.from_json(payload, cached=True,
                                            cache_key=key)
        except (KeyError, ValueError):
            pass
    return key, None


def simulate(config: RunConfig, *, trace: Optional[Any] = None) -> Any:
    """The one ``RunConfig`` -> ``base.run_parallel`` mapping, uncached
    and unverified: :func:`run` and ``repro trace`` (which adds a protocol
    ``trace``) both execute through it, so no field can be dropped."""
    exp = harness.EXPERIMENTS[config.experiment]
    # A new run option is one RunConfig field plus one keyword here.
    return base.run_parallel(
        exp.app, config.system, config.nprocs,
        harness.params_for(exp, config.preset), cost=config.cost,
        faults=config.faults, analysis=config.analysis, obs=config.obs,
        replication=config.replication, invariants=config.invariants,
        trace=trace)


def _execute(config: RunConfig, store: Optional[ResultCache],
             key: Optional[str]) -> RunResult:
    """Run, verify against the sequential oracle, record.  Every parallel
    run is a correctness check -- lossy and masked-crash runs included,
    whose results must match the fault-free ones."""
    exp = harness.EXPERIMENTS[config.experiment]
    par = simulate(config)
    seq = harness._seq(config.experiment, config.preset)
    if not base.get_app(exp.app).verify(par.result, seq.result):
        raise AssertionError(
            f"{config.experiment} ({config.system}, {config.nprocs} "
            "procs): parallel result does not match the sequential run")
    replication = None
    if par.replication is not None:
        rep = par.replication
        replication = {
            "replicas": rep.replicas,
            "f_max": rep.f_max,
            "masked_failures": rep.masked_failures,
            "masked_nodes": list(rep.masked_nodes),
            "detection_latency": rep.detection_latency,
            "quorum_reads": rep.quorum_reads,
            "quorum_writes": rep.quorum_writes,
            "messages": rep.messages,
            "bytes": rep.bytes,
        }
    result = RunResult(
        experiment=config.experiment,
        system=config.system,
        nprocs=config.nprocs,
        preset=config.preset,
        time=par.time,
        seq_time=seq.time,
        messages=par.total_messages(),
        kbytes=par.total_kbytes(),
        link_utilization=par.cluster.link_utilization,
        replication=replication,
        parallel=par,
    )
    if store is not None:
        if key is None:
            key = cache_key(config)
        store.put(key, result.to_json())
        result.cache_key = key
    return result


def seq_time(experiment: str, preset: str = "bench", *,
             use_cache: bool = True,
             cache: Optional[ResultCache] = None) -> float:
    """Sequential virtual time (Table 1), through the persistent cache."""
    store = (cache if cache is not None else default_cache()) \
        if use_cache else None
    key: Optional[str] = None
    if store is not None:
        key = _seq_cache_key(experiment, preset)
        payload = store.get(key)
        if payload is not None and isinstance(payload.get("time"), float):
            return payload["time"]
    time = harness._seq(experiment, preset).time
    if store is not None:
        store.put(key, {"time": time})
    return time


def speedup_series(experiment: str, system: str,
                   nprocs_list: Sequence[int],
                   preset: str = "bench", *,
                   use_cache: bool = True,
                   cache: Optional[ResultCache] = None) -> List[float]:
    """Speedups over the sequential run (one of the paper's curves)."""
    return [run(RunConfig(experiment=experiment, system=system, nprocs=n,
                          preset=preset),
                use_cache=use_cache, cache=cache).speedup
            for n in nprocs_list]


def messages_at(experiment: str, system: str, nprocs: int = 8,
                preset: str = "bench", *,
                use_cache: bool = True,
                cache: Optional[ResultCache] = None) -> Tuple[int, float]:
    """(messages, kilobytes) for one system at ``nprocs`` (Table 2)."""
    result = run(RunConfig(experiment=experiment, system=system,
                           nprocs=nprocs, preset=preset),
                 use_cache=use_cache, cache=cache)
    return result.messages, result.kbytes
