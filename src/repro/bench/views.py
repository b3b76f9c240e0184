"""The views of a run: ``VIEWS``, one table from which the ``repro
<view>`` verbs, the worker pool's task kinds and ``repro serve``'s
``/<view>`` routes (with their 400 refusals) are generated.

A row names the ``RunConfig`` leaves the view takes (a surface refuses
any other), its own parameters (each with one converter for its flag
and its query parameter, and possibly the leaf it implies), and
``render(config, **params) -> (body, content_type)``.  The CLI calls
``render`` in-process and the pool calls it for the server, so ``repro
figure fig01`` prints exactly the body of ``GET /figure?experiment=fig01``.
``/run`` is not a view: it is the one cached route, and :func:`report`
renders its result as ``repro run``'s text.  A new view is one row.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, \
    NamedTuple, Optional, Tuple

from repro import api
from repro.bench import harness

__all__ = ["Param", "REQUIRED", "VIEWS", "View", "admit", "kernels_line",
           "report"]

#: The default of a parameter without one (a positional on the CLI).
REQUIRED = dataclasses.MISSING
_TEXT = "text/plain"


class Param(NamedTuple):
    """A view's own parameter: ``--name`` on the CLI, ``?name=`` served."""

    name: str
    parse: Callable[[str], Any]  # text -> value, or the ValueError
    default: Any
    help: str
    leaf: Optional[str] = None  # the leaf it implies, as pick(value)
    pick: Callable[[Any], Any] = lambda value: value
    served: bool = True  # False: a path on the caller's own disk


class View(NamedTuple):
    """One row of :data:`VIEWS`: a CLI verb, a task kind and a route."""

    help: str
    fields: FrozenSet[str]
    params: Tuple[Param, ...]
    render: Callable[..., Tuple[str, str]]
    defaults: Mapping[str, Any]  # the view's own field defaults
    example: str  # a tiny query: /<name>?<example>


def admit(view: View, values: Mapping[str, Any]
          ) -> Tuple[api.RunConfig, Dict[str, Any]]:
    """The config and params that parsed ``values`` spell for ``view``
    (other names are ignored); ``ValueError`` as every surface says it."""
    params = {p.name: values.get(p.name, p.default) for p in view.params}
    for name, value in params.items():
        if value is REQUIRED:
            raise ValueError(f"missing {name}")
    leaves = dict(view.defaults)
    leaves.update((name, value) for name, value in values.items()
                  if name in view.fields)
    leaves.update((p.leaf, p.pick(params[p.name]))
                  for p in view.params if p.leaf)
    return api.from_leaves(api.RunConfig, leaves), params


def kernels_line() -> str:
    """The page-op backend this process observed (there is no flag)."""
    from repro.kernels import get_backend
    name = get_backend().name
    if name != "compiled":
        name += " (C extension not built; python tools/build_kernels.py)"
    return f"kernels: {name}"


def _buckets(counters: Mapping[str, Any]) -> List[str]:
    return [f"  {category:<18} {c.messages:>8d} msgs "
            f"{c.bytes / 1024.0:>10.1f} KB" for category, c in
            counters.items()]


def report(config: api.RunConfig, result: api.RunResult) -> str:
    """``repro run``'s text: the summary ``/run`` serves, then what only
    the live run (``result.parallel``) has -- stats buckets, fault and
    masking ledgers, tmk's mechanism breakdown, sanitizer."""
    from repro.bench.analysis import decompose, render_breakdown
    exp = harness.EXPERIMENTS[config.experiment]
    run, system = result.parallel, config.system
    rows = [f"{exp.label} / {system} / {config.nprocs} processors "
            f"({config.preset} preset)", kernels_line(), "",
            f"sequential time   {result.seq_time:10.2f} virtual s",
            f"parallel time     {result.time:10.2f} virtual s",
            f"speedup           {result.speedup:10.2f}",
            f"messages          {result.messages:10d}",
            f"data              {result.kbytes:10.0f} KB",
            f"link utilization  {result.link_utilization:10.2f}",
            "", run.stats.summary(system)]
    if config.faults is not None:
        rel = run.stats.reliability(system)
        rows += ["", f"fault plan: loss={config.faults.loss} "
                     f"seed={config.faults.seed}"]
        for category in ("drop", "retransmit", "dup_suppress", "ack"):
            if category in rel:
                rows.append(f"  {category:<16} {rel[category].messages:>10d}"
                            f" msgs {rel[category].bytes / 1024.0:>12.1f} KB")
    if run.replication is not None:
        rep = run.replication
        rows += ["", "failure masking (SC-ABD quorum replication):",
                 f"  replica servers     {rep.replicas} "
                 f"(masks up to {rep.f_max} replica crashes)",
                 f"  masked failures     {rep.masked_failures}"
                 + (f" (nodes {rep.masked_nodes})" if rep.masked_nodes
                    else ""),
                 f"  detection latency   {rep.detection_latency * 1e3:10.2f} ms",
                 f"  quorum reads        {rep.quorum_reads:10d}",
                 f"  quorum writes       {rep.quorum_writes:10d}",
                 f"  quorum traffic      {rep.messages:10d} msgs "
                 f"{rep.bytes / 1024.0:10.1f} KB"]
        rows += _buckets(run.stats.replication())
    elif system == "tmk":
        # The mechanism breakdown decomposes LRC diff/twin costs, which
        # the quorum-replicated (SC) protocol does not have.
        rows += ["", render_breakdown(exp.label, decompose(run))]
    if run.sanitizer is not None:
        rows += ["", run.sanitizer.summary()]
        if config.analysis.race_check != "off":
            rows += ["", run.sanitizer.race_report()]
        if config.analysis.false_sharing:
            rows += ["", run.sanitizer.false_sharing_report()]
    return "\n".join(rows)


# ----------------------------------------------------------------------
# The views
# ----------------------------------------------------------------------
def _figure(config: api.RunConfig, nprocs: Tuple[int, ...]
            ) -> Tuple[str, str]:
    """Both systems' speedup curves, every point admitted before one runs."""
    from repro.bench.figures import render_figure
    nprocs = tuple(nprocs)
    curves = [[dataclasses.replace(config, system=system, nprocs=n)
               for n in nprocs] for system in ("tmk", "pvm")]
    tmk, pvm = ([api.run(point).speedup for point in curve]
                for curve in curves)
    exp = harness.EXPERIMENTS[config.experiment]
    return render_figure(f"Figure {exp.figure}: {exp.label} "
                         f"({harness.size_string(exp, config.preset)})",
                         nprocs, tmk, pvm), _TEXT


def _profile(config: api.RunConfig, experiment: str, system: str
             ) -> Tuple[str, str]:
    """Time attribution per processor, plus tmk's mechanism costs (which
    the false-sharing tracker feeds), of each experiment and system."""
    from repro.analysis import AnalysisConfig
    from repro.obs import ObsConfig, build_profile, render_profile
    points = [dataclasses.replace(
        config, experiment=exp_id, system=sysname,
        obs=ObsConfig(profile=True), analysis=AnalysisConfig(
            false_sharing=True) if sysname == "tmk" else None)
        for exp_id in (harness.EXPERIMENTS if experiment == "all"
                       else [experiment])
        for sysname in (("tmk", "pvm") if system == "both" else [system])]
    return "\n\n".join(render_profile(build_profile(
        api.run(point, want_parallel=True).parallel,
        label=f"{harness.EXPERIMENTS[point.experiment].label} "
              f"({point.preset}, {point.nprocs} procs)"))
        for point in points), _TEXT


def _trace(config: api.RunConfig, app: str, limit: int,
           perfetto: Optional[str]) -> Tuple[str, str]:
    """One uncached run with the protocol trace on, through the same
    mapping as every other run (:func:`repro.api.simulate`)."""
    from repro.obs import ObsConfig, write_chrome_trace
    from repro.sim.trace import Trace
    if perfetto is not None:
        config = dataclasses.replace(config, obs=dataclasses.replace(
            config.obs or ObsConfig(), timeline=True))
    trace = Trace(enabled=True)
    run = api.simulate(config, trace=trace)
    name = {"tmk": "TreadMarks", "pvm": "PVM", "ivy": "IVY"}[config.system]
    text = (f"{name} protocol trace: {app} ({config.preset} preset, "
            f"{config.nprocs} processors, first {limit} events)\n\n"
            + trace.format(limit=limit))
    if perfetto is not None:
        write_chrome_trace(run.timeline, perfetto,
                           label=f"{app} {config.system} x{config.nprocs}")
        text += (f"\n\nPerfetto trace ({len(run.timeline.events)} events)"
                 f" -> {perfetto}")
    return text, _TEXT


def _app(text: str) -> str:
    harness.experiment_of_app(text)
    return text


def _limit(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise ValueError(f"limit must be an integer >= 1, got {text!r}")
    return int(text)


_LEAVES = frozenset(api.leaves(api.RunConfig))

VIEWS: Mapping[str, View] = {
    "figure": View(
        "one paper figure: both systems' speedup curves",
        _LEAVES - {"system", "nprocs"},
        (Param("nprocs", api.nprocs_list, (1, 2, 4, 8),
               "comma-separated processor counts", "nprocs", max),),
        _figure, {}, "experiment=fig01&preset=tiny&nprocs=1,2"),
    "profile": View(
        "time attribution per processor, plus TreadMarks mechanism costs",
        frozenset({"nprocs", "preset"}),
        (Param("experiment", str, REQUIRED, "experiment id (fig01..fig12) "
               "or 'all'", "experiment",
               lambda e: "fig01" if e == "all" else e),
         Param("system", str, "both", "one system, or 'both' (tmk, pvm)",
               "system", lambda s: "tmk" if s == "both" else s)),
        _profile, {"preset": "tiny"}, "experiment=fig02&nprocs=2"),
    "trace": View(
        "one run of an app with the protocol trace on",
        _LEAVES - {"experiment"},
        (Param("app", _app, REQUIRED, "application name (e.g. sor, is, "
               "tsp)", "experiment", harness.experiment_of_app),
         Param("limit", _limit, 60, "max trace lines to print"),
         Param("perfetto", str, None, "also write the span timeline as "
               "Chrome/Perfetto trace-event JSON", served=False)),
        _trace, {"nprocs": 2, "preset": "tiny"}, "app=sor&limit=20"),
}
