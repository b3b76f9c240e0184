"""Command-line interface: ``python -m repro <command>``.

Commands: ``list``, ``run EXP``, ``sweep EXP..``, ``serve``, ``figure
EXP``, ``table1``/``table2``, ``verify [EXP]``, ``trace APP`` and
``profile EXP`` (``repro <command> -h`` for each).  Everything prints to
stdout.

A run is spelled once, by ``RunConfig``'s fields: every verb that runs
one takes a flag per field, named by its dotted path and parsed by
:func:`repro.api.leaves` -- ``--nprocs 4``, ``--faults.loss 0.01``,
``--recovery.checkpoint_interval 0.25``, ``--replication.mode mask`` --
exactly as ``repro serve`` takes ``?faults.loss=0.01``.  A group of
fields stays off unless one of its flags is given.  ``repro serve``'s own
flags are ``ServeConfig``'s fields, by the same walk.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Any, Callable, Iterable, List, Optional, Tuple

__all__ = ["add_fields", "build_parser", "config_of", "main"]


def _arg_type(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """A converter as an argparse ``type``: its message, not argparse's."""
    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def add_fields(parser: argparse.ArgumentParser, cls: type,
               names: Optional[Iterable[str]] = None, **defaults: Any) -> None:
    """One ``--<leaf>`` flag per leaf of config dataclass ``cls`` (or of
    ``names``), spelled and parsed by :func:`repro.api.leaves`.

    A top-level flag defaults to its field's default (or ``defaults``);
    a nested one is absent unless given, so its group stays ``None``.  A
    bool flag alone means true; ``--invariants false`` also parses.
    """
    from repro import api
    wanted = None if names is None else set(names)
    for leaf in api.leaves(cls).values():
        if leaf.parse is None or (wanted is not None
                                  and leaf.name not in wanted):
            continue
        flags = ["--" + leaf.name]
        kwargs: dict = dict(dest=leaf.name, type=_arg_type(leaf.parse),
                            choices=leaf.choices,
                            metavar=None if leaf.choices
                            else leaf.name.rpartition(".")[2].upper())
        if leaf.name == "faults.crash_at":
            # The one flag that keeps a second, shorter spelling.
            flags.append("--crash")
            kwargs.update(action="extend", metavar="NODE@TIME")
        elif leaf.hint is bool:
            kwargs.update(nargs="?", const=True)
        default = defaults.get(leaf.name, leaf.default)
        kwargs["help"] = f"(default {default})"
        kwargs["default"] = argparse.SUPPRESS if "." in leaf.name \
            else default
        parser.add_argument(*flags, **kwargs)


def config_of(args: argparse.Namespace, cls: Optional[type] = None,
              **fixed: Any) -> Any:
    """The config (``RunConfig`` unless ``cls``) a parsed command line
    spells: every leaf flag present, then ``fixed``.  A config its own
    validator rejects exits with that message."""
    from repro import api
    cls = cls or api.RunConfig
    table = api.leaves(cls)
    values = {name: value for name, value in vars(args).items()
              if name in table}
    values.update(fixed)
    try:
        return api.from_leaves(cls, values)
    except ValueError as exc:
        raise SystemExit(str(exc))


def build_parser() -> argparse.ArgumentParser:
    from repro import api
    from repro.serve.config import ServeConfig
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TreadMarks vs PVM on a simulated network of "
                    "workstations (Lu et al., SC '95 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    nprocs_list = _arg_type(api.nprocs_list)
    # Every RunConfig leaf but the experiment, which is a positional.
    fields = [name for name in api.leaves(api.RunConfig)
              if name != "experiment"]

    sub.add_parser("list", help="list the experiment configurations")

    run = sub.add_parser("run", help="one run, with stats and breakdown")
    run.add_argument("experiment", help="experiment id (fig01..fig12)")
    add_fields(run, api.RunConfig, fields)

    verify = sub.add_parser(
        "verify", help="explore tie-break schedules of one experiment "
                       "(deadlocks, invariants, divergence) and/or lint "
                       "the protocols")
    verify.add_argument("experiment", nargs="?", default=None,
                        help="experiment id; omit to run only --lint")
    # The explorer's runtimes, not RunConfig.system: 'scabd' is a runtime
    # to explore (TreadMarks programs over SC-ABD quorum replication).
    verify.add_argument("--system", choices=("tmk", "ivy", "pvm", "scabd"),
                        default="tmk", help="runtime to explore")
    add_fields(verify, api.RunConfig, ("nprocs", "preset"), nprocs=3,
               preset="tiny")
    verify.add_argument("--schedules", type=int, default=25)
    verify.add_argument("--mode", choices=("random", "dfs"),
                        default="random",
                        help="seeded random walks, or systematic bounded-"
                             "preemption enumeration")
    verify.add_argument("--seed", type=int, default=0,
                        help="first random-walk seed")
    verify.add_argument("--max-flips", type=int, default=2,
                        help="preemption bound of --mode dfs")
    verify.add_argument("--no-invariants", action="store_true")
    verify.add_argument("--lint", action="store_true",
                        help="also run the protocol lints (PRT001-PRT008)")
    verify.add_argument("--lint-paths", default="src/repro",
                        help="comma-separated paths for --lint")

    sweep = sub.add_parser(
        "sweep", help="the run grid in parallel worker processes, through "
                      "the persistent result cache")
    sweep.add_argument("experiment", nargs="+",
                       help="experiment ids (fig01..fig12), or 'all'")
    sweep.add_argument("--systems", default="tmk,pvm",
                       help="comma-separated systems")
    sweep.add_argument("--nprocs", type=nprocs_list, default=(8,),
                       help="comma-separated processor counts")
    add_fields(sweep, api.RunConfig, ("preset",))
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: the CPU count)")
    sweep.add_argument("--no-cache", action="store_true")
    sweep.add_argument("--json", metavar="OUT.json", default=None,
                       help="also write the sweep report as JSON")

    serve = sub.add_parser(
        "serve", help="serve run/speedup/figure/profile/trace over HTTP "
                      "through the result cache (DESIGN.md §5i)")
    add_fields(serve, ServeConfig)
    for verb in (sweep, serve):
        verb.add_argument("--cache-dir", default=None,
                          help="default: $REPRO_CACHE_DIR or "
                               "<repo>/.repro_cache")

    figure = sub.add_parser(
        "figure", help="one paper figure: both systems' speedup curves")
    figure.add_argument("experiment", help="experiment id (fig01..fig12)")
    figure.add_argument("--nprocs", type=nprocs_list, default=(1, 2, 4, 8),
                        help="comma-separated processor counts")
    add_fields(figure, api.RunConfig,
               [name for name in fields if name not in ("system", "nprocs")])

    for name, help_text in (("table1", "sequential times (Table 1)"),
                            ("table2", "messages and data (Table 2)")):
        add_fields(sub.add_parser(name, help=help_text), api.RunConfig,
                   ("preset",))

    trace = sub.add_parser("trace", help="one run of an app with the "
                                         "protocol trace on")
    trace.add_argument("app", help="application name (e.g. sor, is, tsp)")
    trace.add_argument("--limit", type=int, default=60,
                       help="max trace lines to print")
    trace.add_argument("--perfetto", metavar="OUT.json", default=None,
                       help="also write the span timeline as Chrome/"
                            "Perfetto trace-event JSON")
    add_fields(trace, api.RunConfig, fields, nprocs=2, preset="tiny")

    profile = sub.add_parser(
        "profile", help="time attribution per processor, plus TreadMarks "
                        "mechanism costs; tmk and pvm unless --system")
    profile.add_argument("experiment",
                         help="experiment id (fig01..fig12) or 'all'")
    add_fields(profile, api.RunConfig, ("system", "nprocs", "preset"),
               system="both", preset="tiny")
    return parser


# ----------------------------------------------------------------------
# Command bodies (return the text they print, for testability)
# ----------------------------------------------------------------------
def kernels_line() -> str:
    """The page-op backend this process observed (there is no flag)."""
    from repro.kernels import get_backend
    name = get_backend().name
    if name != "compiled":
        name += " (C extension not built; python tools/build_kernels.py)"
    return f"kernels: {name}"


def cmd_list() -> str:
    from repro.bench import harness
    rows = [f"{'id':<8}{'figure':<8}{'label':<14}{'bench size':<40}",
            "-" * 70]
    for exp_id, exp in harness.EXPERIMENTS.items():
        rows.append(f"{exp_id:<8}{exp.figure:<8}{exp.label:<14}"
                    f"{harness.size_string(exp):<40}")
    return "\n".join(rows)


def cmd_run(config: Any) -> str:
    """One run of ``config`` (a ``RunConfig``) with its full report."""
    from repro import api
    from repro.bench import harness
    from repro.bench.analysis import decompose, render_breakdown
    from repro.sim.recovery import NodeFailure
    system, replication = config.system, config.replication
    exp = harness.EXPERIMENTS[config.experiment]
    try:
        # want_parallel: the report below needs the live run (stats
        # buckets, sanitizer, mechanism breakdown), not just the summary.
        result = api.run(config, want_parallel=True)
    except NodeFailure as failure:
        if replication is not None:
            raise SystemExit(
                f"unmaskable failure: {failure}\n"
                f"(hint: {replication.replicas} replicas mask up to "
                f"{replication.f_max} *replica* crashes; an application-"
                "rank crash or one dead replica too many aborts the run "
                "-- drop --replication.* and use "
                "--recovery.checkpoint_interval to survive those)")
        raise SystemExit(f"unrecoverable failure: {failure}\n"
                         "(hint: --recovery.checkpoint_interval bounds the "
                         "work lost per crash; multiple crashes within one "
                         "checkpoint interval cannot be recovered)")
    run = result.parallel
    rows = [
        f"{exp.label} / {system} / {config.nprocs} processors "
        f"({config.preset} preset)",
        kernels_line(),
        "",
        f"sequential time   {result.seq_time:10.2f} virtual s",
        f"parallel time     {result.time:10.2f} virtual s",
        f"speedup           {result.speedup:10.2f}",
        f"messages          {result.messages:10d}",
        f"data              {result.kbytes:10.0f} KB",
        f"link utilization  {result.link_utilization:10.2f}",
        "",
        run.stats.summary(system),
    ]
    if config.faults is not None:
        rel = run.stats.reliability(system)
        rows += ["", f"fault plan: loss={config.faults.loss} "
                     f"seed={config.faults.seed}"]
        for category in ("drop", "retransmit", "dup_suppress", "ack"):
            counter = rel.get(category)
            if counter is not None:
                rows.append(f"  {category:<16} {counter.messages:>10d} msgs "
                            f"{counter.bytes / 1024.0:>12.1f} KB")
    if run.recovery is not None:
        report = run.recovery
        rows += ["", "crash recovery:",
                 f"  failures recovered  {report.recoveries}"
                 + (f" (nodes {report.failed_nodes})"
                    if report.failed_nodes else ""),
                 f"  detection latency   {report.detection_latency * 1e3:10.2f} ms",
                 f"  lost work re-run    {report.lost_work:10.4f} virtual s",
                 f"  checkpoint restore  {report.restore_time * 1e3:10.2f} ms "
                 f"({report.restored_bytes / 1024.0:.1f} KB)",
                 f"  total overhead      {report.overhead_time:10.4f} virtual s"]
        for category, counter in run.stats.recovery().items():
            rows.append(f"  {category:<18} {counter.messages:>8d} msgs "
                        f"{counter.bytes / 1024.0:>10.1f} KB")
    if run.replication is not None:
        rep = run.replication
        rows += ["", "failure masking (SC-ABD quorum replication):",
                 f"  replica servers     {rep.replicas} "
                 f"(masks up to {rep.f_max} replica crashes)",
                 f"  masked failures     {rep.masked_failures}"
                 + (f" (nodes {rep.masked_nodes})"
                    if rep.masked_nodes else ""),
                 f"  detection latency   {rep.detection_latency * 1e3:10.2f} ms",
                 f"  quorum reads        {rep.quorum_reads:10d}",
                 f"  quorum writes       {rep.quorum_writes:10d}",
                 f"  quorum traffic      {rep.messages:10d} msgs "
                 f"{rep.bytes / 1024.0:10.1f} KB"]
        for category, counter in run.stats.replication().items():
            rows.append(f"  {category:<18} {counter.messages:>8d} msgs "
                        f"{counter.bytes / 1024.0:>10.1f} KB")
    if system == "tmk" and run.replication is None:
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


def cmd_verify(experiment: Optional[str], system: str = "tmk",
               nprocs: int = 3, preset: str = "tiny",
               schedules: int = 25, mode: str = "random", seed: int = 0,
               max_flips: int = 2, invariants: bool = True,
               lint: bool = False, lint_paths: str = "src/repro") -> str:
    """Explore tie-break schedules and/or run the protocol lints.

    Raises ``SystemExit`` (nonzero) when any explored schedule deadlocks,
    breaks a protocol invariant, or diverges from the reference result,
    or when the lints produce findings.
    """
    from repro.bench import harness
    sections: List[str] = []
    failed = False
    if experiment is None and not lint:
        raise SystemExit("nothing to do: give an experiment id and/or "
                         "--lint")
    if experiment is not None:
        from repro import api
        from repro.scabd import ReplicationConfig
        from repro.verify import explore_app
        scabd = system == "scabd"
        try:  # admission only: the explorer runs below the door
            api.RunConfig(experiment, "tmk" if scabd else system, nprocs,
                          preset,
                          replication=ReplicationConfig() if scabd else None)
        except ValueError as exc:
            raise SystemExit(str(exc))
        exp = harness.EXPERIMENTS[experiment]
        report = explore_app(exp.app, system, nprocs,
                             harness.params_for(exp, preset), mode=mode,
                             schedules=schedules, seed=seed,
                             max_flips=max_flips, invariants=invariants)
        sections.append(report.summary())
        failed = failed or not report.ok
    if lint:
        from pathlib import Path
        from repro.analysis.protolint import lint_paths as lint_run
        paths = [Path(p.strip()) for p in lint_paths.split(",") if p.strip()]
        for path in paths:
            if not path.exists():
                raise SystemExit(f"--lint-paths: no such path: {path}")
        findings = lint_run(paths)
        if findings:
            sections.append("\n".join(f.format() for f in findings))
            sections.append(f"protocol lint: {len(findings)} finding(s)")
            failed = True
        else:
            linted = ", ".join(str(p) for p in paths)
            sections.append(f"protocol lint: clean ({linted})")
    text = "\n\n".join(sections)
    if failed:
        raise SystemExit(text)
    return text


def cmd_sweep(experiments: List[str], systems: str,
              nprocs: Tuple[int, ...], preset: str, jobs: Optional[int], no_cache: bool,
              cache_dir: Optional[str],
              json_out: Optional[str] = None) -> str:
    from repro.bench import sweep as sweep_mod
    system_list = tuple(s.strip() for s in systems.split(",") if s.strip())
    try:
        configs = sweep_mod.sweep_configs(experiments, systems=system_list,
                                          nprocs=nprocs, preset=preset)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if jobs is None:
        jobs = sweep_mod.default_jobs()
    report = sweep_mod.run_sweep(configs, jobs=jobs,
                                 use_cache=not no_cache,
                                 cache_dir=cache_dir)
    text = report.render() + "\n" + kernels_line()
    if json_out is not None:
        import json as json_mod
        with open(json_out, "w", encoding="utf-8") as fh:
            json_mod.dump(report.to_json(), fh, indent=2, sort_keys=True)
        text += f"\n\nsweep report -> {json_out}"
    return text


def cmd_serve(config: Any, cache_dir: Optional[str]) -> int:
    """Run the serving layer (``config``: a ``ServeConfig``) until
    interrupted; prints the bound URL."""
    import asyncio

    from repro.serve import ReproServer

    async def _main() -> None:
        server = ReproServer(config, cache_dir=cache_dir)
        await server.start()
        print(f"serving on http://{config.host}:{server.port} "
              f"(workers={config.workers}, queue={config.queue_depth}, "
              f"cache={server.cache_dir}, {kernels_line()}"
              + (", chaos injection ENABLED" if config.allow_injection
                 else "") + ")",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_figure(config: Any, nprocs: Tuple[int, ...]) -> str:
    """Both systems' speedup curves of ``config`` over ``nprocs``."""
    from repro import api
    from repro.bench import harness
    from repro.bench.figures import render_figure
    try:
        curves = [[dataclasses.replace(config, system=system, nprocs=n)
                   for n in nprocs] for system in ("tmk", "pvm")]
    except ValueError as exc:
        raise SystemExit(str(exc))
    tmk, pvm = ([api.run(point).speedup for point in curve]
                for curve in curves)
    exp = harness.EXPERIMENTS[config.experiment]
    return render_figure(
        f"Figure {exp.figure}: {exp.label} "
        f"({harness.size_string(exp, config.preset)})", nprocs, tmk, pvm)


def cmd_table(which: str, preset: str) -> str:
    from repro.bench import tables
    if which == "table1":
        return tables.render_table1(preset=preset)
    return tables.render_table2(preset=preset)


_SYSTEM_NAMES = {"tmk": "TreadMarks", "pvm": "PVM", "ivy": "IVY"}


def cmd_trace(config: Any, limit: int, perfetto: Optional[str] = None) -> str:
    """``config`` run once with the protocol trace on: through the same
    mapping as every other run (:func:`repro.api.simulate`), uncached."""
    from repro import api
    from repro.bench import harness
    from repro.obs import ObsConfig
    from repro.sim.trace import Trace

    if perfetto is not None:
        config = dataclasses.replace(config, obs=dataclasses.replace(
            config.obs or ObsConfig(), timeline=True))
    trace = Trace(enabled=True)
    run = api.simulate(config, trace=trace)
    app = harness.EXPERIMENTS[config.experiment].app
    header = (f"{_SYSTEM_NAMES[config.system]} protocol trace: {app} "
              f"({config.preset} preset, {config.nprocs} processors, "
              f"first {limit} events)")
    text = header + "\n\n" + trace.format(limit=limit)
    if perfetto is not None:
        from repro.obs import write_chrome_trace
        write_chrome_trace(run.timeline, perfetto,
                           label=f"{app} {config.system} x{config.nprocs}")
        text += (f"\n\nPerfetto trace "
                 f"({len(run.timeline.events)} events) -> {perfetto}")
    return text


def cmd_profile(experiment: str, system: str, nprocs: int,
                preset: str) -> str:
    from repro import api
    from repro.analysis import AnalysisConfig
    from repro.bench import harness
    from repro.obs import ObsConfig, build_profile, render_profile
    exp_ids = list(harness.EXPERIMENTS) if experiment == "all" \
        else [experiment]
    systems = ("tmk", "pvm") if system == "both" else (system,)
    sections = []
    for exp_id in exp_ids:
        for sysname in systems:
            try:
                # The false-sharing tracker feeds tmk's mechanism breakdown.
                config = api.RunConfig(
                    experiment=exp_id, system=sysname, nprocs=nprocs,
                    preset=preset, obs=ObsConfig(profile=True),
                    analysis=(AnalysisConfig(false_sharing=True)
                              if sysname == "tmk" else None))
            except ValueError as exc:
                raise SystemExit(str(exc))
            label = harness.EXPERIMENTS[exp_id].label
            profile = build_profile(
                api.run(config, want_parallel=True).parallel,
                label=f"{label} ({preset}, {nprocs} procs)")
            sections.append(render_profile(profile))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(cmd_list())
    elif args.command == "run":
        print(cmd_run(config_of(args)))
    elif args.command == "verify":
        print(cmd_verify(args.experiment, system=args.system,
                         nprocs=args.nprocs, preset=args.preset,
                         schedules=args.schedules, mode=args.mode,
                         seed=args.seed, max_flips=args.max_flips,
                         invariants=not args.no_invariants,
                         lint=args.lint, lint_paths=args.lint_paths))
    elif args.command == "sweep":
        print(cmd_sweep(args.experiment, args.systems, args.nprocs,
                        args.preset, args.jobs, args.no_cache,
                        args.cache_dir, json_out=args.json))
    elif args.command == "serve":
        from repro.serve.config import ServeConfig
        return cmd_serve(config_of(args, ServeConfig), args.cache_dir)
    elif args.command == "figure":
        # The list's first count stands in for the field until each point
        # replaces it.
        print(cmd_figure(config_of(args, nprocs=args.nprocs[0]),
                         args.nprocs))
    elif args.command in ("table1", "table2"):
        print(cmd_table(args.command, args.preset))
    elif args.command == "trace":
        from repro.bench import harness
        try:
            experiment = harness.experiment_of_app(args.app)
        except KeyError as exc:
            raise SystemExit(exc.args[0])
        print(cmd_trace(config_of(args, experiment=experiment), args.limit,
                        perfetto=args.perfetto))
    elif args.command == "profile":
        print(cmd_profile(args.experiment, args.system, args.nprocs,
                          args.preset))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
