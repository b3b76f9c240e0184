"""Command-line interface: ``python -m repro <command>``.

Commands: ``list``, ``run EXP``, ``sweep EXP..``, ``serve``,
``table1``/``table2``, ``verify [EXP]``, and one verb per view of
:data:`repro.bench.views.VIEWS` -- ``figure EXP``, ``profile EXP``,
``trace APP`` -- which prints exactly what ``repro serve``'s ``/<view>``
returns (``repro <command> -h`` for each).  Everything prints to stdout.

A run is spelled once, by ``RunConfig``'s fields: every verb that runs
one takes a flag per field, named by its dotted path and parsed by
:func:`repro.api.leaves` -- ``--nprocs 4``, ``--faults.loss 0.01``,
``--crash 1@0.5``, ``--replication.mode mask`` -- exactly as ``repro
serve`` takes ``?faults.loss=0.01``.  A run that fails as configured
(``api.RUN_FAILURES``: an unmasked crash, a link that drops every retry,
...) prints one line and exits non-zero.  A group of
fields stays off unless one of its flags is given.  ``repro serve``'s own
flags are ``ServeConfig``'s fields, by the same walk.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Any, Callable, Iterable, List, Optional, Tuple

__all__ = ["add_fields", "build_parser", "cmd_view", "config_of", "main"]


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
    ``names``), spelled and parsed by :func:`repro.api.leaves`; a required
    leaf (``experiment``) is a positional.

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
        if leaf.default is dataclasses.MISSING:
            parser.add_argument(leaf.name, type=_arg_type(leaf.parse),
                                help=f"{leaf.name} (required)")
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
    from repro.bench.views import REQUIRED, VIEWS
    from repro.serve.config import ServeConfig
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TreadMarks vs PVM on a simulated network of "
                    "workstations (Lu et al., SC '95 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment configurations")
    add_fields(sub.add_parser("run", help="one run, with stats and "
                                          "breakdown"), api.RunConfig)

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
    sweep.add_argument("--nprocs", type=_arg_type(api.nprocs_list),
                       default=(8,), help="comma-separated processor counts")
    add_fields(sweep, api.RunConfig, ("preset",))
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: the CPU count)")
    sweep.add_argument("--no-cache", action="store_true")
    sweep.add_argument("--json", metavar="OUT.json", default=None,
                       help="also write the sweep report as JSON")

    serve = sub.add_parser(
        "serve", help="serve /run and every view over HTTP through the "
                      "result cache (DESIGN.md §5i)")
    add_fields(serve, ServeConfig)
    for verb in (sweep, serve):
        verb.add_argument("--cache-dir", default=None,
                          help="default: $REPRO_CACHE_DIR or "
                               "<repo>/.repro_cache")

    for name, help_text in (("table1", "sequential times (Table 1)"),
                            ("table2", "messages and data (Table 2)")):
        add_fields(sub.add_parser(name, help=help_text), api.RunConfig,
                   ("preset",))

    for name, view in VIEWS.items():
        verb = sub.add_parser(name, help=view.help,
                              epilog=f"served as GET /{name}?{view.example}")
        for param in view.params:
            convert = _arg_type(param.parse)
            if param.default is REQUIRED:
                verb.add_argument(param.name, type=convert, help=param.help)
            else:
                verb.add_argument(
                    "--" + param.name, dest=param.name, type=convert,
                    default=param.default,
                    help=f"{param.help} (default {param.default})")
        add_fields(verb, api.RunConfig, view.fields, **view.defaults)
    return parser


# ----------------------------------------------------------------------
# Command bodies (return the text they print, for testability)
# ----------------------------------------------------------------------
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
    from repro.bench.views import report
    # want_parallel: the report needs the live run (stats buckets,
    # sanitizer, mechanism breakdown), not just the summary.
    return report(config, api.run(config, want_parallel=True))


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
    from repro.bench.views import kernels_line
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

    from repro.bench.views import kernels_line
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


def cmd_table(which: str, preset: str) -> str:
    from repro.bench import tables
    if which == "table1":
        return tables.render_table1(preset=preset)
    return tables.render_table2(preset=preset)


def cmd_view(args: argparse.Namespace) -> str:
    """The body ``repro serve`` returns for the view ``args.command`` of
    the same config and params."""
    from repro.bench.views import VIEWS, admit
    view = VIEWS[args.command]
    try:
        config, params = admit(view, vars(args))
        return view.render(config, **params)[0]
    except ValueError as exc:  # a point refused, as /<view> gives a 400
        raise SystemExit(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    from repro import api
    from repro.bench.views import VIEWS
    args = build_parser().parse_args(argv)
    try:
        if args.command in VIEWS:
            print(cmd_view(args))
        elif args.command == "list":
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
        else:
            print(cmd_table(args.command, args.preset))
    except api.RUN_FAILURES as exc:
        # The run fails as configured: the caller's to fix, as /run's 400.
        raise SystemExit(f"{type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
