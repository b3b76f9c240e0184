"""Tests for the command-line interface."""

import pytest

from repro import api
from repro.apps.ep import EpParams
from repro.bench import harness
from repro.cli import (build_parser, cmd_list, cmd_run, cmd_sweep, cmd_table,
                       cmd_view, config_of, main)
from repro.kernels import get_backend
from repro.scabd import ReplicationConfig
from repro.sim.faults import FaultPlan


def run_config(*argv):
    """The ``RunConfig`` that ``repro run ARGV`` spells."""
    return config_of(build_parser().parse_args(["run", *argv]))


def view_text(*argv):
    """What ``repro ARGV`` prints for a view verb (``figure``, ...)."""
    return cmd_view(build_parser().parse_args(argv))


def trace_config(*argv):
    """``repro trace sor ARGV``'s config (sor's experiment is fig02)."""
    return config_of(build_parser().parse_args(["trace", "sor", *argv]),
                     experiment="fig02")


@pytest.fixture
def tiny_ep(monkeypatch):
    """Swap fig01 for a tiny parameterization so CLI tests run fast."""
    exp = harness.EXPERIMENTS["fig01"]
    tiny = harness.Experiment(exp.exp_id, exp.label, exp.app, exp.figure,
                              EpParams.tiny(), EpParams.tiny(), exp.size_note)
    harness.clear_cache()
    monkeypatch.setitem(harness.EXPERIMENTS, "fig01", tiny)
    yield
    harness.clear_cache()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig01"])
        assert (args.system, args.nprocs, args.preset) == ("tmk", 8, "bench")

    def test_figure_nprocs_string(self):
        args = build_parser().parse_args(
            ["figure", "fig03", "--nprocs", "1,8"])
        assert args.nprocs == (1, 8)

    def test_crash_spec_parses(self):
        config = run_config("fig01", "--crash", "1@0.5", "--crash", "2@1.5")
        assert config.faults == FaultPlan(crash_at=((1, 0.5), (2, 1.5)))
        assert run_config("fig01", "--faults.crash_at", "1@0.5,2@1.5") == \
            config

    @pytest.mark.parametrize("bad", ["1", "@0.5", "1@", "x@0.5", "1@y",
                                     "-1@0.5", "1@-0.5"])
    def test_crash_spec_rejects_malformed(self, bad, capsys):
        # Syntax fails in argparse (stderr); a negative node or time
        # parses and FaultPlan refuses it (the exit message).
        with pytest.raises(SystemExit) as exc:
            run_config("fig01", "--crash", bad)
        assert exc.value.code not in (0, None)
        assert "crash" in str(exc.value.code) + capsys.readouterr().err

    def test_ft_mode_defaults_to_none(self):
        # No replication group unless one of its fields is given.
        assert run_config("fig01").replication is None

    def test_ft_mode_mask_and_replicas_parse(self):
        config = run_config("fig01", "--replication.mode", "mask",
                            "--replication.replicas", "5")
        assert config.replication == ReplicationConfig(replicas=5)

    def test_ft_mode_rejects_unknown(self):
        with pytest.raises(SystemExit, match="unknown replication mode"):
            run_config("fig01", "--replication.mode", "retry")

    def test_crash_occurrences_order_deterministically(self):
        # However the --crash flags are ordered on the command line, the
        # plan normalizes them, so equivalent invocations share one cache
        # key and one schedule.
        a = run_config("fig01", "--crash", "2@0.7", "--crash", "1@0.5")
        b = run_config("fig01", "--crash", "1@0.5", "--crash", "2@0.7")
        assert a.faults.crash_at == ((1, 0.5), (2, 0.7))
        assert a == b and hash(a) == hash(b)

    def test_trace_accepts_crash_flags(self):
        config = trace_config("--crash", "1@0.5")
        assert config.faults.crash_at == ((1, 0.5),)

    def test_trace_perfetto_flag(self):
        args = build_parser().parse_args(
            ["trace", "sor", "--perfetto", "out.json"])
        assert args.perfetto == "out.json"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "fig02"])
        assert (args.system, args.nprocs, args.preset) == ("both", 8, "tiny")

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "all"])
        assert args.experiment == ["all"]
        assert (args.systems, args.nprocs, args.preset) == \
            ("tmk,pvm", (8,), "bench")
        assert args.jobs is None and not args.no_cache
        assert args.cache_dir is None and args.json is None

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "fig01", "fig02", "--systems", "tmk",
             "--nprocs", "2,4", "--preset", "tiny", "--jobs", "3",
             "--no-cache", "--json", "out.json"])
        assert args.experiment == ["fig01", "fig02"]
        assert args.nprocs == (2, 4)
        assert args.jobs == 3 and args.no_cache
        assert args.json == "out.json"

    @pytest.mark.parametrize("argv", [
        ["run", "fig01", "--kernels", "numpy"],
        ["sweep", "fig01", "--kernels", "pure"],
    ])
    def test_kernels_is_not_a_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "--kernels" in capsys.readouterr().err


class TestCommands:
    def test_list_mentions_all_experiments(self):
        text = cmd_list()
        for exp_id in harness.EXPERIMENTS:
            assert exp_id in text

    def test_run_tmk_includes_breakdown(self, tiny_ep):
        text = cmd_run(api.RunConfig("fig01", "tmk", 2, "bench"))
        assert "speedup" in text
        assert f"kernels: {get_backend().name}" in text.splitlines()[1]
        assert "Time decomposition" in text
        assert "barrier_arrival" in text

    def test_run_pvm_no_breakdown(self, tiny_ep):
        text = cmd_run(api.RunConfig("fig01", "pvm", 2, "bench"))
        assert "speedup" in text
        assert "Time decomposition" not in text

    def test_run_with_16_mib_pages(self, capsys):
        """A 16 MiB page: every page-aligned allocation takes a whole one,
        so SOR's few arrays span 16 MiB pages of address space each."""
        assert main(["run", "fig02", "--preset", "tiny", "--system", "tmk",
                     "--nprocs", "2", "--cost.page_size", "16777216"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            cmd_run(run_config("fig99"))

    def test_figure_renders_both_curves(self, tiny_ep):
        text = view_text("figure", "fig01", "--nprocs", "1,2")
        assert "TMK" in text and "PVM" in text

    def test_tables(self, tiny_ep):
        assert "Sequential Time" in cmd_table("table1", "bench")

    def test_trace_produces_events(self):
        text = view_text("trace", "ep", "--limit", "20")
        assert "protocol trace" in text
        assert "barrier" in text

    def test_trace_perfetto_writes_valid_json(self, tmp_path):
        import json
        from repro.obs import validate_chrome_trace
        out = tmp_path / "trace.json"
        text = view_text("trace", "ep", "--limit", "20",
                         "--perfetto", str(out))
        assert f"-> {out}" in text
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_profile_both_systems(self):
        text = view_text("profile", "fig01", "--nprocs", "2")
        assert text.count("time attribution:") == 2
        assert "[tmk, 2 procs]" in text and "[pvm, 2 procs]" in text
        assert "stall-on-data attribution" in text  # tmk mechanism section

    def test_profile_single_system(self):
        text = view_text("profile", "fig01", "--system", "pvm",
                         "--nprocs", "2")
        assert text.count("time attribution:") == 1
        assert "stall-on-data" not in text

    def test_profile_all_covers_every_config(self):
        text = view_text("profile", "all", "--system", "tmk",
                         "--nprocs", "2")
        assert text.count("time attribution:") == len(harness.EXPERIMENTS)

    def test_profile_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            view_text("profile", "fig99", "--nprocs", "2")

    def test_sweep_serial_and_json_report(self, tiny_ep, tmp_path):
        out = tmp_path / "sweep.json"
        text = cmd_sweep(["fig01"], "tmk,pvm", (2,), "bench", jobs=1,
                         no_cache=False, cache_dir=str(tmp_path / "cache"),
                         json_out=str(out))
        assert "fig01" in text and "cache hits" in text
        import json
        report = json.loads(out.read_text())
        assert len(report["runs"]) == 2
        assert report["cache_hits"] == 0
        # Re-sweep: everything served from the cache just written.
        text = cmd_sweep(["fig01"], "tmk,pvm", (2,), "bench", jobs=1,
                         no_cache=False, cache_dir=str(tmp_path / "cache"))
        assert "2/2 cache hits" in text

    def test_sweep_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            cmd_sweep(["fig99"], "tmk", (2,), "tiny", jobs=1,
                      no_cache=True, cache_dir=None)

    def test_main_sweep_dispatch(self, tiny_ep, tmp_path, capsys):
        assert main(["sweep", "fig01", "--systems", "tmk", "--nprocs", "2",
                     "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "cache hits" in capsys.readouterr().out

    def test_main_dispatch(self, tiny_ep, capsys):
        assert main(["list"]) == 0
        assert "fig01" in capsys.readouterr().out

    def test_main_profile_dispatch(self, capsys):
        assert main(["profile", "fig01", "--system", "tmk",
                     "--nprocs", "2"]) == 0
        assert "time attribution" in capsys.readouterr().out


class TestCrashRecoveryCommands:
    def test_crash_node_out_of_range(self, tiny_ep):
        with pytest.raises(SystemExit, match="out of range"):
            run_config("fig01", "--nprocs", "2", "--crash", "7@0.005")

    def test_duplicate_crash_node_rejected(self):
        with pytest.raises(SystemExit, match="more than one crash time"):
            run_config("fig01", "--crash", "1@0.5", "--crash", "1@0.7")

    def test_unrecoverable_double_crash_aborts_cleanly(self, tiny_ep):
        with pytest.raises(SystemExit, match="^NodeFailure: node 0 crashed"):
            main(["run", "fig01", "--nprocs", "2",
                  "--faults.crash_at", "0@0.004,1@0.005"])

    def test_main_run_with_crash_flags(self, tiny_ep, capsys):
        # Without masking a crash ends the run: one line, non-zero exit.
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig01", "--nprocs", "2", "--crash", "1@0.005"])
        assert exc.value.code == ("NodeFailure: node 1 crashed at "
                                  "t=0.005000, detected at t=0.060000")
        assert capsys.readouterr().out == ""


MASK = ("--nprocs", "2", "--replication.mode", "mask")


class TestMaskingCommands:
    def test_mask_run_fault_free(self, tiny_ep):
        text = cmd_run(run_config("fig01", *MASK))
        assert "failure masking (SC-ABD quorum replication):" in text
        assert "masked failures     0" in text
        assert "quorum reads" in text and "quorum writes" in text
        # The LRC diff/twin mechanism breakdown does not apply to the
        # sequentially-consistent quorum protocol.
        assert "Time decomposition" not in text

    def test_mask_run_masks_replica_crash(self, tiny_ep):
        # nprocs=2 application ranks; replica servers are pids 2, 3, 4.
        text = cmd_run(run_config("fig01", *MASK, "--crash", "2@0.005"))
        assert "masked failures     1 (nodes [2])" in text

    def test_mask_quorum_minority_vs_majority(self, tiny_ep):
        # Minority (1 of 3): masked.  Majority (2 of 3): clean abort.
        text = cmd_run(run_config("fig01", *MASK, "--crash", "3@0.005"))
        assert "masked failures     1" in text
        with pytest.raises(SystemExit, match="^NodeFailure: node 3 crashed"):
            main(["run", "fig01", *MASK, "--crash", "2@0.004",
                  "--crash", "3@0.005"])

    def test_mask_never_hides_application_crash(self, tiny_ep):
        with pytest.raises(SystemExit, match="^NodeFailure: node 1 crashed"):
            main(["run", "fig01", *MASK, "--crash", "1@0.005"])

    def test_mask_crash_range_covers_replica_pids(self, tiny_ep):
        # Node 4 is the last replica of a 2+3 cluster; node 5 is nobody.
        with pytest.raises(SystemExit,
                           match=r"2 application \+ 3 replica"):
            run_config("fig01", *MASK, "--crash", "5@0.005")
        # ...while the same node is out of range without replication.
        with pytest.raises(SystemExit, match="out of range"):
            run_config("fig01", "--nprocs", "2", "--crash", "4@0.005")

    def test_mask_requires_tmk(self):
        with pytest.raises(SystemExit, match="requires system='tmk'"):
            run_config("fig01", *MASK, "--system", "pvm")

    def test_mask_rejects_sanitizer(self):
        with pytest.raises(SystemExit, match="cannot"):
            run_config("fig01", *MASK, "--analysis.race_check", "report")

    def test_mask_rejects_bad_replicas(self):
        with pytest.raises(SystemExit, match="replicas must be >= 1"):
            run_config("fig01", *MASK, "--replication.replicas", "0")

    def test_main_run_with_mask_flags(self, tiny_ep, capsys):
        assert main(["run", "fig01", *MASK, "--replication.replicas", "3",
                     "--crash", "2@0.005"]) == 0
        assert "failure masking" in capsys.readouterr().out


class TestDerivedFlags:
    """Every flag is a field value: nothing is accepted and then dropped."""

    @pytest.mark.parametrize("argv, field, expected", [
        # One field of a group turns the group on, over its defaults.
        (["--replication.replicas", "5"], "replication",
         ReplicationConfig(replicas=5)),
        (["--faults.seed", "9", "--faults.categories", "diff_req"],
         "faults", FaultPlan(seed=9, categories=frozenset({"diff_req"}))),
    ], ids=["replicas-without-mask", "fault-seed-without-loss"])
    def test_formerly_dropped_flags_reach_the_config(self, argv, field,
                                                     expected):
        config = run_config("fig02", "--preset", "tiny", *argv)
        assert getattr(config, field) == expected

    @pytest.mark.parametrize("text, value", [
        ("", True), ("true", True), ("1", True), ("false", False),
        ("off", False)])
    def test_bool_sets_either_way(self, text, value):
        argv = ["--invariants"] + ([text] if text else [])
        assert run_config("fig02", *argv).invariants is value

    def test_trace_and_run_give_run_parallel_the_same_keywords(
            self, monkeypatch, capsys):
        from repro.apps import base
        calls = []
        real = base.run_parallel

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(base, "run_parallel", spy)
        argv = ["--nprocs", "2", "--preset", "tiny", "--faults.loss", "0.01",
                "--invariants"]
        assert main(["trace", "sor", "--limit", "1", *argv]) == 0
        api.run(run_config("fig02", *argv), use_cache=False)
        (trace_args, traced), (run_args, ran) = calls
        assert traced.pop("trace") is not None and ran.pop("trace") is None
        assert trace_args == run_args and traced == ran
        assert ran["faults"] == FaultPlan(loss=0.01)
