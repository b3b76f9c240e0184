"""A run is admitted once: ``RunConfig`` is the only validator.

One table of rejected requests; every surface -- ``RunConfig(...)``,
``RunConfig.from_json(...)``, ``repro run ...`` and ``GET /run?...`` --
must fail with the *same* message (``ValueError`` / ``SystemExit`` /
400).  Flags and query parameters are both derived from ``RunConfig``'s
fields (``--faults.loss`` / ``?faults.loss=``), and one test walks every
leaf to show the two spell each field alike.  Verbs that run below the door (``figure``,
``trace``, ``verify``) build the ``RunConfig`` of every point first and
report its message the same way.  Plus the pins that keep the single
spelling honest: ``to_json()`` bytes and cache keys recorded before the
codec was derived from the dataclass.
"""

import asyncio
import hashlib
import json
import typing
from urllib.parse import urlencode

import pytest

from repro import api
from repro.analysis import AnalysisConfig
from repro.apps.ep import EpParams
from repro.bench import harness
from repro.bench.cache import ResultCache, canonical_json
from repro.bench.sweep import sweep_configs
from repro.cli import build_parser, config_of, main
from repro.obs import ObsConfig
from repro.scabd import ReplicationConfig
from repro.serve import ReproServer, ServeConfig
from repro.serve.http import read_request, read_response, render_request
from repro.sim.costmodel import CostModel
from repro.sim.faults import FaultPlan

KNOWN = ", ".join(f"fig{n:02d}" for n in range(1, 13))
CRASH_7 = FaultPlan(crash_at=((7, 0.5),))

#: (id, RunConfig kwargs, message, ``repro run`` argv or None, /run query)
#: -- argv is None only where argparse ``choices`` (which are
#: ``apps.base.SYSTEMS`` and ``harness.PRESETS`` themselves) stop an
#: unknown system/preset before ``RunConfig``.  A group given as a dict
#: is one its own constructor refuses (see :func:`construct`).
REJECTED = [
    ("unknown-experiment", dict(experiment="nope"),
     f"unknown experiment 'nope'; try: {KNOWN}",
     ["nope"], "experiment=nope"),
    ("unknown-system", dict(experiment="fig02", system="mpi"),
     "system must be one of ('tmk', 'pvm', 'ivy'), got 'mpi'",
     None, "experiment=fig02&system=mpi"),
    ("unknown-preset", dict(experiment="fig02", preset="huge"),
     "preset must be one of ('tiny', 'bench', 'paper'), got 'huge'",
     None, "experiment=fig02&preset=huge"),
    ("nprocs-zero", dict(experiment="fig02", nprocs=0),
     "nprocs must be >= 1, got 0",
     ["fig02", "--nprocs", "0"], "experiment=fig02&nprocs=0"),
    ("sanitizer-on-pvm",
     dict(experiment="fig02", system="pvm",
          analysis=AnalysisConfig(race_check="strict")),
     "the sanitizer requires system='tmk', got 'pvm'",
     ["fig02", "--system", "pvm", "--analysis.race_check", "strict"],
     "experiment=fig02&system=pvm&analysis.race_check=strict"),
    ("replication-on-pvm",
     dict(experiment="fig02", system="pvm",
          replication=ReplicationConfig()),
     "replication (failure masking) requires system='tmk', got 'pvm'",
     ["fig02", "--system", "pvm", "--replication.mode", "mask"],
     "experiment=fig02&system=pvm&replication.mode=mask"),
    ("replication-with-sanitizer",
     dict(experiment="fig02", replication=ReplicationConfig(),
          analysis=AnalysisConfig(false_sharing=True)),
     "the sanitizer cannot run under quorum replication",
     ["fig02", "--replication.mode", "mask", "--analysis.false_sharing"],
     "experiment=fig02&replication.mode=mask&analysis.false_sharing=true"),
    ("crash-node-beyond-nprocs",
     dict(experiment="fig02", nprocs=4, faults=CRASH_7),
     "crash node 7 out of range: the run has 4 processors",
     ["fig02", "--nprocs", "4", "--crash", "7@0.5"],
     "experiment=fig02&nprocs=4&faults.crash_at=7@0.5"),
    ("crash-node-beyond-replicas",
     dict(experiment="fig02", nprocs=4, faults=CRASH_7,
          replication=ReplicationConfig(replicas=3)),
     "crash node 7 out of range: the run has 7 processors "
     "(4 application + 3 replica)",
     ["fig02", "--nprocs", "4", "--crash", "7@0.5",
      "--replication.replicas", "3"],
     "experiment=fig02&nprocs=4&faults.crash_at=7@0.5"
     "&replication.replicas=3"),
    ("cost-page-size-zero",
     dict(experiment="fig02", cost=dict(page_size=0)),
     "page_size must be >= 1, got 0",
     ["fig02", "--cost.page_size", "0"],
     "experiment=fig02&cost.page_size=0"),
    ("cost-page-size-not-a-power-of-two",
     dict(experiment="fig02", cost=dict(page_size=3000)),
     "page_size must be a power of two >= 4, got 3000",
     ["fig02", "--cost.page_size", "3000"],
     "experiment=fig02&cost.page_size=3000"),
    ("cost-page-size-below-a-word",
     dict(experiment="fig02", cost=dict(page_size=1)),
     "page_size must be a power of two >= 4, got 1",
     ["fig02", "--cost.page_size", "1"],
     "experiment=fig02&cost.page_size=1"),
    ("cost-page-size-above-address-space",
     dict(experiment="fig01", cost=dict(page_size=1 << 31)),
     "page_size must be <= 1073741824, the 1 GiB address space every "
     "processor reserves, got 2147483648",
     ["fig01", "--cost.page_size", "2147483648"],
     "experiment=fig01&cost.page_size=2147483648"),
    ("retry-cap-overflows-the-backoff",
     dict(experiment="fig01", faults=dict(loss=1.0, retry_cap=1100)),
     "rto, tcp_rto and rto_backoff must be finite, and so must the last "
     "timeout, max(rto, tcp_rto) * rto_backoff ** (retry_cap - 1)",
     ["fig01", "--faults.loss", "1", "--faults.retry_cap", "1100"],
     "experiment=fig01&faults.loss=1&faults.retry_cap=1100"),
]

GROUPS = {"faults": FaultPlan, "analysis": AnalysisConfig, "obs": ObsConfig, "cost": CostModel,
          "replication": ReplicationConfig}


def construct(kwargs):
    """``RunConfig(**kwargs)`` by hand, a dict group built by its own
    constructor first (which may be the one that refuses)."""
    return api.RunConfig(**{
        name: GROUPS[name](**value) if isinstance(value, dict) else value
        for name, value in kwargs.items()})


ROWS = pytest.mark.parametrize(
    "kwargs, message, argv, query",
    [pytest.param(*row[1:], id=row[0]) for row in REJECTED])


@ROWS
def test_rejected_at_construction(kwargs, message, argv, query):
    with pytest.raises(ValueError) as exc:
        construct(kwargs)
    assert str(exc.value) == message


@ROWS
def test_rejected_from_json(kwargs, message, argv, query):
    wire = json.loads(json.dumps(
        {name: api._jsonify(value) for name, value in kwargs.items()}))
    with pytest.raises(ValueError) as exc:
        api.RunConfig.from_json(wire)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "argv, message",
    [pytest.param(row[3], row[2], id=row[0]) for row in REJECTED if row[3]])
def test_rejected_by_cli(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["run"] + argv)
    assert str(exc.value) == message


#: Requests only the CLI can spell; argparse (exit status 2, message on
#: stderr) or the command itself (``SystemExit(message)``) classifies them.
CLI_REJECTED = [
    ("unknown-trace-app", ["trace", "nope"],
     "unknown app 'nope'; available: ['barnes_hut', 'ep', 'fft3d', 'ilink', "
     "'is', 'qsort', 'sor', 'tsp', 'water']"),
    ("sweep-nprocs-not-a-number", ["sweep", "fig01", "--nprocs", "x"],
     "argument --nprocs: malformed processor counts 'x'"),
    ("figure-nprocs-not-a-list", ["figure", "fig01", "--nprocs", "1,a"],
     "argument --nprocs: malformed processor counts '1,a'"),
    ("unknown-system", ["run", "fig02", "--system", "mpi"],
     "argument --system: invalid choice: 'mpi'"),
    ("figure-nprocs-zero", ["figure", "fig01", "--nprocs", "0,2"],
     "nprocs must be >= 1, got 0"),
    ("trace-nprocs-zero", ["trace", "sor", "--nprocs", "0"],
     "nprocs must be >= 1, got 0"),
    ("trace-crash-node-beyond-nprocs",
     ["trace", "sor", "--nprocs", "2", "--crash", "5@0.1"],
     "crash node 5 out of range: the run has 2 processors"),
    ("verify-nprocs-zero", ["verify", "fig02", "--nprocs", "0"],
     "nprocs must be >= 1, got 0"),
    ("verify-scabd-nprocs-zero",
     ["verify", "fig02", "--system", "scabd", "--nprocs", "0"],
     "nprocs must be >= 1, got 0"),
    ("run-fails-as-configured",
     ["run", "fig01", "--preset", "tiny", "--nprocs", "2",
      "--faults.loss", "1"],
     "TransportError: P1 -> P0: barrier_arrival seq=0 unacknowledged "
     "after 12 attempts"),
    ("trace-limit-zero", ["trace", "sor", "--limit", "0"],
     "argument --limit: limit must be an integer >= 1, got '0'"),
    ("trace-limit-negative", ["trace", "sor", "--limit", "-3"],
     "argument --limit: limit must be an integer >= 1, got '-3'"),
    ("checkpoint-interval-unknown",
     ["run", "fig02", "--recovery.checkpoint_interval", "0.25"],
     "unrecognized arguments: --recovery.checkpoint_interval 0.25"),
]


@pytest.mark.parametrize(
    "argv, message",
    [pytest.param(*row[1:], id=row[0]) for row in CLI_REJECTED])
def test_cli_only_requests_are_classified(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code not in (0, None)
    assert message in str(exc.value.code) + capsys.readouterr().err


def test_cli_runs_every_system_runconfig_admits(capsys):
    assert main(["run", "fig02", "--system", "ivy", "--nprocs", "2",
                 "--preset", "tiny"]) == 0
    assert "SOR-Zero / ivy / 2 processors (tiny preset)" in \
        capsys.readouterr().out


def _served_400s(tmp_path, expected):
    """``GET /run?<query>`` for each ``{query: message}``: a 400 carrying
    exactly that message, from a live server that runs nothing."""
    async def scenario():
        server = ReproServer(ServeConfig(port=0, workers=1),
                             cache_dir=str(tmp_path))
        await server.start(prewarm=False)
        try:
            for query, message in expected.items():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(render_request("GET", "/run?" + query))
                await writer.drain()
                response = await asyncio.wait_for(read_response(reader), 30)
                writer.close()
                assert response.status == 400, query
                assert json.loads(response.body) == {"error": message}
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_rejected_by_serve(tmp_path):
    expected = {query: message for _, _, message, _, query in REJECTED
                if query is not None}
    assert len(expected) == len(REJECTED)
    _served_400s(tmp_path, expected)


def _served_config(query):
    """What ``GET /run?<query>`` admits, parsed by the server's own
    request reader and parameter table."""
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(render_request("GET", "/run?" + query))
        reader.feed_eof()
        config, _ = ReproServer._admit(await read_request(reader))
        return config
    return asyncio.run(parse())


def test_serve_ceiling_counts_replica_servers(tmp_path):
    # 60 application ranks alone fit; 5 replica servers on top do not.
    assert _served_config("experiment=fig02&nprocs=60").nprocs == 60
    _served_400s(tmp_path, {
        "experiment=fig02&nprocs=60&replication.replicas=5":
            "nprocs + replication.replicas must be <= 64, got 65"})


#: The leaves no text spells (tuples of tuples).  A new field with no
#: spelling must be listed here; every other leaf is tested below.
UNSPELLED = {"faults.slow_nodes", "faults.crash_windows"}


def _sample(leaf):
    """One valid, non-default text per leaf, derived from its hint."""
    special = {"experiment": "fig03", "faults.crash_at": "1@0.5",
               "cost.page_size": "8192"}  # a page is a power of two
    if leaf.name in special:
        return special[leaf.name]
    if leaf.choices:
        return next(c for c in leaf.choices if c != leaf.default)
    if leaf.hint is bool:
        return str(not leaf.default).lower()
    if leaf.hint is int:
        return str((leaf.default or 1) + 1)
    if leaf.hint is float:
        return str((leaf.default or 0.25) * 2)
    if leaf.hint is str:
        return leaf.default
    if typing.get_origin(leaf.hint) is frozenset:
        return "diff_req,lock_req"
    return ",".join(str(0.25 * (i + 1))
                    for i in range(len(typing.get_args(leaf.hint))))


def test_every_leaf_is_spelled_alike_by_flag_and_query():
    table = api.leaves(api.RunConfig)
    assert {name for name, leaf in table.items() if leaf.parse is None} \
        == UNSPELLED
    bare = api.RunConfig("fig02")
    for name, leaf in table.items():
        if name in UNSPELLED:
            continue
        text = _sample(leaf)
        # ``experiment`` is the CLI's positional; every other leaf a flag.
        argv = [text] if name == "experiment" else \
            ["fig02", f"--{name}", text]
        flag = config_of(build_parser().parse_args(["run", *argv]))
        query = _served_config(urlencode({"experiment": "fig02",
                                          name: text}))
        assert flag == query != bare, name


# ----------------------------------------------------------------------
# One spelling: pins recorded at the parent commit (8869607)
# (values as recorded, less the retired ``recovery`` member)
# ----------------------------------------------------------------------
ALL_OPTIONS = api.RunConfig(
    experiment="fig02", system="tmk", nprocs=3, preset="tiny",
    faults=FaultPlan(seed=7, loss=0.1,
                     categories=frozenset({"diff_req", "lock_req"}),
                     window=(0.0, 1.5), slow_nodes=((1, 2.0),),
                     crash_at=((1, 0.5),)),
    analysis=AnalysisConfig(race_check="report", false_sharing=True),
    obs=ObsConfig(timeline=True, cap=64),
    cost=CostModel(udp_mtu=1500),
    invariants=True)


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_to_json_and_cache_key_bytes_are_the_parents(monkeypatch):
    # The key covers the source tree, which this very PR edits: pin it
    # with the fingerprint held fixed, as it was when recording.
    monkeypatch.setattr(api, "source_fingerprint", lambda: "pinned")
    configs = sweep_configs() + [ALL_OPTIONS]
    assert len(configs) == 25
    assert _sha256(canonical_json(c.to_json()) for c in configs) == \
        "38ce039676f1ea34026eb76ae2027a1d598cc52165efc83cc72a160ee53cf584"
    assert _sha256(api.cache_key(c) for c in configs) == \
        "7686b9f315f656197bc5a48bf972463b4252be124cca7c83060fa53e63d3b5dc"
    assert api.cache_key(ALL_OPTIONS) == \
        "7d2bd7ec0ee6a2728c0839928fbb49b40b09e5f26dcf43fa176efbbb12c2980d"


RESULT_CONFIGS = {
    "fault-free": api.RunConfig("fig02", "tmk", 2, "tiny"),
    "masked": api.RunConfig(
        "fig02", "tmk", 2, "tiny", faults=FaultPlan(crash_at=((2, 0.05),)),
        replication=ReplicationConfig(3)),
}

#: sha256 of ``to_json_bytes()`` (= the ETag) and of the stored cache
#: file, recorded with the hand-listed ``to_json``/``from_json``.
RESULT_PINS = {
    "fault-free":
        ("36a886d314e0ff9525f42d78c3a1e611d926787b42dcd766b27572036ba05247",
         "306c58fa793c9696a18c6e7ee851a0c3c799bf18f2fa56815e0a58a9558077ed"),
    "masked":
        ("58bc9212f6c097d3c48b491a5a87bff54d88d63c84f3feffcd61ec5697a8ba64",
         "cfbda462ff764bffec084220e65d07a8da5d0d4142d1626a7f8ffde04c680bdd"),
}


@pytest.mark.parametrize("name", sorted(RESULT_PINS))
def test_result_bytes_etag_and_stored_record_are_the_parents(
        name, tmp_path, monkeypatch):
    monkeypatch.setattr(api, "source_fingerprint", lambda: "pinned")
    json_sha, file_sha = RESULT_PINS[name]
    cold = api.run(RESULT_CONFIGS[name], cache=ResultCache(tmp_path))
    assert (cold.replication is not None) == (name == "masked")
    assert hashlib.sha256(cold.to_json_bytes()).hexdigest() == json_sha
    assert cold.etag == f'"{json_sha}"'
    stored, = (p for p in tmp_path.rglob("*") if p.is_file())
    assert hashlib.sha256(stored.read_bytes()).hexdigest() == file_sha
    _, warm = api.lookup(RESULT_CONFIGS[name], ResultCache(tmp_path))
    assert warm == cold and warm.cached and warm.parallel is None


#: ``api.cache_key`` hex recorded at the parent (un-memoised, four JSON
#: encodings per call) with the fingerprint held at ``"pinned"``.
KEY_PINS = {
    "fault-free":
        "62d8adae594346d56c749376be947710b5777f30a59c063fc90f5a55148b9125",
    "faulted":
        "81feea5743eacf98c8fc3d3126bd35fe8f2c3c29a468db73f20caa44648ec90d",
    "masked":
        "2e955c8060de91e7705cafb3801692402f3c7818900f7866d5d0a2e2132044a4",
}


KEY_CONFIGS = dict(RESULT_CONFIGS, faulted=api.RunConfig(
    "fig02", "tmk", 2, "tiny", faults=FaultPlan(seed=7, loss=0.01)))


@pytest.mark.parametrize("name", sorted(KEY_PINS))
def test_memoised_cache_key_hex_is_the_parents(name, monkeypatch):
    monkeypatch.setattr(api, "source_fingerprint", lambda: "pinned")
    config = KEY_CONFIGS[name]
    assert api.cache_key(config) == KEY_PINS[name]  # computed ...
    assert api.cache_key(config) == KEY_PINS[name]  # ... and from the memo


def test_result_from_another_schema_or_missing_a_field_is_refused():
    record = api.run(RESULT_CONFIGS["fault-free"], use_cache=False).to_json()
    with pytest.raises(ValueError, match="RunResult schema 1 != 2"):
        api.RunResult.from_json(dict(record, schema_version=1))
    del record["time"]
    with pytest.raises(KeyError):
        api.RunResult.from_json(record)


def test_all_options_round_trip_through_the_wire():
    wire = json.loads(json.dumps(ALL_OPTIONS.to_json()))
    assert api.RunConfig.from_json(wire) == ALL_OPTIONS


def test_cold_run_puts_once_and_lookup_finds_it(tmp_path, monkeypatch):
    exp = harness.EXPERIMENTS["fig01"]
    monkeypatch.setitem(harness.EXPERIMENTS, "fig01", harness.Experiment(
        exp.exp_id, exp.label, exp.app, exp.figure, EpParams.tiny(),
        EpParams.tiny(), exp.size_note))
    harness.clear_cache()
    puts = []
    real_put = ResultCache.put
    monkeypatch.setattr(
        ResultCache, "put",
        lambda self, key, payload: (puts.append(key),
                                    real_put(self, key, payload))[1])
    cache = ResultCache(tmp_path)
    config = api.RunConfig(experiment="fig01", nprocs=2)
    assert api.lookup(config, cache) == (api.cache_key(config), None)
    cold = api.run(config, cache=cache)
    assert cold.parallel is not None and puts == [cold.cache_key]
    key, warm = api.lookup(config, cache)
    assert key == cold.cache_key and warm.cached and warm.parallel is None
    assert warm.to_json_bytes() == cold.to_json_bytes()
    harness.clear_cache()
