"""End-to-end tests for the resilient serving layer.

A real :class:`ReproServer` on an ephemeral port, driven through the
repo's own HTTP client helpers.  The config is deliberately tight (one
worker, tiny queue, injection enabled) so every rung of the degradation
ladder is reachable deterministically:

fresh -> coalesced -> stale-degraded (``Degraded:`` header) -> shed.
"""

import asyncio
import json

from repro import api
from repro.bench import cache as cache_mod
from repro.cli import build_parser, cmd_view
from repro.serve import ReproServer, ServeConfig
from repro.serve.http import Request, read_response, render_request
from repro.sim.faults import FaultPlan

TINY_RUN = "/run?experiment=fig01&system=tmk&nprocs=2&preset=tiny"
TINY_FIGURE = "/figure?experiment=fig01&nprocs=1,2&preset=tiny"


def make_config(**overrides):
    defaults = dict(port=0, workers=1, queue_depth=2,
                    default_deadline=60.0, allow_injection=True)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def fetch(server, target, headers=None, timeout=60.0):
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   server.port)
    try:
        writer.write(render_request("GET", target, headers))
        await writer.drain()
        return await asyncio.wait_for(read_response(reader), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def serve(coro_factory, cache_dir, **config_overrides):
    """Run one test scenario against a live server, then tear it down.

    Each test gets its own ``cache_dir`` (not the session-wide one from
    conftest) so warm/cold expectations hold regardless of test order.
    """

    async def main():
        server = ReproServer(make_config(**config_overrides),
                             cache_dir=str(cache_dir))
        await server.start(prewarm=True)
        try:
            return await coro_factory(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestOpsEndpoints:
    def test_healthz_and_metrics(self, tmp_path):
        async def scenario(server):
            health = await fetch(server, "/healthz")
            assert health.status == 200
            body = json.loads(health.body)
            assert body["status"] == "ok"
            # Which code this server runs (it keeps its fingerprint for
            # life, so a mismatch with the tree means "restart me").
            assert body["source"] == cache_mod.source_fingerprint()[:12]
            metrics = await fetch(server, "/metrics")
            data = json.loads(metrics.body)
            assert data["worker_crashes"] == 0
            assert metrics.header("X-Repro-Served") == "ops"

        serve(scenario, tmp_path)

    def test_unknown_route_and_bad_method(self, tmp_path):
        async def scenario(server):
            for path in ("/nope", "/speedup"):
                missing = await fetch(server, path)
                assert missing.status == 404
                assert missing.header("X-Repro-Served") == "rejected"
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(render_request("POST", "/run"))
            await writer.drain()
            response = await read_response(reader)
            writer.close()
            assert response.status == 405

        serve(scenario, tmp_path)

    def test_bad_parameters_are_400(self, tmp_path):
        async def scenario(server):
            for target in ["/run",  # missing experiment
                           "/run?experiment=fig99",
                           "/run?experiment=fig01&system=mpi",
                           "/run?experiment=fig01&deadline_ms=-5",
                           "/run?experiment=fig01&deadline_ms=nan",
                           "/run?experiment=fig01&nprocs=9999",
                           "/run?experiment=fig01&faults.slow_nodes=1",
                           "/run?experiment=fig01"
                           "&recovery.checkpoint_interval=0.25",
                           "/trace?app=water&nprocs=0",
                           "/trace?app=water&limit=-3",
                           "/figure?experiment=fig01&nprocs=two",
                           "/figure?experiment=fig01&nprocs=0,8",
                           "/figure?experiment=fig01&nprocs=1,-2"]:
                response = await fetch(server, target)
                assert response.status == 400, target
                assert response.header("X-Repro-Served") == "rejected"
            # An infinite deadline is admitted, clamped to the ceiling.
            unbounded = Request("GET", "/run", "/run",
                                {"deadline_ms": "inf"}, {})
            assert server._deadline_seconds(unbounded) == \
                server.config.max_deadline

        serve(scenario, tmp_path)

    def test_fault_fields_are_query_parameters(self, tmp_path):
        """``RunConfig``'s nested fields are reachable by their dotted
        names; a run that fails as configured is the client's 400, and a
        field an endpoint does not take is refused, not dropped."""
        async def scenario(server):
            lossy = await fetch(server, TINY_RUN + "&faults.loss=0.01")
            assert lossy.status == 200
            config = api.RunConfig("fig01", "tmk", 2, "tiny",
                                   faults=FaultPlan(loss=0.01))
            assert lossy.body == api.run(config).to_json_bytes()
            doomed = await fetch(
                server, TINY_RUN + "&faults.crash_at=0@0.0001,1@0.0002")
            assert doomed.status == 400
            assert json.loads(doomed.body)["error"].startswith("NodeFailure")
            for target in ["/figure?experiment=fig01&system=pvm",
                           "/trace?app=ep&experiment=fig01",
                           "/profile?experiment=fig01&faults.loss=0.1"]:
                refused = await fetch(server, target)
                assert refused.status == 400, target
                assert "does not take" in json.loads(refused.body)["error"]

        serve(scenario, tmp_path)

    def test_unexpected_error_is_a_classified_500(self, tmp_path):
        async def scenario(server):
            def boom():
                raise RuntimeError("wires crossed")
            server._healthz = boom
            response = await fetch(server, "/healthz")
            assert response.status == 500
            assert response.header("X-Repro-Served") == "error"
            assert b"wires crossed" in response.body
            # The connection survives: the next request still works.
            metrics = await fetch(server, "/metrics")
            assert metrics.status == 200
            assert json.loads(metrics.body)["unexpected_errors"] == 1

        serve(scenario, tmp_path)

    def test_injection_rejected_when_disabled(self, tmp_path):
        async def scenario(server):
            response = await fetch(server, TINY_RUN + "&inject=crash")
            assert response.status == 400
            assert b"disabled" in response.body

        serve(scenario, tmp_path, allow_injection=False)


    def test_paper_preset_is_served(self, tmp_path):
        """The paper preset's largest shared heap, fig11's 32 MiB FFT, is
        served like any other run."""
        async def scenario(server):
            response = await fetch(
                server, "/run?experiment=fig11&preset=paper&system=tmk"
                        "&nprocs=2")
            assert response.status == 200, response.body
            body = json.loads(response.body)
            assert (body["experiment"], body["preset"]) == ("fig11", "paper")

        serve(scenario, tmp_path)


class TestServingLadder:
    def test_fresh_then_warm_then_304(self, tmp_path):
        async def scenario(server):
            cold = await fetch(server, TINY_RUN)
            assert cold.status == 200
            assert cold.header("X-Repro-Served") == "fresh"
            assert cold.header("X-Repro-Cache") == "miss"
            etag = cold.header("ETag")
            assert etag and etag.startswith('"')

            warm = await fetch(server, TINY_RUN)
            assert warm.status == 200
            assert warm.header("X-Repro-Cache") == "hit"
            assert warm.body == cold.body
            assert warm.header("ETag") == etag

            conditional = await fetch(server, TINY_RUN,
                                      {"If-None-Match": etag})
            assert conditional.status == 304
            assert conditional.body == b""

            # The served bytes are the canonical RunResult encoding.
            from repro import api
            config = api.RunConfig(experiment="fig01", system="tmk",
                                   nprocs=2, preset="tiny")
            direct = api.run(config, use_cache=False)
            assert cold.body == direct.to_json_bytes()
            assert etag == direct.etag

        serve(scenario, tmp_path)

    def test_if_none_match_is_a_weak_list_comparison(self, tmp_path):
        """RFC 9110 section 13.1.2: the tag alone, ``W/``-prefixed, in a
        list, or ``*`` all name the entity; a list without it does not."""
        async def scenario(server):
            etag = (await fetch(server, TINY_RUN)).header("ETag")
            other = '"' + "0" * 64 + '"'
            for header, status in [(etag, 304),
                                   (f"W/{etag}", 304),
                                   (f"{other}, W/{etag}", 304),
                                   ("*", 304),
                                   (f"{other}, W/{other}", 200)]:
                response = await fetch(server, TINY_RUN,
                                       {"If-None-Match": header})
                assert response.status == status, header
                assert response.header("ETag") == etag
                assert bool(response.body) == (status == 200), header

        serve(scenario, tmp_path)

    def test_warm_run_derives_nothing_twice(self, tmp_path, monkeypatch):
        """After one hit, a warm ``GET /run`` neither walks the source
        tree nor rebuilds the cost model to find its cache key."""
        from repro.sim.costmodel import CostModel

        def forbidden(*args, **kwargs):
            raise AssertionError("derived again on the warm path")

        async def scenario(server):
            cold = await fetch(server, TINY_RUN)
            assert (await fetch(server, TINY_RUN)).body == cold.body
            monkeypatch.setattr(cache_mod, "_source_files", forbidden)
            monkeypatch.setattr(CostModel, "paper_testbed", forbidden)
            warm = await fetch(server, TINY_RUN)
            assert warm.status == 200
            assert warm.header("X-Repro-Cache") == "hit"
            assert warm.body == cold.body

        serve(scenario, tmp_path)

    def test_identical_cold_requests_coalesce(self, tmp_path):
        async def scenario(server):
            target = TINY_FIGURE + "&inject=slow:0.3"
            responses = await asyncio.gather(
                *[fetch(server, target) for _ in range(4)])
            assert [r.status for r in responses] == [200] * 4
            served = sorted(r.header("X-Repro-Served")
                            for r in responses)
            assert served.count("fresh") == 1
            assert served.count("coalesced") == 3
            assert len({r.body for r in responses}) == 1
            assert server.flights.coalesced == 3

        serve(scenario, tmp_path)

    def test_injected_crash_is_the_only_5xx(self, tmp_path):
        async def scenario(server):
            warm = await fetch(server, TINY_RUN)
            crashed = await fetch(server, TINY_RUN + "&inject=crash")
            assert crashed.status == 500
            assert crashed.header("X-Repro-Injected") == "crash"
            # The warm path needs no worker; a cold request after the
            # crash gets a rebuilt pool -- neither sees a 5xx.
            again = await fetch(server, TINY_RUN)
            assert again.status == 200
            assert again.header("X-Repro-Cache") == "hit"
            assert again.body == warm.body
            cold = await fetch(
                server, "/run?experiment=fig01&system=pvm&nprocs=2"
                        "&preset=tiny")
            assert cold.status == 200
            assert cold.header("X-Repro-Served") == "fresh"
            assert cold.header("X-Repro-Cache") == "miss"

        serve(scenario, tmp_path)

    def test_crash_spares_a_request_sharing_the_pool(self, tmp_path):
        """One worker death, two tasks in flight: the innocent is re-run
        alone and answers fresh; the guilty one alone gets the 500."""
        async def scenario(server):
            innocent, crashed = await asyncio.gather(
                fetch(server, TINY_FIGURE + "&inject=slow:0.5"),
                fetch(server, TINY_RUN + "&inject=crash"))
            assert crashed.status == 500
            assert crashed.header("X-Repro-Injected") == "crash"
            assert innocent.status == 200
            assert innocent.header("X-Repro-Served") == "fresh"
            figure = cmd_view(build_parser().parse_args(
                ["figure", "fig01", "--nprocs", "1,2", "--preset", "tiny"]))
            assert innocent.body == figure.encode()
            metrics = json.loads((await fetch(server, "/metrics")).body)
            assert metrics["worker_crashes"] == 1

        serve(scenario, tmp_path, workers=2)

    def test_stale_degraded_on_deadline(self, tmp_path):
        async def scenario(server):
            target = "/figure?experiment=fig01&nprocs=1,2&preset=bench"
            fresh = await fetch(server, target)
            assert fresh.status == 200
            degraded = await fetch(server, target + "&deadline_ms=1")
            assert degraded.status == 200
            assert degraded.header("X-Repro-Served") == "stale-degraded"
            marker = degraded.header("Degraded")
            assert marker is not None and "stale" in marker
            assert "reason=deadline" in marker
            assert degraded.body == fresh.body  # complete, last-known-good

        serve(scenario, tmp_path)

    def test_deadline_shed_on_cold_key(self, tmp_path):
        async def scenario(server):
            response = await fetch(
                server,
                "/profile?experiment=fig03&system=tmk&nprocs=2"
                "&preset=tiny&deadline_ms=1")
            assert response.status == 429
            assert response.header("X-Repro-Served") == "shed"
            assert response.header("X-Repro-Reason") == "deadline"
            # The abandoned flight hands its slot back: once it lands, the
            # same request is admitted and computed.
            for _ in range(200):
                if server.pool.inflight == 0:
                    break
                await asyncio.sleep(0.05)
            again = await fetch(
                server,
                "/profile?experiment=fig03&system=tmk&nprocs=2"
                "&preset=tiny")
            assert again.status == 200
            assert again.header("X-Repro-Served") == "fresh"

        serve(scenario, tmp_path)

    def test_saturation_sheds_not_hangs(self, tmp_path):
        async def scenario(server):
            slow = ("/trace?app=water&nprocs=2&limit=5"
                    "&inject=slow:{i}.5")
            # Distinct targets so nothing coalesces: 1 worker + 2 queue
            # slots; the 4th concurrent cold request must shed quickly.
            targets = [slow.format(i=0) + f"&limit={5 + i}"
                       for i in range(4)]
            responses = await asyncio.gather(
                *[fetch(server, t) for t in targets])
            statuses = sorted(r.status for r in responses)
            assert statuses.count(429) >= 1
            shed = [r for r in responses if r.status == 429]
            assert all(r.header("X-Repro-Reason") == "queue_full"
                       for r in shed)

        serve(scenario, tmp_path)


class TestServerMetrics:
    def test_metrics_reflect_the_ladder(self, tmp_path):
        async def scenario(server):
            await fetch(server, TINY_RUN)
            await fetch(server, TINY_RUN)
            crashed = await fetch(server, TINY_RUN + "&inject=crash")
            assert crashed.status == 500
            metrics = json.loads((await fetch(server, "/metrics")).body)
            assert metrics["fresh"] >= 2
            assert metrics["worker_crashes"] == 1
            assert metrics["injected_errors"] == 1

        serve(scenario, tmp_path)
