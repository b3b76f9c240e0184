"""Tests for the one worker pool behind ``repro sweep`` and ``repro serve``.

The crash policy: a worker death takes down every task in flight, each
is re-run alone, and only the task that kills its worker again is
reported (``WorkerCrash``); the others complete.
"""

import asyncio
import json
import time

from repro import api
from repro.bench.pool import TaskError, WorkerCrash, WorkerPool, work


def _run_payload(experiment, **extra):
    config = api.RunConfig(experiment=experiment, system="tmk", nprocs=2,
                           preset="tiny")
    return dict({"kind": "run", "config": config.to_json()}, **extra)


def test_worker_death_implicates_only_its_task(tmp_path):
    payloads = [_run_payload("fig01"),
                _run_payload("fig02", inject="crash"),
                _run_payload("fig03")]

    async def main():
        pool = WorkerPool(2, cache_dir=str(tmp_path))
        try:
            outcomes = await asyncio.gather(*map(pool.run, payloads),
                                            return_exceptions=True)
            return outcomes, pool.crashes
        finally:
            pool.shutdown()

    (first, guilty, third), crashes = asyncio.run(main())
    assert isinstance(guilty, WorkerCrash)
    assert crashes == 1  # one break, however many tasks it took down
    for out, experiment in ((first, "fig01"), (third, "fig03")):
        config = api.RunConfig.from_json(_run_payload(experiment)["config"])
        direct = api.run(config, use_cache=False)
        assert out["body"].encode() == direct.to_json_bytes()
        assert json.loads(out["body"])["experiment"] == experiment


def test_errors_cross_the_boundary_as_json():
    out = work({"kind": "nope"})
    assert out == {"error": "unknown task kind 'nope'", "type": "ValueError"}
    error = TaskError(out["type"], out["error"])
    assert str(error) == "ValueError: unknown task kind 'nope'"


def test_expired_task_is_not_computed():
    assert work({"kind": "nope", "deadline": time.time() - 1}) == \
        {"expired": True}
