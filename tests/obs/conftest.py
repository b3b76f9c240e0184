"""Fixtures shared by the observability tests."""

import pytest

from repro import api


@pytest.fixture(scope="package")
def live_run():
    """``RunConfig -> ParallelResult``, each config run (and verified)
    through ``api.run`` once for this package: the golden-trace,
    determinism, Perfetto and profile tests read the same 4-processor
    tiny runs."""
    runs = {}

    def run(config):
        if config not in runs:
            runs[config] = api.run(config, use_cache=False,
                                   want_parallel=True).parallel
        return runs[config]

    return run
