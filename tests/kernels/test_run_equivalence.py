"""Whole-run byte-identity across kernel backends.

The kernel backend is a host-side detail the process observes: a run on
``pure``, ``numpy``, or ``compiled`` must produce the same protocol
trace, the same virtual times, the same wire accounting, and the same
application results, byte for byte.  That property is what lets the
backend be no part of a run's configuration or cache key -- a record
computed on one host serves warm reads on every other.
"""

import numpy as np
import pytest

from repro.api import RunConfig
from repro.apps import base
from repro.apps.sor import SorParams
from repro.apps.tsp import TspParams
from repro.kernels import compiled, get_backend
from repro.sim.trace import Trace

NPROCS = 4
#: None is what every real caller passes; the names go through the one
#: seam left for substituting a backend, ``run_parallel(kernels=)``.
NAMES = ("pure", "numpy", None) + (
    ("compiled",) if compiled.BACKEND is not None else ())


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


def run_one(app, params, kernels):
    trace = Trace()
    result = base.run_parallel(app, "tmk", NPROCS, params, trace=trace,
                               kernels=kernels)
    return result, trace


@pytest.mark.parametrize("app,params", [
    ("sor", SorParams.tiny()),   # dense contiguous writes
    ("tsp", TspParams.tiny()),   # scattered lock-protected writes
])
def test_backends_byte_identical_end_to_end(app, params):
    reference, ref_trace = run_one(app, params, "pure")
    for name in NAMES[1:]:
        result, trace = run_one(app, params, name)
        assert [str(e) for e in trace.events] \
            == [str(e) for e in ref_trace.events], name
        assert result.time == reference.time, name
        assert result.total_messages() == reference.total_messages(), name
        assert result.total_kbytes() == reference.total_kbytes(), name
        assert _same(result.result, reference.result), name


def test_kernels_round_trips_and_validates():
    """``kernels`` is no longer a setting: not an argument, not
    serialized, and old JSON that carries it (or ``engine``) still loads."""
    with pytest.raises(TypeError):
        RunConfig("fig01", kernels="compiled")
    cfg = RunConfig.from_json(
        {"experiment": "fig01", "kernels": "pure", "engine": "threads"})
    assert cfg == RunConfig("fig01")
    assert "kernels" not in cfg.to_json()
    assert RunConfig.from_json(cfg.to_json()) == cfg
    assert RunConfig.kernels == cfg.kernels == get_backend().name
