"""Ablation: PVM direct TCP connections versus daemon routing.

"The usual way for two user processes on different hosts to communicate
with each other is via their local daemons.  They can however set up a
direct TCP connection ... We use a direct connection between the user
processes in our experiments because it results in better performance."
This bench quantifies that choice on IS-Small (latency-sensitive chain).
"""

from _common import PRESET, emit

from repro import api
from repro.apps import base
from repro.api import RunConfig
from repro.bench import harness


def test_ablation_pvm_routing(benchmark, capsys):
    exp = harness.EXPERIMENTS["fig04"]  # IS-Small
    params = harness.params_for(exp, PRESET)

    direct = api.run(RunConfig("fig04", "pvm", 8, PRESET))
    routed = benchmark.pedantic(
        lambda: base.run_parallel(exp.app, "pvm", 8, params,
                                  pvm_route="daemon"),
        rounds=1, iterations=1)

    report = "\n".join([
        "Ablation: PVM message routing on IS-Small (8 processors)",
        "",
        f"{'route':<22}{'speedup':>9}",
        "-" * 31,
        f"{'direct TCP (paper)':<22}{direct.speedup:>9.2f}",
        f"{'via pvmd daemons':<22}{direct.seq_time / routed.time:>9.2f}",
    ])
    emit(capsys, "ablation_pvm_route", report)
    assert routed.time > direct.time, \
        "daemon routing adds store-and-forward overhead"
