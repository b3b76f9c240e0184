"""Ablation: TreadMarks UDP MTU.

"Since the TreadMarks MTU is [several] kilobytes, extra messages due to
diff accumulation are not a serious problem" -- several accumulated diffs
fit in one datagram.  Shrinking the MTU to an Ethernet-class 1500 bytes
multiplies the datagram count for bulk diff traffic and slows IS-Large
further; growing it has diminishing returns.
"""

from _common import PRESET, emit

from repro import api
from repro.api import RunConfig
from repro.sim.costmodel import CostModel


def _config(mtu):
    # IS-Large: bulk diff traffic.
    return RunConfig("fig05", "tmk", 8, PRESET,
                     cost=CostModel.paper_testbed().variant(udp_mtu=mtu))


def test_ablation_udp_mtu(benchmark, capsys):
    # The timed unit always simulates (and stores its record).
    small = benchmark.pedantic(
        lambda: api.run(_config(1500), want_parallel=True),
        rounds=1, iterations=1)
    rows = [
        "Ablation: TreadMarks UDP MTU on IS-Large (8 processors)",
        "",
        f"{'MTU':>8}{'messages':>10}{'KB':>10}{'speedup':>9}",
        "-" * 37,
        f"{1500:>8d}{small.messages:>10d}"
        f"{small.kbytes:>10.0f}{small.speedup:>9.2f}",
    ]
    results = {1500: small}
    for mtu in (8192, 32768):
        run = api.run(_config(mtu))
        results[mtu] = run
        rows.append(f"{mtu:>8d}{run.messages:>10d}"
                    f"{run.kbytes:>10.0f}{run.speedup:>9.2f}")
    emit(capsys, "ablation_mtu", "\n".join(rows))

    assert results[1500].messages > 3 * results[8192].messages
    assert results[1500].time > results[8192].time
