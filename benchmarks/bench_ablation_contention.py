"""Ablation: FDDI ring contention.

The paper's network is a single shared ring: simultaneous transmissions
serialize.  The bursty all-to-all transpose of the 3-D FFT is the
workload most exposed to this; the Barnes-Hut broadcast is the paper's
own saturation example.  Disabling the shared-medium serialization
(pretending every pair had a private link) isolates the contention share
of each PVM run.
"""

from _common import PRESET, emit

from repro import api
from repro.api import RunConfig
from repro.bench import harness
from repro.sim.costmodel import CostModel

_FREE = CostModel.paper_testbed().variant(shared_medium=False)


def test_ablation_ring_contention(benchmark, capsys):
    rows = ["Ablation: ring contention (PVM, 8 processors)",
            "",
            f"{'experiment':<14}{'shared ring':>12}{'private links':>14}"
            f"{'link util':>11}",
            "-" * 51]
    fft_pair = None
    for exp_id in ("fig11", "fig10"):
        exp = harness.EXPERIMENTS[exp_id]
        shared = api.run(RunConfig(exp_id, "pvm", 8, PRESET))
        private_config = RunConfig(exp_id, "pvm", 8, PRESET, cost=_FREE)
        if exp_id == "fig11":
            # The timed unit always simulates (and stores its record).
            private = benchmark.pedantic(
                lambda: api.run(private_config, want_parallel=True),
                rounds=1, iterations=1)
            fft_pair = (shared, private)
        else:
            private = api.run(private_config)
        rows.append(f"{exp.label:<14}{shared.speedup:>12.2f}"
                    f"{private.speedup:>14.2f}"
                    f"{shared.link_utilization:>11.2f}")
    emit(capsys, "ablation_contention", "\n".join(rows))

    shared, private = fft_pair
    assert private.time < shared.time, \
        "the FFT transpose bursts must be slowed by ring contention"
