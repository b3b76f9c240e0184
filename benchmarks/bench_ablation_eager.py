"""Ablation: lazy versus eager release consistency.

TreadMarks' defining design choice is *laziness*: consistency information
moves only at acquires.  The Munin-generation alternative broadcasts
write notices at every release.  Running the same applications under
both modes shows what laziness buys -- the eager message count explodes
on lock-heavy codes (every release notifies n-1 processors whether or
not they will ever touch the data).
"""

from _common import PRESET, emit

from repro import api
from repro.apps import base
from repro.api import RunConfig
from repro.bench import harness
from repro.tmk.api import TmkConfig


def test_ablation_eager_release_consistency(benchmark, capsys):
    rows = ["Ablation: lazy (TreadMarks) vs eager (Munin-style) release "
            "consistency, 8 processors",
            "",
            f"{'experiment':<13}{'protocol':<8}{'messages':>10}{'KB':>10}"
            f"{'speedup':>9}",
            "-" * 50]
    water_pair = None
    for exp_id in ("fig08", "fig04"):  # Water-288 and IS-Small
        exp = harness.EXPERIMENTS[exp_id]
        params = harness.params_for(exp, PRESET)
        lazy = api.run(RunConfig(exp_id, "tmk", 8, PRESET))
        config = TmkConfig(protocol="eager")
        if exp_id == "fig08":
            eager = benchmark.pedantic(
                lambda: base.run_parallel(exp.app, "tmk", 8, params,
                                          tmk_config=config),
                rounds=1, iterations=1)
            water_pair = (lazy, eager)
        else:
            eager = base.run_parallel(exp.app, "tmk", 8, params,
                                      tmk_config=config)
        for label, messages, kbytes, time in (
                ("lazy", lazy.messages, lazy.kbytes, lazy.time),
                ("eager", eager.total_messages(), eager.total_kbytes(),
                 eager.time)):
            rows.append(f"{exp.label:<13}{label:<8}{messages:>10d}"
                        f"{kbytes:>10.0f}{lazy.seq_time / time:>9.2f}")
    emit(capsys, "ablation_eager", "\n".join(rows))

    lazy, eager = water_pair
    assert eager.total_messages() > 1.5 * lazy.messages, \
        "eager releases must broadcast far more messages"
