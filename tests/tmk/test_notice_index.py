"""Reference-model test for the shared write-notice index.

``LrcCore`` no longer stores pending write notices: it derives a page's
set from the run's one ``NoticeIndex``, its own knowledge and a per-page
cursor.  The shadow below is the data structure that was deleted -- every
processor files every page of every newly-learned foreign record into its
own ``page -> {interval id -> record}`` dict, eagerly, at merge time --
kept alive here, test-only, to check the derivation against at every
point the protocol consults it: each fault (before every fetch round)
and each piggyback apply.
"""

import itertools

import pytest

from repro.apps import base
from repro.apps.is_sort import IsParams
from repro.apps.sor import SorParams
from repro.apps.tsp import TspParams
from repro.sim.cluster import Cluster
from repro.tmk.api import TmkConfig, attach_tmk
from repro.tmk.intervals import IntervalRecord, NoticeIndex


class EagerPendingShadow:
    """The pre-index bookkeeping of one processor, replayed beside it."""

    def __init__(self, core):
        self.core = core
        self.known = {}
        self.pending = {}
        self.checks = {"fault": 0, "piggyback": 0}
        self._in_piggyback = False
        for name in ("close_interval", "merge", "_on_erc_notice", "_pending",
                     "_apply_piggybacked"):
            setattr(core, name, getattr(self, name))
        # Handlers were registered with the unwrapped bound method.
        if core.eager:
            core.proc._handlers["erc_notice"] = self._on_erc_notice

    def _real(self, name):
        return getattr(type(self.core), name).__get__(self.core)

    def _file(self, record):
        """The deleted code: one dict entry per page per processor."""
        if record.id in self.known:
            return
        self.known[record.id] = record
        if record.creator != self.core.pid:
            for page in record.pages:
                self.pending.setdefault(page, {})[record.id] = record

    # -- wrapped LrcCore methods ---------------------------------------
    def close_interval(self):
        record = self._real("close_interval")()
        if record is not None:
            self.known[record.id] = record
        return record

    def merge(self, records, their_vc, piggybacked=None):
        for record in sorted(records, key=lambda r: r.seq):
            self._file(record)
        self._real("merge")(records, their_vc, piggybacked)

    def _on_erc_notice(self, delivery):
        self._file(delivery.payload.record)
        self._real("_on_erc_notice")(delivery)

    def _pending(self, page, take=False):
        derived = self._real("_pending")(page, take)
        expected = self.pending.get(page, {})
        assert set(derived) == set(expected), (
            f"P{self.core.pid} page {page}: derived {sorted(derived)} "
            f"!= eagerly filed {sorted(expected)}")
        assert all(derived[iid] is expected[iid] for iid in derived)
        self.checks["piggyback" if self._in_piggyback else "fault"] += 1
        if take:  # the deleted code popped the page's dict here
            self.pending.pop(page, None)
        return derived

    def _apply_piggybacked(self, pages, piggybacked):
        self._in_piggyback = True
        try:
            self._real("_apply_piggybacked")(pages, piggybacked)
        finally:
            self._in_piggyback = False

    # -- end of run -----------------------------------------------------
    def check_every_page(self):
        core = self.core
        pages = (set(core.system.notices._pages) | set(self.pending)
                 | core.pt.invalid_pages())
        for page in sorted(pages):
            derived = self._real("_pending")(page)
            assert set(derived) == set(self.pending.get(page, {}))
            assert bool(derived) == (not core.pt.is_valid(page))


TINY = {"sor": SorParams.tiny(), "is": IsParams.tiny(),
        "tsp": TspParams.tiny()}


def run_shadowed(app, nprocs=4, **config):
    spec = base.get_app(app)
    cluster = Cluster(nprocs)
    endpoints = attach_tmk(cluster, TmkConfig(**config))
    shadows = [EagerPendingShadow(tmk.core) for tmk in endpoints]
    outcome = cluster.run(spec.tmk_main, args=(TINY[app],))
    seq = base.run_sequential(spec, TINY[app])
    assert spec.verify(spec.collect(outcome.results), seq.result)
    for shadow in shadows:
        shadow.check_every_page()
    return shadows


MATRIX = [
    dict(protocol=protocol, piggyback_budget=budget,
         barrier_kind=barrier_kind)
    for protocol, budget, barrier_kind
    in itertools.product(("lazy", "eager"), (0, 1 << 16),
                         ("central", "tree"))
]


def _id(config):
    return "-".join(str(v) for v in config.values())


@pytest.mark.parametrize("config", MATRIX, ids=_id)
@pytest.mark.parametrize("app", ("sor", "is", "tsp"))
def test_derived_pending_equals_eager_filing(app, config):
    shadows = run_shadowed(app, **config)
    checks = {kind: sum(s.checks[kind] for s in shadows)
              for kind in ("fault", "piggyback")}
    assert checks["fault"] > 0
    if (config["piggyback_budget"] and app == "tsp"
            and config["protocol"] == "lazy"):
        # Lock grants carried diffs.  (Under eager RC the notices beat
        # the grant, so a grant names no page its receiver has not
        # already invalidated and nothing is patched in place.)
        assert checks["piggyback"] > 0


class TestNoticeIndex:
    def rec(self, creator, seq, pages):
        return IntervalRecord(creator=creator, seq=seq, vc=(0, 0, 0),
                              pages=tuple(pages))

    def test_window_is_known_minus_applied(self):
        index = NoticeIndex()
        records = [self.rec(1, s, (7,)) for s in range(5)]
        for record in records:
            index.add(record)
        index.add(self.rec(2, 0, (7, 8)))
        # P0 knows P1's first three and nothing of P2; applied the first.
        got = index.pending(7, 0, known=[0, 3, 0], applied={1: 1})
        assert list(got) == [(1, 1), (1, 2)]
        assert got[(1, 2)] is records[2]
        # A processor's own records are never pending for it.
        assert list(index.pending(7, 1, known=[0, 5, 1], applied={})) == [
            (2, 0)]
        assert index.pending(9, 0, [9, 9, 9], {}) == {}

    def test_take_advances_the_cursor_past_everything_known(self):
        index = NoticeIndex()
        index.add(self.rec(1, 0, (7,)))
        index.add(self.rec(2, 0, (7, 8)))
        cursor = {}
        assert list(index.pending(7, 0, [4, 1, 1], cursor)) == [(1, 0), (2, 0)]
        assert cursor == {}  # a peek
        assert list(index.pending(7, 0, [4, 1, 1], cursor, take=True)) == [
            (1, 0), (2, 0)]
        assert cursor == {1: 1, 2: 1}
        assert index.pending(7, 0, [4, 1, 1], cursor) == {}
        # Page 8 has its own cursor; a later record of P2 is pending again.
        assert list(index.pending(8, 0, [4, 1, 1], {})) == [(2, 0)]
        index.add(self.rec(2, 1, (7,)))
        assert list(index.pending(7, 0, [4, 1, 2], cursor)) == [(2, 1)]
