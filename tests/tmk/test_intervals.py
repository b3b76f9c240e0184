"""Unit and property tests for intervals, vector time and write notices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tmk.intervals import (IntervalRecord, covers, dominant_writers,
                                 vc_max)


def rec(creator, seq, vc, pages=(0,)):
    return IntervalRecord(creator=creator, seq=seq, vc=tuple(vc),
                          pages=tuple(pages))


class TestVcMax:
    def test_componentwise(self):
        assert vc_max((1, 5, 0), (2, 3, 0)) == (2, 5, 0)

    def test_idempotent(self):
        assert vc_max((1, 2), (1, 2)) == (1, 2)


class TestPrecedes:
    def test_same_creator_ordered_by_seq(self):
        a = rec(0, 1, (1, 0))
        b = rec(0, 3, (3, 0))
        assert a.precedes(b)
        assert not b.precedes(a)

    def test_cross_creator_requires_strictly_greater_vc(self):
        a = rec(0, 2, (2, 0))
        # b closed having seen 3 intervals of 0 (vc[0] == 3 > 2).
        b = rec(1, 0, (3, 0))
        assert a.precedes(b)
        # c closed having seen only intervals < 2 of creator 0.
        c = rec(1, 0, (2, 0))
        assert not a.precedes(c)

    def test_concurrent_intervals(self):
        a = rec(0, 0, (0, 0))
        b = rec(1, 0, (0, 0))
        assert not a.precedes(b)
        assert not b.precedes(a)

    def test_irreflexive(self):
        a = rec(0, 1, (1, 0))
        assert not a.precedes(a)


class TestCovers:
    def test_own_intervals_always_covered(self):
        r = rec(0, 5, (5, 0))
        assert covers(r, (0, 5))
        assert covers(r, (0, 0))
        assert not covers(r, (0, 6))

    def test_cross_creator_coverage(self):
        r = rec(1, 0, (3, 0))
        assert covers(r, (0, 2))   # vc[0]=3 > 2: seen
        assert not covers(r, (0, 3))


class TestDominantWriters:
    def test_empty(self):
        assert dominant_writers({}) == {}

    def test_single_writer(self):
        needed = {(0, 1): rec(0, 1, (1, 0))}
        assert dominant_writers(needed) == {0: [(0, 1)]}

    def test_chain_collapses_to_latest(self):
        """If writer 1 saw writer 0's interval, ask only writer 1."""
        needed = {
            (0, 0): rec(0, 0, (0, 0)),
            (1, 0): rec(1, 0, (1, 0)),  # vc[0]=1 > 0: saw (0,0)
        }
        assignment = dominant_writers(needed)
        assert assignment == {1: [(0, 0), (1, 0)]}

    def test_concurrent_writers_all_asked(self):
        """False sharing: incomparable intervals need separate requests."""
        needed = {
            (0, 0): rec(0, 0, (0, 0, 0)),
            (1, 0): rec(1, 0, (0, 0, 0)),
            (2, 0): rec(2, 0, (0, 0, 0)),
        }
        assignment = dominant_writers(needed)
        assert sorted(assignment) == [0, 1, 2]
        for writer, ids in assignment.items():
            assert ids == [(writer, 0)]

    def test_every_needed_interval_assigned_exactly_once(self):
        needed = {
            (0, 0): rec(0, 0, (0, 0)),
            (0, 1): rec(0, 1, (1, 0)),
            (1, 0): rec(1, 0, (2, 0)),  # saw both of 0's
        }
        assignment = dominant_writers(needed)
        assigned = [iid for ids in assignment.values() for iid in ids]
        assert sorted(assigned) == sorted(needed)
        assert len(assigned) == len(set(assigned))

    def test_deterministic_tie_break(self):
        needed = {
            (0, 0): rec(0, 0, (0, 0)),
            (1, 0): rec(1, 0, (0, 0)),
        }
        a1 = dominant_writers(dict(needed))
        a2 = dominant_writers(dict(reversed(list(needed.items()))))
        assert a1 == a2


# ----------------------------------------------------------------------
# Property: a simulated causal history always yields a complete,
# duplicate-free assignment covering every needed interval.
# ----------------------------------------------------------------------
@st.composite
def causal_history(draw):
    """Generate interval records from a random causal schedule."""
    nprocs = draw(st.integers(2, 5))
    vcs = [[0] * nprocs for _ in range(nprocs)]
    records = {}
    for _ in range(draw(st.integers(1, 12))):
        p = draw(st.integers(0, nprocs - 1))
        # Possibly synchronize with another processor first (acquire).
        if draw(st.booleans()):
            q = draw(st.integers(0, nprocs - 1))
            vcs[p] = [max(a, b) for a, b in zip(vcs[p], vcs[q])]
        seq = vcs[p][p]
        record = rec(p, seq, tuple(vcs[p]))
        records[(p, seq)] = record
        vcs[p][p] = seq + 1
    # The faulting processor needs a random subset.
    keys = sorted(records)
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1,
                           max_size=len(keys), unique=True))
    return {k: records[k] for k in chosen}


@settings(max_examples=100, deadline=None)
@given(causal_history())
def test_dominant_writers_partition_property(needed):
    assignment = dominant_writers(needed)
    assigned = [iid for ids in assignment.values() for iid in ids]
    # Complete and duplicate-free.
    assert sorted(assigned) == sorted(needed)
    # Every chosen writer can actually serve what it was assigned.
    latest = {}
    for record in needed.values():
        cur = latest.get(record.creator)
        if cur is None or record.seq > cur.seq:
            latest[record.creator] = record
    for writer, ids in assignment.items():
        for iid in ids:
            assert covers(latest[writer], iid)


@settings(max_examples=100, deadline=None)
@given(causal_history())
def test_dominant_writers_minimality(needed):
    """No chosen writer's latest interval precedes another chosen one's."""
    assignment = dominant_writers(needed)
    latest = {}
    for record in needed.values():
        cur = latest.get(record.creator)
        if cur is None or record.seq > cur.seq:
            latest[record.creator] = record
    chosen = sorted(assignment)
    for w in chosen:
        for other in chosen:
            if w != other:
                assert not latest[w].precedes(latest[other])


# ----------------------------------------------------------------------
# The single-dominator fast path answers exactly as the general cover.
# ----------------------------------------------------------------------
def general_cover(needed):
    """``dominant_writers`` as it was before its fast path: drop every
    writer whose latest interval precedes another's, then give each
    interval to the lowest-numbered remaining writer that covers it."""
    latest = {}
    for record in needed.values():
        cur = latest.get(record.creator)
        if cur is None or record.seq > cur.seq:
            latest[record.creator] = record
    chosen = [w for w in sorted(latest)
              if not any(other != w and latest[w].precedes(latest[other])
                         for other in latest)]
    assignment = {w: [] for w in chosen}
    for iid in sorted(needed):
        w = next(w for w in chosen if covers(latest[w], iid))
        assignment[w].append(iid)
    return {w: ids for w, ids in assignment.items() if ids}


@st.composite
def sync_history(draw):
    """Intervals of 3-8 processors synchronising through one lock (a
    hand-off chain), barriers, and unsynchronised local intervals."""
    nprocs = draw(st.integers(3, 8))
    vcs = [(0,) * nprocs for _ in range(nprocs)]
    lock = (0,) * nprocs  # vector time of the lock's last release
    records = {}

    def close(p):
        seq = vcs[p][p]
        records[(p, seq)] = rec(p, seq, vcs[p])
        vcs[p] = vcs[p][:p] + (seq + 1,) + vcs[p][p + 1:]

    for _ in range(draw(st.integers(1, 16))):
        step = draw(st.sampled_from(["lock", "barrier", "local"]))
        if step == "barrier":
            for p in range(nprocs):
                close(p)
            merged = vcs[0]
            for vc in vcs[1:]:
                merged = vc_max(merged, vc)
            vcs = [merged] * nprocs
            continue
        p = draw(st.integers(0, nprocs - 1))
        if step == "lock":
            vcs[p] = vc_max(vcs[p], lock)
        close(p)
        if step == "lock":
            lock = vcs[p]
    keys = sorted(records)
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1,
                           max_size=len(keys), unique=True))
    return {k: records[k] for k in chosen}


@settings(max_examples=300, deadline=None)
@given(sync_history())
def test_dominant_writers_equals_the_general_cover(needed):
    got = dominant_writers(needed)
    assert list(got.items()) == list(general_cover(needed).items())
