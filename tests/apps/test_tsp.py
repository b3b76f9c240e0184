"""Tests for TSP (branch-and-bound traveling salesman)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.apps import base, tsp
from repro.apps.tsp import (TourEngine, TspParams, distance_matrix,
                            greedy_tour_cost, lower_bound, min_out_edges,
                            recursive_solve, remaining_slack, run_table,
                            _permutations, _prio, _prio_bound)
from repro.bench import harness
from repro.sim.cluster import Cluster


class TestPriorityPacking:
    def test_bound_roundtrip(self):
        key = _prio(5, 1234)
        assert _prio_bound(key) == 1234

    def test_deeper_paths_more_promising(self):
        assert _prio(10, 5000) < _prio(9, 1)

    def test_equal_depth_lower_bound_wins(self):
        assert _prio(5, 100) < _prio(5, 200)


class TestBounds:
    def test_greedy_is_a_valid_tour_cost(self):
        p = TspParams.tiny()
        dist = distance_matrix(p)
        seq = base.run_sequential("tsp", p)
        # Greedy (2-opt improved) upper bound >= optimum.
        assert greedy_tour_cost(dist) >= seq.result

    def test_lower_bound_admissible_at_root(self):
        p = TspParams.tiny()
        dist = distance_matrix(p)
        seq = base.run_sequential("tsp", p)
        assert lower_bound(dist, [0], 0) <= seq.result

    def test_remaining_slack_restricted_tighter_than_global(self):
        p = TspParams.tiny()
        dist = distance_matrix(p)
        d = [[int(v) for v in row] for row in dist]
        rem = [3, 4, 5]
        restricted = remaining_slack(d, rem)
        global_min = int(min_out_edges(dist)[rem].sum())
        assert restricted >= global_min

    def test_min_out_edges_exclude_self(self):
        dist = distance_matrix(TspParams.tiny())
        mo = min_out_edges(dist)
        assert all(v > 0 for v in mo)  # diagonal (0) excluded


class TestRecursiveSolve:
    def test_exhaustive_finds_optimum_of_small_instance(self):
        p = TspParams(ncities=6, threshold=1)
        dist = distance_matrix(p)
        best, tour, nodes = recursive_solve(dist, [0], 0, 10 ** 9)
        # Brute force check.
        from itertools import permutations
        brute = min(
            sum(int(dist[a, b]) for a, b in
                zip((0,) + perm, perm + (0,)))
            for perm in permutations(range(1, 6)))
        assert best == brute
        assert nodes > 0

    def test_no_improvement_returns_none_tour(self):
        p = TspParams(ncities=6, threshold=1)
        dist = distance_matrix(p)
        best, tour, _ = recursive_solve(dist, [0], 0, 0)  # bound too low
        assert tour is None
        assert best == 0


class TestTourEngine:
    def test_engine_enumerates_solvable_tours(self):
        p = TspParams.tiny()
        engine = TourEngine(p)
        best = greedy_tour_cost(engine.dist)
        tours = 0
        while True:
            tour, _, _ = engine.get_tour(best)
            if tour is None:
                break
            tours += 1
            path, cost = tour
            assert len(path) > p.threshold
            nbest, _, _ = recursive_solve(engine.dist, path, cost, best)
            best = min(best, nbest)
        assert tours > 0
        seq = base.run_sequential("tsp", p)
        assert best == seq.result

    def test_pool_slots_recycled(self):
        p = TspParams.tiny()
        engine = TourEngine(p)
        best = greedy_tour_cost(engine.dist)
        while engine.get_tour(best)[0] is not None:
            pass
        # All slots returned to the free stack when the queue drains.
        assert len(engine.free) == p.pool_slots
        assert engine.pool == {}


class TestCorrectness:
    def test_optimum_found_all_systems(self, check_app):
        check_app("tsp", TspParams.tiny(), nprocs_list=(1, 2, 8))


class TestPaperBehaviour:
    def test_migratory_structures_fault_repeatedly(self):
        """Each get_tour must re-fetch the pool/queue/stack pages that
        other processors dirtied -- several faults per lock episode."""
        par = base.run_parallel("tsp", "tmk", 4, TspParams.tiny())
        grants = par.stats.get("tmk", "lock_grant").messages
        faults = par.stats.get("tmk", "diff_request").messages
        assert grants > 0
        assert faults > grants  # multiple page fetches per episode

    def test_pvm_exchanges_only_tours_and_bounds(self):
        tmk = base.run_parallel("tsp", "tmk", 4, TspParams.tiny())
        pvm = base.run_parallel("tsp", "pvm", 4, TspParams.tiny())
        assert tmk.total_messages() > 3 * pvm.total_messages()
        assert tmk.total_kbytes() > pvm.total_kbytes()


def sweep_solve(dist, path, cost, best):
    """``recursive_solve`` as it was before the table: one sweep over
    every permutation per call, the path's cost folded in."""
    n = dist.shape[0]
    rem = np.array([x for x in range(n) if x not in path], dtype=np.int64)
    k = rem.size
    if k == 0:
        total = cost + int(dist[path[-1], path[0]])
        if total < best:
            return total, list(path), 1
        return best, None, 1
    perms = _permutations(k)
    seqs = rem[perms]
    costs = np.full(perms.shape[0], cost, dtype=np.int64)
    costs += dist[path[-1], seqs[:, 0]]
    for i in range(k - 1):
        costs += dist[seqs[:, i], seqs[:, i + 1]]
    costs += dist[seqs[:, -1], path[0]]
    win = int(np.argmin(costs))
    nodes = perms.shape[0]
    if int(costs[win]) < best:
        return int(costs[win]), list(path) + seqs[win].tolist(), nodes
    return best, None, nodes


class TestCompletionTable:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ncities=st.integers(6, 10),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_table_solve_equals_the_sweep(self, data, ncities, seed):
        """Misses and hits alike give the sweep's (best, tour, nodes),
        whatever the path's cost and the bound."""
        dist = distance_matrix(TspParams(ncities=ncities, seed=seed))
        table = {}
        # Orderings of one visited set share the remaining cities, so the
        # table sees hits (same last city) and near misses (another one).
        length = data.draw(st.integers(max(1, ncities - 7), ncities))
        visited = data.draw(st.permutations(range(1, ncities)))[:length - 1]
        for _ in range(6):
            path = [0] + list(data.draw(st.permutations(visited)))
            cost = data.draw(st.integers(0, 5000))
            best = data.draw(st.integers(0, 20000))
            expected = sweep_solve(dist, path, cost, best)
            assert recursive_solve(dist, path, cost, best, table) == expected
            assert recursive_solve(dist, path, cost, best) == expected

    def test_one_table_per_run_and_matrix(self):
        dist = distance_matrix(TspParams.tiny())
        procs = Cluster(2).procs
        d, table = run_table(procs[0], dist)
        assert d == dist.tolist()
        assert run_table(procs[1], dist.copy())[1] is table
        assert run_table(Cluster(2).procs[0], dist)[1] is not table
        other = distance_matrix(TspParams(ncities=9, seed=1))
        assert run_table(procs[0], other)[1] is not table


class TestOneSolvePerSubproblem:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The sub-problem of every permutation sweep, in order."""
        keys = []
        real = tsp.best_completion

        def counting(dist, first, last, rem):
            keys.append((first, last, rem))
            return real(dist, first, last, rem)

        monkeypatch.setattr(tsp, "best_completion", counting)
        return keys

    @pytest.mark.parametrize("system", ["tmk", "pvm"])
    def test_a_run_sweeps_each_subproblem_once_and_the_next_again(
            self, sweeps, system):
        config = api.RunConfig("fig06", system, 8, "tiny")
        runs = []
        for _ in range(2):
            sweeps.clear()
            api.simulate(config)
            assert sweeps and len(set(sweeps)) == len(sweeps)
            runs.append(sorted(sweeps))
        assert runs[0] == runs[1]
        sweeps.clear()
        params = harness.params_for(harness.EXPERIMENTS["fig06"], "tiny")
        base.run_sequential("tsp", params)  # the oracle sweeps alone
        assert sweeps and len(set(sweeps)) == len(sweeps)


#: sha256 of ``RunResult.to_json_bytes()`` for fig06 at the tiny preset,
#: recorded when every call still swept all permutations itself.
#: Values as recorded, less the retired ``"recovery": null`` member.
FIG06_PINS = {
    ("tmk", 1): "f8b33d289726914eadaa0f74475edd875383466c31c848a3da0e4bd376634d82",
    ("tmk", 3): "816344293b5e7f2f80492468fd61eae58cfdfc81bd427e42a78bdf365bb8ac12",
    ("tmk", 8): "ec5b82136710c8b1410f91141fdff38c1b33c3136c3202c3315c9de5f4796bd0",
    ("pvm", 1): "b9bd21c2861015e97ad044ffa92e277ee74e032a93ce27d49da7a686e77cad3e",
    ("pvm", 3): "2e4b8092da78683d81a3ffe8c77e388b2899473a0ed544d43c5118daedc127bc",
    ("pvm", 8): "46f28ad7c54690d496d08df762645ac7161fd4155d2b01da785c8d41376f280a",
    ("ivy", 1): "f8e65be8544049669ae5eda3fb58f3ba9ff20921f76ff9431acb1d563976fbe8",
    ("ivy", 3): "aa1b8c8d93c81a6a9f160b09abd779bb5d1e4da1400075f6a758487062e6bbba",
    ("ivy", 8): "0535611b46377a9f91fe22b068a66ad19a1ef5679c23da968a86c648bee837b6",
}


@pytest.mark.parametrize("system, nprocs", sorted(FIG06_PINS))
def test_fig06_result_bytes_are_pinned(system, nprocs):
    result = api.run(api.RunConfig("fig06", system, nprocs, "tiny"),
                     use_cache=False)
    assert hashlib.sha256(result.to_json_bytes()).hexdigest() == \
        FIG06_PINS[system, nprocs]
