"""Tests for Barnes-Hut (hierarchical N-body)."""

import hashlib

import numpy as np
import pytest

from repro import api
from repro.apps import barnes_hut, base
from repro.apps.barnes_hut import (BhParams, OctTree, compute_forces,
                                   contiguous_runs, costzone_partition,
                                   initial_state, shared_walk)
from repro.bench import harness
from repro.sim.cluster import Cluster


@pytest.fixture
def state():
    return initial_state(BhParams.tiny())


class TestTree:
    def test_dfs_order_is_a_permutation(self, state):
        pos, _, mass = state
        tree = OctTree(pos, mass)
        assert sorted(tree.dfs_order.tolist()) == list(range(pos.shape[0]))

    def test_root_mass_is_total(self, state):
        pos, _, mass = state
        tree = OctTree(pos, mass)
        assert tree.mass[0] == pytest.approx(mass.sum())

    def test_root_com_is_weighted_mean(self, state):
        pos, _, mass = state
        tree = OctTree(pos, mass)
        com = (pos * mass[:, None]).sum(axis=0) / mass.sum()
        assert np.allclose(tree.com[0], com)

    def test_shared_walk_is_one_per_run(self, state):
        """Processors of one run share a walk of the same bodies; another
        run, or other bodies, walk anew."""
        pos, _, mass = state
        procs = Cluster(2).procs
        tree, acc, counts = shared_walk(procs[0], pos, mass)
        again = shared_walk(procs[1], pos.copy(), mass.copy())
        assert all(a is b for a, b in zip(again, (tree, acc, counts)))
        assert shared_walk(Cluster(2).procs[0], pos, mass)[0] is not tree
        moved = pos.copy()
        moved[0, 0] += 1e-12
        assert shared_walk(procs[0], moved, mass)[0] is not tree


class TestForces:
    def test_partitioned_forces_match_full(self, state):
        pos, _, mass = state
        tree = OctTree(pos, mass)
        n = pos.shape[0]
        full, full_counts = compute_forces(tree, pos, mass, np.arange(n))
        for nparts in (3, 8):  # uneven costzones
            total = 0
            for pid in range(nparts):
                mine = costzone_partition(tree, pid, nparts)
                piece, counts = compute_forces(tree, pos, mass, mine)
                assert piece.tobytes() == full[mine].tobytes()
                assert counts.tolist() == full_counts[mine].tolist()
                total += int(counts.sum())
            assert total == int(full_counts.sum())

    def test_interaction_count_positive(self, state):
        pos, _, mass = state
        tree = OctTree(pos, mass)
        _, counts = compute_forces(tree, pos, mass, np.arange(8))
        assert (counts > 0).all()

    def test_opening_criterion_reduces_work(self):
        """Barnes-Hut does fewer interactions than O(n^2), and the work
        grows sub-quadratically with the body count (theta = 0.5)."""
        counts = {}
        for n in (512, 1024):
            pos, _, mass = initial_state(BhParams(nbodies=n, steps=1))
            tree = OctTree(pos, mass)
            counts[n] = int(compute_forces(tree, pos, mass,
                                           np.arange(n))[1].sum())
        assert counts[1024] < 0.7 * 1024 * 1023
        # Doubling n must grow work by clearly less than the 4x of n^2.
        assert counts[1024] / counts[512] < 3.5


class TestCostzones:
    def test_partitions_disjoint_and_complete(self, state):
        pos, _, mass = state
        tree = OctTree(pos, mass)
        seen = []
        for pid in range(5):
            seen.extend(costzone_partition(tree, pid, 5).tolist())
        assert sorted(seen) == list(range(pos.shape[0]))

    def test_ownership_scattered_in_memory(self, state):
        """The paper's point: tree-adjacent bodies are not memory-adjacent,
        so a processor's bodies land on many pages."""
        pos, _, mass = state
        tree = OctTree(pos, mass)
        mine = costzone_partition(tree, 0, 4)
        runs = contiguous_runs(mine)
        assert len(runs) > 1  # not a single contiguous block

    def test_contiguous_runs_reconstruct(self):
        idx = np.array([1, 2, 3, 7, 10, 11])
        runs = contiguous_runs(idx)
        rebuilt = [i for lo, hi in runs for i in range(lo, hi)]
        assert rebuilt == idx.tolist()
        assert contiguous_runs(np.array([], dtype=np.int64)) == []


class TestCorrectness:
    def test_positions_match_sequential(self, check_app):
        check_app("barnes_hut", BhParams.tiny(), nprocs_list=(1, 2, 8))


class TestPaperBehaviour:
    def test_pvm_all_to_all_broadcast(self):
        p = BhParams.tiny()
        n = 4
        par = base.run_parallel("barnes_hut", "pvm", n, p)
        assert par.total_messages() == n * (n - 1) * p.steps

    def test_tmk_multi_writer_faults(self):
        """Scattered ownership puts several writers on each body page, so
        faults request diffs from more than one processor."""
        par = base.run_parallel("barnes_hut", "tmk", 4, BhParams.tiny())
        requests = par.stats.get("tmk", "diff_request").messages
        responses = par.stats.get("tmk", "diff_response").messages
        assert requests > 0 and responses >= requests

    def test_tmk_more_messages_than_pvm(self):
        p = BhParams.tiny()
        tmk = base.run_parallel("barnes_hut", "tmk", 4, p)
        pvm = base.run_parallel("barnes_hut", "pvm", 4, p)
        assert tmk.total_messages() > pvm.total_messages()


class TestOneWalkPerStep:
    @pytest.fixture
    def walks(self, monkeypatch):
        """The number of bodies of every tree walk, in order."""
        sizes = []
        real = barnes_hut.compute_forces

        def counting(tree, pos, mass, targets):
            sizes.append(targets.size)
            return real(tree, pos, mass, targets)

        monkeypatch.setattr(barnes_hut, "compute_forces", counting)
        return sizes

    @pytest.mark.parametrize("system", ["tmk", "pvm"])
    def test_a_run_walks_once_per_step_and_the_next_walks_again(
            self, walks, system):
        params = harness.params_for(harness.EXPERIMENTS["fig10"], "tiny")
        config = api.RunConfig("fig10", system, 8, "tiny")
        for _ in range(2):
            walks.clear()
            api.simulate(config)
            assert walks == [params.nbodies] * params.steps
        walks.clear()
        base.run_sequential("barnes_hut", params)  # the oracle walks alone
        assert walks == [params.nbodies] * params.steps


#: sha256 of ``RunResult.to_json_bytes()`` for fig10 at the tiny preset,
#: recorded when every processor still walked the tree for its own
#: costzone; and of the collected positions, which every run shares.
#: Values as recorded, less the retired ``"recovery": null`` member.
FIG10_PINS = {
    ("tmk", 1): "ec6823f2cf0cf0e52f4b16ea95e1913e456d8c30b5925c88063fd57c979dd69a",
    ("tmk", 3): "b1fafb4f3f3f3ef0116d5d77229ebc2ae19664152f1105b3d0528965778c6862",
    ("tmk", 8): "e6180ae0eb1388a2f8dced051d51092ead590f27d78e608fc0da5c52c0b0382d",
    ("pvm", 1): "4292a0fc51add9069dbc1b748ab569bbbcfe7fcc3465bdec0b78e0afeee8ebca",
    ("pvm", 3): "28ee5e789d72d7e5613ea1342d7a8e2051aecdff820a57006edfc1de1dc59929",
    ("pvm", 8): "31f8813713c0a3a3d9ab8f3f0ae8baae70a5e9db37e74d04bc508753a7a0036a",
    ("ivy", 1): "5f15070bf7997f8dbf07cffd5954c1d7fd14f01254c754be2e527b0e442d0a9c",
    ("ivy", 3): "958994dbea25691941759c39b63350c84b76ea5d0cb5b837f0c36488a60580e1",
    ("ivy", 8): "b024523d23848ded33b683ba8690b79195bd0ba1b84955b22c36bdc43f794f0f",
}
FIG10_POSITIONS = \
    "10ae854ff870d329d60ac8df6ebc3e40103fbc38895ec626c6938967d4e14235"


@pytest.mark.parametrize("system, nprocs", sorted(FIG10_PINS))
def test_fig10_result_bytes_are_pinned(system, nprocs):
    result = api.run(api.RunConfig("fig10", system, nprocs, "tiny"),
                     use_cache=False)
    assert hashlib.sha256(result.to_json_bytes()).hexdigest() == \
        FIG10_PINS[system, nprocs]
    assert hashlib.sha256(result.parallel.result.tobytes()).hexdigest() == \
        FIG10_POSITIONS
