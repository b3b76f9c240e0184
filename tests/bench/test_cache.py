"""Tests for the persistent result cache and its key derivation."""

import dataclasses
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro import api
from repro.apps.ep import EpParams
from repro.bench import cache as cache_mod
from repro.bench import harness
from repro.bench.cache import (ResultCache, cache_key_from_material,
                               canonical_json, default_cache_dir,
                               source_fingerprint)
from repro.sim.costmodel import CostModel
from repro.sim.faults import FaultPlan


@pytest.fixture
def tiny_ep(monkeypatch):
    exp = harness.EXPERIMENTS["fig01"]
    tiny = harness.Experiment(exp.exp_id, exp.label, exp.app, exp.figure,
                              EpParams.tiny(), EpParams.tiny(), exp.size_note,
                              tiny_params=EpParams.tiny())
    harness.clear_cache()
    monkeypatch.setitem(harness.EXPERIMENTS, "fig01", tiny)
    yield
    harness.clear_cache()


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == \
            canonical_json({"a": [1, 2], "b": 1})

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})

    def test_material_hash_stable(self):
        m = {"x": 1, "y": [2.5, "z"]}
        assert cache_key_from_material(m) == cache_key_from_material(dict(m))
        assert cache_key_from_material(m) != cache_key_from_material({"x": 2})


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, {"v": 1})
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None

    def test_schema_or_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, {"v": 1})
        entry = json.loads(cache._path(key).read_text())
        entry["cache_schema"] = 999
        cache._path(key).write_text(json.dumps(entry))
        assert cache.get(key) is None
        # An entry stored under the wrong key (e.g. a renamed file) too.
        other = "ee" + "0" * 62
        cache._path(other).parent.mkdir(parents=True, exist_ok=True)
        cache.put(key, {"v": 1})
        cache._path(key).rename(cache._path(other))
        assert cache.get(other) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02d}" + "0" * 62, {"i": i})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, {})
        cache.put("bb" + "0" * 62, {})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestSourceFingerprint:
    def test_stable_within_process(self):
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 64


class TestCacheKeyInvalidation:
    """Every input that can change a result must change the key."""

    BASE = dict(experiment="fig01", system="tmk", nprocs=4, preset="tiny")

    def test_identical_config_same_key(self):
        assert api.cache_key(api.RunConfig(**self.BASE)) == \
            api.cache_key(api.RunConfig(**self.BASE))

    def test_cost_constant_invalidates(self):
        base = api.cache_key(api.RunConfig(**self.BASE))
        tweaked = CostModel(udp_send_cpu=CostModel().udp_send_cpu * 2)
        assert api.cache_key(api.RunConfig(cost=tweaked, **self.BASE)) != base
        # The default cost model keys identically to an explicit default.
        assert api.cache_key(
            api.RunConfig(cost=CostModel.paper_testbed(), **self.BASE)) == base

    def test_fault_plan_invalidates(self):
        base = api.cache_key(api.RunConfig(**self.BASE))
        lossy = api.cache_key(
            api.RunConfig(faults=FaultPlan(seed=1, loss=0.05), **self.BASE))
        assert lossy != base
        reseeded = api.cache_key(
            api.RunConfig(faults=FaultPlan(seed=2, loss=0.05), **self.BASE))
        assert reseeded not in (base, lossy)

    def test_preset_and_shape_invalidate(self):
        keys = {
            api.cache_key(api.RunConfig(experiment="fig01", system=system,
                                        nprocs=nprocs, preset=preset))
            for system in ("tmk", "pvm")
            for nprocs in (2, 4)
            for preset in ("tiny", "bench")
        }
        assert len(keys) == 8

    def test_replication_config_invalidates(self):
        from repro.scabd import ReplicationConfig
        base = api.cache_key(api.RunConfig(**self.BASE))
        mask3 = api.cache_key(api.RunConfig(
            replication=ReplicationConfig(replicas=3), **self.BASE))
        mask5 = api.cache_key(api.RunConfig(
            replication=ReplicationConfig(replicas=5), **self.BASE))
        assert len({base, mask3, mask5}) == 3

    def test_masked_and_unmasked_crash_keys_never_collide(self):
        """The same crash masked (a result) and unmasked (a
        ``NodeFailure``) are two configs: one cache key each."""
        from repro.scabd import ReplicationConfig
        plan = FaultPlan(seed=0, crash_at=((3, 0.01),))
        mask = api.cache_key(api.RunConfig(
            faults=plan, replication=ReplicationConfig(replicas=3),
            **self.BASE))
        unmasked = api.cache_key(api.RunConfig(faults=plan, **self.BASE))
        assert mask != unmasked

    def test_experiment_params_invalidate(self, monkeypatch):
        """Same (experiment, preset) labels, different parameters -> a
        different key (tests swap tiny parameterizations in under the
        same id; their results must never collide with the real ones)."""
        base = api.cache_key(api.RunConfig(**self.BASE))
        exp = harness.EXPERIMENTS["fig01"]
        swapped = harness.Experiment(
            exp.exp_id, exp.label, exp.app, exp.figure, exp.bench_params,
            exp.paper_params, exp.size_note,
            tiny_params=EpParams(log2_pairs=9))
        monkeypatch.setitem(harness.EXPERIMENTS, "fig01", swapped)
        assert api.cache_key(api.RunConfig(**self.BASE)) != base

    def test_source_fingerprint_invalidates(self, monkeypatch):
        base = api.cache_key(api.RunConfig(**self.BASE))
        monkeypatch.setattr(api, "source_fingerprint",
                            lambda: "f" * 64)
        assert api.cache_key(api.RunConfig(**self.BASE)) != base

    def test_stale_entry_recomputed_not_served(self, tiny_ep, tmp_path,
                                               monkeypatch):
        """A cached record whose payload fails to parse as a RunResult is
        recomputed, not returned."""
        cache = ResultCache(tmp_path)
        cfg = api.RunConfig(experiment="fig01", nprocs=2)
        cold = api.run(cfg, cache=cache)
        key = api.cache_key(cfg)
        cache.put(key, {"schema_version": cold.schema_version})  # truncated
        again = api.run(cfg, cache=cache)
        assert not again.cached
        assert again.to_json_bytes() == cold.to_json_bytes()


class TestCacheVersioning:
    def test_entry_format(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "01" + "0" * 62
        cache.put(key, {"v": 1})
        entry = json.loads(cache._path(key).read_text())
        assert entry["cache_schema"] == cache_mod.CACHE_SCHEMA_VERSION
        assert entry["key"] == key
        assert entry["payload"] == {"v": 1}
        assert len(entry["payload_sha256"]) == 64


class TestQuarantine:
    """Corrupt entries are moved aside, never re-parsed forever."""

    def test_unparseable_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"v": 1})
        cache._path(key).write_text("{torn wr")  # simulated torn write
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not cache._path(key).exists()  # moved, not left in place
        quarantine = tmp_path / cache_mod.QUARANTINE_DIR
        assert len(list(quarantine.iterdir())) == 1
        # The next lookup is a clean miss (no re-quarantine, no entry).
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, {"v": 1})
        entry = json.loads(cache._path(key).read_text())
        entry["payload"] = {"v": 2}  # payload no longer matches checksum
        cache._path(key).write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_mismatched_schema_is_not_quarantined(self, tmp_path):
        # Format evolution is not corruption: the entry reads as a miss
        # and stays in place for the next put to overwrite.
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, {"v": 1})
        entry = json.loads(cache._path(key).read_text())
        entry["cache_schema"] = 999
        cache._path(key).write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.quarantined == 0
        assert cache._path(key).exists()

    def test_quarantined_entries_do_not_count_as_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = "aa" + "0" * 62
        bad = "bb" + "0" * 62
        cache.put(good, {"v": 1})
        cache.put(bad, {"v": 2})
        cache._path(bad).write_text("garbage")
        assert cache.get(bad) is None
        assert len(cache) == 1  # the quarantine dir is outside the glob
        assert cache.clear() == 1

    def test_validate_scans_and_reports(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(f"{i:02x}" + "0" * 62, {"i": i})
        cache._path("02" + "0" * 62).write_text("{broken")
        state = cache.validate()
        assert state == {"entries": 3, "corrupt": 1, "quarantined": 1}
        # A second scan is clean: the corrupt entry is already gone.
        assert cache.validate() == {"entries": 3, "corrupt": 0,
                                    "quarantined": 1}


def _hammer_worker(cache_dir, key, worker_id, iterations):
    """Stress worker: concurrent put/get on one key + injected torn
    writes.  Module-level so the spawn start method can pickle it.

    Returns the number of *corrupt hits* observed -- payloads that were
    not the complete document some writer stored.  The hardened cache
    must make this zero: a reader sees a full entry or a miss, never a
    fragment.
    """
    from repro.bench.cache import ResultCache
    cache = ResultCache(cache_dir)
    rng = random.Random(worker_id)
    corrupt_hits = 0
    for seq in range(iterations):
        cache.put(key, {"worker": worker_id, "seq": seq,
                        "blob": "x" * 2048})
        if rng.random() < 0.25:
            # Simulated torn write / bit rot: clobber the entry in
            # place with a truncated document (bypassing the atomic
            # tmp+rename path, as a crashed writer or bad disk would).
            try:
                with open(cache._path(key), "w") as fh:
                    fh.write('{"cache_schema": 1, "key": "%s", "pay'
                             % key)
            except OSError:
                pass
        payload = cache.get(key)
        if payload is not None:
            if (set(payload) != {"worker", "seq", "blob"}
                    or payload["blob"] != "x" * 2048):
                corrupt_hits += 1
    return corrupt_hits


class TestConcurrentWriters:
    """Satellite: N processes hammering one key never corrupt a hit."""

    def test_concurrent_writers_with_torn_writes(self, tmp_path):
        key = "77" + "0" * 62
        workers = 4
        iterations = 25
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(_hammer_worker, str(tmp_path), key,
                                   i, iterations)
                       for i in range(workers)]
            corrupt_hits = [f.result() for f in futures]
        # Invariant 1: nobody ever read a fragment of an entry.
        assert corrupt_hits == [0] * workers
        # Invariant 2: no temp files leak, even under the storm.
        assert not list(tmp_path.rglob("*.tmp"))
        # Invariant 3: whatever survived on disk is either a complete,
        # checksummed entry or ends up quarantined -- a full scan finds
        # at most the one final torn write, and a rescan is clean.
        cache = ResultCache(tmp_path)
        first = cache.validate()
        assert first["entries"] + first["corrupt"] <= 1
        rescan = cache.validate()
        assert rescan["corrupt"] == 0
        final = cache.get(key)
        if final is not None:
            assert set(final) == {"worker", "seq", "blob"}


def _forbid(what):
    def raiser(*args, **kwargs):
        raise AssertionError(f"{what} on a path that must not need it")
    return raiser


class TestFingerprintMemo:
    """The fingerprint names the code this process runs: one hash, on
    first use, kept for the life of the process."""

    def test_memo_hits_on_unchanged_tree(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", None)
        first = source_fingerprint()
        assert cache_mod._FINGERPRINT == first
        # The second call does no I/O at all: not a walk, not a stat.
        monkeypatch.setattr(cache_mod, "_source_files",
                            _forbid("source tree walked"))
        assert source_fingerprint() == first

    def test_no_memo_when_tree_changes_mid_hash(self, monkeypatch):
        # An edit landing while the files are being read yields a digest
        # of mixed old/new content, which names no tree: it is returned
        # to that one caller but not kept, and the next call hashes again.
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", None)
        real_stamp = cache_mod._source_stamp
        stamps = iter([real_stamp() + (("edited.py", 0, 0),), real_stamp()])
        monkeypatch.setattr(cache_mod, "_source_stamp", lambda: next(stamps))
        torn = source_fingerprint()
        assert cache_mod._FINGERPRINT is None
        monkeypatch.setattr(cache_mod, "_source_stamp", real_stamp)
        assert source_fingerprint() == torn  # nothing was really edited
        assert cache_mod._FINGERPRINT == torn

    def test_pre_edit_code_is_never_filed_under_a_post_edit_key(
            self, tmp_path):
        """A live process keeps executing the modules it imported, so an
        on-disk edit must not move its fingerprint or its keys (it would
        file pre-edit results where a restarted server finds them as
        current); the next process over the edited tree sees the edit."""
        package = pathlib.Path(cache_mod.__file__).resolve().parents[1]
        shutil.copytree(package, tmp_path / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        script = (
            "import sys\n"
            "from repro import api\n"
            "cfg = api.RunConfig('fig01', 'tmk', 2, 'tiny')\n"
            "print(api.source_fingerprint(), api.cache_key(cfg))\n"
            "for path in sys.argv[1:]:\n"
            "    with open(path, 'a') as fh:\n"
            "        fh.write('# edited\\n')\n"
            "print(api.source_fingerprint(), api.cache_key(cfg))\n")

        def fresh_process(*edit):
            out = subprocess.run(
                [sys.executable, "-c", script, *edit], check=True,
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")))
            first, second = (line.split() for line in out.stdout.splitlines())
            return first, second

        before, after = fresh_process(
            str(tmp_path / "src" / "repro" / "sim" / "costmodel.py"))
        assert after == before
        restarted, again = fresh_process()
        assert restarted == again
        assert restarted[0] != before[0] and restarted[1] != before[1]


class TestHitPathDerivesNothingTwice:
    """A repeated config costs a dict probe: no source walk, no cost
    model, no JSON encoding of the key material."""

    BASE = TestCacheKeyInvalidation.BASE

    @pytest.fixture(autouse=True)
    def _empty_key_memo(self):
        api._key_for.cache_clear()
        yield
        api._key_for.cache_clear()

    def test_lookup_hits_walk_nothing_and_build_no_cost_model(
            self, tiny_ep, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cold = api.run(api.RunConfig(experiment="fig01", nprocs=2),
                       cache=cache)
        assert api.lookup(api.RunConfig(experiment="fig01", nprocs=2),
                          cache)[1] == cold
        monkeypatch.setattr(cache_mod, "_source_files",
                            _forbid("source tree walked"))
        monkeypatch.setattr(CostModel, "paper_testbed",
                            _forbid("cost model rebuilt"))
        for _ in range(100):
            key, hit = api.lookup(
                api.RunConfig(experiment="fig01", nprocs=2), cache)
            assert key == cold.cache_key and hit == cold and hit.cached
        assert cache.hits == 101

    def test_memoised_key_still_follows_every_input(self, monkeypatch):
        cfg = api.RunConfig(**self.BASE)
        base = api.cache_key(cfg)
        assert api.cache_key(cfg) == base
        assert api._key_for.cache_info().hits == 1
        # An explicit default cost model is another config, same key.
        assert api.cache_key(api.RunConfig(
            cost=CostModel.paper_testbed(), **self.BASE)) == base
        # Parameters swapped in under the same experiment id.
        exp = harness.EXPERIMENTS["fig01"]
        with monkeypatch.context() as swap:
            swap.setitem(harness.EXPERIMENTS, "fig01", dataclasses.replace(
                exp, tiny_params=EpParams(log2_pairs=9)))
            swapped = api.cache_key(cfg)
        assert swapped != base
        # The fingerprint is read through the module global on each call.
        with monkeypatch.context() as edit:
            edit.setattr(api, "source_fingerprint", lambda: "f" * 64)
            assert api.cache_key(cfg) not in (base, swapped)
        assert api.cache_key(cfg) == base

    def test_equal_configs_are_one_run_and_share_a_key(self):
        """``0 == 0.0`` and the simulator cannot tell them apart, but
        they encode differently: apart, each has its own key; together,
        the second gets the key of the first."""
        as_int = api.RunConfig(faults=FaultPlan(seed=1, loss=0), **self.BASE)
        as_float = api.RunConfig(faults=FaultPlan(seed=1, loss=0.0),
                                 **self.BASE)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        int_key = api.cache_key(as_int)
        assert api.cache_key(as_float) == int_key
        api._key_for.cache_clear()
        float_key = api.cache_key(as_float)
        assert float_key != int_key
        assert api.cache_key(as_int) == float_key
