"""Persistent mapping cache: keying, round trips, invalidation, recovery."""

from __future__ import annotations

import json

import pytest

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.search.cache import (
    SCHEMA,
    CacheStats,
    MappingCache,
    cache_key,
    config_fingerprint,
)
from repro.simulator import CGRASimulator


def _map(kernel: str, cache_dir, size: int = 3, **overrides):
    fields = dict(timeout=60, random_seed=0, cache_dir=str(cache_dir))
    fields.update(overrides)
    return SatMapItMapper(MapperConfig(**fields)).map(
        get_kernel(kernel), CGRA.square(size)
    )


class TestCacheKey:
    def test_key_is_deterministic(self):
        dfg, cgra = get_kernel("srand"), CGRA.square(3)
        config = MapperConfig()
        assert cache_key(dfg, cgra, config) == cache_key(dfg, cgra, config)

    def test_key_changes_with_problem_and_version(self):
        dfg, cgra = get_kernel("srand"), CGRA.square(3)
        config = MapperConfig()
        base = cache_key(dfg, cgra, config)
        assert cache_key(get_kernel("nw"), cgra, config) != base
        assert cache_key(dfg, CGRA.square(4), config) != base
        assert cache_key(dfg, cgra, config, solver_version="other") != base
        assert cache_key(dfg, cgra, config, start_ii=5) != base

    def test_execution_details_do_not_change_the_key(self):
        """Timeout / verbosity / heuristic seeding / seed are not semantic."""
        dfg, cgra = get_kernel("srand"), CGRA.square(3)
        base = cache_key(dfg, cgra, MapperConfig())
        for overrides in (
            dict(timeout=5.0),
            dict(verbose=True),
            dict(seed_heuristic=True, seed_time_budget=0.5),
            dict(cache_dir="/elsewhere"),
            dict(attempt_time_limit=1.0),
            dict(random_seed=1),
        ):
            assert cache_key(dfg, cgra, MapperConfig(**overrides)) == base

    def test_default_fingerprint_is_pinned(self):
        """The default config's cache identity, as a literal: deleting or
        splitting non-semantic config fields must leave every existing
        cache entry valid."""
        assert config_fingerprint(MapperConfig()) == {
            "amo_encoding": "auto",
            "amo_probe_conflicts": 600,
            "backend": "cdcl",
            "enforce_output_register": False,
            "max_extra_slack": 1,
            "max_ii": 50,
            "max_iteration_span": None,
            "neighbour_register_file_access": True,
            "regalloc_retries": 3,
            "run_register_allocation": True,
            "schedule_slack": 0,
            "slack_conflict_limit": 5000,
            "solver_conflict_limit": None,
            "symmetry_breaking": True,
        }

    def test_fingerprint_serialises_enums(self):
        fingerprint = config_fingerprint(MapperConfig())
        json.dumps(fingerprint)  # must be plain data
        assert fingerprint["amo_encoding"] == MapperConfig().amo_encoding.value


class TestCacheRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        first = _map("srand", tmp_path)
        assert first.success and not first.cache_hit
        assert first.cache_stats.misses == 1
        assert first.cache_stats.writes == 1

        second = _map("srand", tmp_path)
        assert second.success and second.cache_hit
        assert second.ii == first.ii
        assert second.cache_stats.hits == 1
        assert second.attempts == []  # no SAT work on a hit
        assert second.mapping.violations() == []
        # A hit reports register allocation like a fresh run would (the
        # post-pass is recomputed from the archived mapping).
        assert second.register_allocation is not None
        assert second.register_allocation.success
        # The recovered mapping replays through the simulator (register
        # assignment included in the archived entry).
        simulation = CGRASimulator(second.mapping, None).run(4)
        assert simulation.success, simulation.errors

    def test_hit_across_seeding(self, tmp_path):
        """Seeding is an execution detail: a seeded run primes an unseeded
        one."""
        first = _map("srand", tmp_path, seed_heuristic=True)
        assert first.success and not first.cache_hit
        second = _map("srand", tmp_path)
        assert second.cache_hit and second.ii == first.ii

    def test_semantic_config_change_misses(self, tmp_path):
        _map("srand", tmp_path)
        other = _map("srand", tmp_path, run_register_allocation=False)
        assert not other.cache_hit

    def test_seed_change_hits(self, tmp_path):
        """The solver ignores the seed: a reseeded run reuses the entry."""
        first = _map("srand", tmp_path)
        second = _map("srand", tmp_path, random_seed=1)
        assert second.cache_hit and second.ii == first.ii

    def test_failed_runs_are_not_cached(self, tmp_path):
        # gsm needs II=7 on a 2x2; an II cap below that fails the run.
        failed = _map("gsm", tmp_path, size=2, max_ii=3)
        assert not failed.success
        assert failed.cache_stats.writes == 0
        assert list(tmp_path.glob("*.json")) == []


class TestLookupAndSolve:
    """``map()`` serves a ``lookup_key()`` hit, else runs ``solve()``."""

    def _mapper(self, tmp_path):
        config = MapperConfig(timeout=60, random_seed=0, cache_dir=str(tmp_path))
        return SatMapItMapper(config), get_kernel("srand"), CGRA.square(3)

    def test_lookup_of_a_warm_key_is_the_map_hit(self, tmp_path):
        mapper, dfg, cgra = self._mapper(tmp_path)
        cold = mapper.map(dfg, cgra)
        cache = MappingCache(tmp_path)
        hit = cache.lookup_key(cold.cache_key)
        warm = mapper.map(dfg, cgra)
        assert warm.cache_hit and warm.attempts == []
        assert warm.register_allocation.success
        assert hit.key == warm.cache_key == cold.cache_key
        assert hit.ii == warm.ii == cold.ii
        assert hit.minimum_ii == warm.minimum_ii
        # The entry's stored dict is the mapping the hit serves, register
        # assignment included: the service answers with it as it stands.
        assert hit.mapping.to_dict() == warm.mapping.to_dict()
        assert hit.entry["mapping"] == warm.mapping.to_dict()
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    def test_lookup_miss_carries_only_its_counters(self, tmp_path):
        mapper, dfg, cgra = self._mapper(tmp_path)
        key = cache_key(dfg, cgra, mapper.config, start_ii=2)
        cache = MappingCache(tmp_path)
        assert cache.lookup_key(key) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.stats.corrupted == cache.stats.invalidated == 0

    def test_solve_never_reads_the_cache(self, tmp_path):
        mapper, dfg, cgra = self._mapper(tmp_path)
        cold = mapper.map(dfg, cgra)
        solved = mapper.solve(dfg, cgra)
        assert solved.success and not solved.cache_hit
        assert solved.ii == cold.ii and solved.attempts
        assert solved.cache_key == cold.cache_key
        stats = solved.cache_stats
        assert (stats.hits, stats.misses, stats.writes) == (0, 0, 1)

    def test_lookup_of_a_key_naming_no_entry_is_a_plain_miss(self, tmp_path):
        mapper, dfg, cgra = self._mapper(tmp_path)
        mapper.map(dfg, cgra)
        entries = sorted(tmp_path.glob("*.json"))
        cache = MappingCache(tmp_path)
        assert cache.lookup_key("0" * 64) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        # A miss deletes nothing and writes nothing.
        assert sorted(tmp_path.glob("*.json")) == entries


class TestInvalidationAndRecovery:
    def test_solver_version_bump_invalidates(self, tmp_path):
        dfg, cgra = get_kernel("srand"), CGRA.square(3)
        config = MapperConfig(timeout=60, random_seed=0)
        old = MappingCache(tmp_path, solver_version="engine-old")
        outcome = SatMapItMapper(
            MapperConfig(timeout=60, random_seed=0)
        ).map(dfg, cgra)
        key = old.key(dfg, cgra, config)
        assert old.store(key, outcome) is not None

        # A new engine version derives a different key: plain miss.
        new = MappingCache(tmp_path, solver_version="engine-new")
        assert new.lookup(dfg, cgra, config) is None
        assert new.stats.misses == 1

    def test_tampered_version_field_is_discarded(self, tmp_path):
        first = _map("srand", tmp_path)
        [entry_path] = tmp_path.glob("*.json")
        entry = json.loads(entry_path.read_text())
        assert entry["schema"] == SCHEMA
        entry["solver_version"] = "something-else"
        entry_path.write_text(json.dumps(entry))

        again = _map("srand", tmp_path)
        assert not again.cache_hit
        assert again.cache_stats.invalidated == 1
        # The bad entry was deleted and replaced by a fresh write.
        assert again.cache_stats.writes == 1

    def test_corrupted_entry_recovers(self, tmp_path):
        _map("srand", tmp_path)
        [entry_path] = tmp_path.glob("*.json")
        entry_path.write_text("{not json at all")

        again = _map("srand", tmp_path)
        assert again.success and not again.cache_hit
        assert again.cache_stats.corrupted == 1
        assert again.cache_stats.writes == 1
        # ... and the rewritten entry serves the next run.
        final = _map("srand", tmp_path)
        assert final.cache_hit

    def test_tampered_mapping_is_rejected(self, tmp_path):
        first = _map("srand", tmp_path)
        [entry_path] = tmp_path.glob("*.json")
        entry = json.loads(entry_path.read_text())
        # Break legality: move every placement onto PE 0 / cycle 0.
        for placement in entry["mapping"]["placements"]:
            placement["pe"] = 0
            placement["cycle"] = 0
        entry_path.write_text(json.dumps(entry))

        again = _map("srand", tmp_path)
        assert again.success and not again.cache_hit
        assert again.cache_stats.corrupted == 1
        assert again.ii == first.ii

    def test_stats_summary_mentions_all_counters(self):
        text = CacheStats(hits=1, misses=2, writes=3, evicted=4).summary()
        assert "1 hit(s)" in text and "2 miss(es)" in text
        assert "4 evicted" in text


class TestSizeBudget:
    """--cache-max-mb: oldest-entry-first pruning."""

    @pytest.fixture()
    def outcome(self):
        return SatMapItMapper(MapperConfig(timeout=60, random_seed=0)).map(
            get_kernel("srand"), CGRA.square(3)
        )

    def _entry_size(self, tmp_path, outcome) -> int:
        probe = MappingCache(tmp_path / "probe")
        return probe.store("f" * 64, outcome).stat().st_size

    def test_oldest_entries_evicted_first(self, tmp_path, outcome):
        import os

        size = self._entry_size(tmp_path, outcome)
        cache = MappingCache(
            tmp_path / "real", max_mb=2.5 * size / (1024 * 1024)
        )
        keys = [f"{i:064x}" for i in range(3)]
        for age, key in enumerate(keys):
            path = cache.store(key, outcome)
            assert path is not None
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        # Three entries against a 2.5-entry budget: the oldest one went.
        assert cache.stats.evicted == 1
        assert not cache.path_for(keys[0]).exists()
        assert cache.path_for(keys[1]).exists()
        assert cache.path_for(keys[2]).exists()

    def test_just_written_entry_is_exempt(self, tmp_path, outcome):
        size = self._entry_size(tmp_path, outcome)
        # Budget below a single entry: the fresh write must survive anyway.
        cache = MappingCache(
            tmp_path / "real", max_mb=0.5 * size / (1024 * 1024)
        )
        first = cache.store("0" * 64, outcome)
        assert first is not None and first.exists()
        assert cache.stats.evicted == 0
        # The next write evicts the previous entry, never itself.
        second = cache.store("1" * 64, outcome)
        assert second.exists()
        assert not first.exists()
        assert cache.stats.evicted == 1

    def test_no_budget_never_evicts(self, tmp_path, outcome):
        cache = MappingCache(tmp_path)
        for i in range(3):
            cache.store(f"{i:064x}", outcome)
        assert cache.stats.evicted == 0
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_budget_flows_through_mapper_config(self, tmp_path):
        outcome = _map("srand", tmp_path, cache_max_mb=0.000001)
        assert outcome.success
        # The sole (oversized) entry is kept — the keep exemption — and the
        # next identical run still hits it.
        assert len(list(tmp_path.glob("*.json"))) == 1
        again = _map("srand", tmp_path, cache_max_mb=0.000001)
        assert again.cache_hit


@pytest.mark.parametrize("kernel", ["srand", "stringsearch", "nw", "basicmath"])
def test_cached_mapping_matches_fresh_run(kernel, tmp_path):
    """The cache returns the same II the solver would recompute."""
    fresh = _map(kernel, tmp_path)
    cached = _map(kernel, tmp_path)
    assert cached.cache_hit
    assert cached.ii == fresh.ii
    assert cached.mapping.violations() == []


class TestStaleTempSweep:
    """Crash-orphaned atomic-write temps must not accumulate forever."""

    @pytest.fixture()
    def outcome(self):
        return SatMapItMapper(MapperConfig(timeout=60, random_seed=0)).map(
            get_kernel("srand"), CGRA.square(3)
        )

    @staticmethod
    def _orphan(tmp_path, name="orphan.tmp", age=3600.0):
        import os
        import time

        path = tmp_path / name
        path.write_text("{partial")
        old = time.time() - age
        os.utime(path, (old, old))
        return path

    def test_stale_temp_swept_on_store(self, tmp_path, outcome):
        stale = self._orphan(tmp_path)
        cache = MappingCache(tmp_path)
        cache.store("a" * 64, outcome)
        assert not stale.exists()
        assert cache.stats.temp_files_swept == 1

    def test_fresh_temp_is_never_raced(self, tmp_path, outcome):
        # A young temp may belong to a live writer in another process.
        fresh = self._orphan(tmp_path, age=1.0)
        cache = MappingCache(tmp_path)
        cache.store("a" * 64, outcome)
        assert fresh.exists()
        assert cache.stats.temp_files_swept == 0

    def test_direct_sweep_returns_count(self, tmp_path):
        self._orphan(tmp_path, "one.tmp")
        self._orphan(tmp_path, "two.tmp")
        cache = MappingCache(tmp_path)
        assert cache.sweep_stale_temps() == 2
        assert cache.sweep_stale_temps() == 0

    def test_sweep_counter_in_summary(self, tmp_path):
        self._orphan(tmp_path)
        cache = MappingCache(tmp_path)
        cache.sweep_stale_temps()
        assert "1 stale temp(s) swept" in cache.stats.summary()

    def test_temp_bytes_count_toward_budget(self, tmp_path, outcome):
        # A fresh (unsweepable) temp occupies budget, so entries are
        # evicted sooner rather than letting temps hide disk usage.
        probe = MappingCache(tmp_path / "probe")
        entry_size = probe.store("f" * 64, outcome).stat().st_size
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        big = cache_dir / "live.tmp"
        big.write_bytes(b"x" * (2 * entry_size))
        cache = MappingCache(cache_dir, max_mb=3 * entry_size / 1e6)
        import time

        cache.store("0" * 64, outcome)
        time.sleep(0.02)
        cache.store("1" * 64, outcome)
        # entry + entry + 2*entry temp > 3*entry budget: oldest evicted.
        assert cache.stats.evicted >= 1
        assert big.exists()  # budget never deletes fresh temps

    def test_serialization_error_leaves_no_temp(self, tmp_path, outcome, monkeypatch):
        # The entry is serialized before the temp file exists, so a
        # non-OSError there propagates without orphaning a *.tmp.
        import repro.search.cache as cache_module

        def unserializable(*_args, **_kwargs):
            raise TypeError("Object of type set is not JSON serializable")

        monkeypatch.setattr(cache_module.json, "dumps", unserializable)
        cache = MappingCache(tmp_path)
        with pytest.raises(TypeError, match="not JSON serializable"):
            cache.store("a" * 64, outcome)
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("*.json")) == []
        assert cache.stats.writes == 0

    def test_directory_stats_shape(self, tmp_path, outcome):
        cache = MappingCache(tmp_path)
        cache.store("a" * 64, outcome)
        self._orphan(tmp_path, age=1.0)
        stats = cache.directory_stats()
        assert stats["entries"] == 1
        assert stats["entry_bytes"] > 0
        assert stats["oldest_entry_age_s"] >= 0
        assert stats["temp_files"] == 1
        assert stats["temp_bytes"] > 0
        assert stats["max_bytes"] is None


class TestNamespaces:
    """Tenant namespaces select subdirectories and never escape the root."""

    def test_no_namespace_is_the_root(self, tmp_path):
        from repro.search.cache import resolve_cache_dir

        assert resolve_cache_dir(tmp_path) == tmp_path

    def test_namespace_selects_subdirectory(self, tmp_path):
        from repro.search.cache import resolve_cache_dir

        assert resolve_cache_dir(tmp_path, "team-a") == tmp_path / "team-a"

    def test_illegal_namespaces_rejected(self, tmp_path):
        from repro.search.cache import resolve_cache_dir

        for namespace in ("../up", "a/b", ".hidden", "", "x" * 80, "a b"):
            with pytest.raises(ValueError, match="illegal cache namespace"):
                resolve_cache_dir(tmp_path, namespace)

    def test_namespaced_runs_are_isolated(self, tmp_path):
        a = _map("srand", tmp_path, cache_namespace="team-a")
        b = _map("srand", tmp_path, cache_namespace="team-b")
        assert a.success and b.success
        assert not b.cache_hit  # team-b cannot see team-a's entry
        assert list((tmp_path / "team-a").glob("*.json"))
        assert list((tmp_path / "team-b").glob("*.json"))
        again = _map("srand", tmp_path, cache_namespace="team-a")
        assert again.cache_hit


class TestDurability:
    """The farm's resume path treats served cache entries as settled work,
    so a store must survive power loss: fsync the temp file before the
    rename, then fsync the directory that the rename mutated."""

    def test_store_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        import os
        import stat as stat_module

        synced_modes = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced_modes.append(stat_module.S_IFMT(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        result = _map("srand", tmp_path)
        assert result.success and result.cache_stats.writes == 1
        assert stat_module.S_IFREG in synced_modes  # the temp entry file
        assert stat_module.S_IFDIR in synced_modes  # the cache directory

    def test_concurrent_readers_of_a_corrupted_entry(self, tmp_path):
        import threading

        _map("srand", tmp_path)
        [entry_path] = tmp_path.glob("*.json")
        key = entry_path.stem
        entry_path.write_text('{"schema": "satmapit-mapcache/1", "trunc')

        # Each reader holds its own handle, like farm workers do.  All of
        # them must shrug the bad entry off as a miss — no exception, no
        # served garbage — and at least one must count the corruption.
        caches = [MappingCache(tmp_path) for _ in range(8)]
        results: list = []
        errors: list = []
        barrier = threading.Barrier(len(caches))

        def read(cache):
            barrier.wait()
            try:
                results.append(cache.lookup_key(key))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(cache,)) for cache in caches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert results == [None] * len(caches)
        assert not entry_path.exists()  # the bad entry was reaped
        assert sum(cache.stats.corrupted for cache in caches) >= 1
        assert sum(cache.stats.misses for cache in caches) == len(caches)
