"""Persistent artifact cache: keys, invalidation, round-trips."""

import dataclasses
import zlib

import pytest

from repro.cc import get_target
from repro.experiments import Lab
from repro.experiments.runner import ExperimentError
from repro.labcache import (ArtifactCache, default_cache_root,
                            params_fingerprint, source_fingerprint,
                            target_fingerprint)
from repro.machine.pipeline import PipelineParams


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


SOURCE_A = "int main() { puti(1); return 0; }"
SOURCE_B = "int main() { puti(2); return 0; }"


def exe_material(source, target):
    return {"source": source_fingerprint(source),
            "target": target_fingerprint(get_target(target))}


class TestKeys:
    def test_key_is_stable(self, cache):
        assert cache.make_key("exe", exe_material(SOURCE_A, "d16")) == \
            cache.make_key("exe", exe_material(SOURCE_A, "d16"))

    def test_source_mutation_changes_key(self, cache):
        assert cache.make_key("exe", exe_material(SOURCE_A, "d16")) != \
            cache.make_key("exe", exe_material(SOURCE_B, "d16"))

    def test_target_changes_key(self, cache):
        assert cache.make_key("exe", exe_material(SOURCE_A, "d16")) != \
            cache.make_key("exe", exe_material(SOURCE_A, "dlxe"))

    @pytest.mark.parametrize("knob, value", [
        ("num_gregs", 8), ("num_fregs", 8),
        ("three_address", False), ("wide_immediates", False)])
    def test_every_targetspec_knob_changes_key(self, cache, knob, value):
        """Mutating any codegen restriction must produce a new key."""
        base = get_target("dlxe")
        assert getattr(base, knob) != value
        mutated = dataclasses.replace(base, **{knob: value})
        k1 = cache.make_key("exe", {"target": target_fingerprint(base)})
        k2 = cache.make_key("exe", {"target": target_fingerprint(mutated)})
        assert k1 != k2

    def test_pipeline_params_change_key(self, cache):
        p1 = params_fingerprint(PipelineParams())
        p2 = params_fingerprint(PipelineParams(load_delay=2))
        assert cache.make_key("run", {"params": p1}) != \
            cache.make_key("run", {"params": p2})

    def test_kind_namespaces_keys(self, cache):
        material = exe_material(SOURCE_A, "d16")
        assert cache.make_key("run", material) != \
            cache.make_key("trace", material)

    def test_toolchain_version_changes_key(self, cache, monkeypatch):
        key_before = cache.make_key("exe", {})
        monkeypatch.setattr("repro.labcache.toolchain_fingerprint",
                            lambda: "repro-99.0.0")
        assert cache.make_key("exe", {}) != key_before


class TestStore:
    def test_roundtrip(self, cache):
        key = cache.make_key("run", {"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"stats": [1, 2, 3]})
        assert cache.get(key) == {"stats": [1, 2, 3]}

    def test_stale_entry_never_served(self, cache):
        """An artifact stored for source A is invisible to source B."""
        key_a = cache.make_key("exe", exe_material(SOURCE_A, "d16"))
        cache.put(key_a, "artifact-for-A")
        key_b = cache.make_key("exe", exe_material(SOURCE_B, "d16"))
        assert cache.get(key_b) is None

    def test_corrupt_entry_is_a_miss_and_deleted(self, cache):
        key = cache.make_key("exe", {})
        cache.put(key, "payload")
        path = cache._path(key)
        path.write_bytes(b"not zlib data")
        assert cache.get(key) is None
        assert not path.exists()

    def test_unpicklable_garbage_is_a_miss(self, cache):
        key = cache.make_key("exe", {})
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        body = zlib.compress(b"\x80\x05garbage")
        digest = __import__("hashlib").sha256(body).digest()
        cache._path(key).write_bytes(digest + body)
        assert cache.get(key) is None

    def test_single_flipped_bit_caught_by_digest(self, cache):
        """Corruption is detected before unpickling, via the digest."""
        key = cache.make_key("exe", {})
        cache.put(key, {"payload": list(range(100))})
        path = cache._path(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01               # one bit, deep in the body
        path.write_bytes(bytes(blob))
        assert cache.get(key) is None
        assert not path.exists()       # evicted, ready to rebuild

    def test_truncated_entry_is_a_miss_and_deleted(self, cache):
        key = cache.make_key("exe", {})
        cache.put(key, "payload")
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:10])   # shorter than digest
        assert cache.get(key) is None
        assert not path.exists()

    def test_eviction_is_logged(self, cache, caplog):
        import logging

        key = cache.make_key("exe", {})
        cache.put(key, "payload")
        cache._path(key).write_bytes(b"junk" * 20)
        with caplog.at_level(logging.WARNING, logger="repro.labcache"):
            assert cache.get(key) is None
        assert any("evicting corrupt cache entry" in rec.message
                   for rec in caplog.records)

    def test_disabled_cache_stores_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path, enabled=False)
        key = cache.make_key("exe", {})
        cache.put(key, "payload")
        assert cache.get(key) is None
        assert not list(tmp_path.rglob("*.bin"))

    def test_stats_and_clear(self, cache):
        for i in range(3):
            cache.put(cache.make_key("exe", {"i": i}), i)
        stats = cache.stats()
        assert stats.entries == 3 and stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_hit_miss_counters(self, cache):
        key = cache.make_key("exe", {})
        cache.get(key)
        cache.put(key, 1)
        cache.get(key)
        assert (cache.hits, cache.misses) == (1, 1)


class TestEvictionRace:
    """Tombstone-then-unlink eviction and reader retry-on-miss.

    The race under test: process A reads entry bytes, finds them
    corrupt, and goes to evict; process B rebuilds the entry in the
    same window.  A plain unlink would destroy B's good entry; the
    tombstone rename lets A notice the bytes changed underneath it and
    restore the rebuilt entry instead.
    """

    def test_evict_restores_concurrently_rebuilt_entry(self, cache):
        key = cache.make_key("exe", {})
        cache.put(key, {"v": 1})
        path = cache.entry_path(key)
        good = path.read_bytes()
        corrupt = b"x" * 40
        # A observed corrupt bytes; B rebuilt before A's rename fired.
        cache._evict(path, ValueError("simulated"), observed=corrupt)
        assert path.read_bytes() == good          # B's entry survived
        assert cache.get(key) == {"v": 1}
        assert not list(path.parent.glob("*.tomb-*"))

    def test_evict_unlinks_genuinely_corrupt_entry(self, cache):
        key = cache.make_key("exe", {})
        cache.put(key, {"v": 1})
        path = cache.entry_path(key)
        corrupt = b"x" * 40
        path.write_bytes(corrupt)
        cache._evict(path, ValueError("simulated"), observed=corrupt)
        assert not path.exists()
        assert not list(path.parent.glob("*.tomb-*"))

    def test_evict_discards_rebuilt_but_still_corrupt_entry(self, cache):
        # The bytes changed under the evictor but the replacement does
        # not verify either: it must be dropped, not restored.
        key = cache.make_key("exe", {})
        cache.put(key, {"v": 1})
        path = cache.entry_path(key)
        path.write_bytes(b"y" * 64)
        cache._evict(path, ValueError("simulated"), observed=b"x" * 40)
        assert not path.exists()
        assert not list(path.parent.glob("*.tomb-*"))

    def test_evict_tolerates_already_removed_entry(self, cache, tmp_path):
        missing = tmp_path / "cache" / "v2" / "ab" / "gone.bin"
        cache._evict(missing, ValueError("simulated"))  # must not raise

    def test_reader_retries_once_on_vanished_entry(self, cache,
                                                   monkeypatch):
        from pathlib import Path

        key = cache.make_key("exe", {})
        cache.put(key, {"v": 1})
        path = cache.entry_path(key)
        real = Path.read_bytes
        calls = {"misses": 0}

        def flaky(self):
            if self == path and calls["misses"] == 0:
                calls["misses"] += 1
                raise FileNotFoundError(str(self))
            return real(self)

        monkeypatch.setattr(Path, "read_bytes", flaky)
        assert cache.get(key) == {"v": 1}
        assert calls["misses"] == 1

    def test_clear_sweeps_stale_tombstones(self, cache):
        key = cache.make_key("exe", {})
        cache.put(key, {"v": 1})
        path = cache.entry_path(key)
        tomb = path.with_name(path.name + ".tomb-99999")
        tomb.write_bytes(b"leftover from a crashed evictor")
        assert cache.clear() == 1
        assert not tomb.exists()

    def test_concurrent_readers_writers_corruptor_stress(self, cache):
        """Readers never see garbage or raise while writers rebuild
        and a corruptor flips bytes under everyone."""
        import random
        import threading

        keys = [cache.make_key("exe", {"i": i}) for i in range(8)]
        payloads = {k: {"k": k, "data": list(range(64))} for k in keys}
        for k in keys:
            cache.put(k, payloads[k])
        stop = threading.Event()
        errors = []

        def writer(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                k = rng.choice(keys)
                try:
                    cache.put(k, payloads[k])
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

        def reader(seed):
            rng = random.Random(seed)
            own = ArtifactCache(cache.root)
            while not stop.is_set():
                k = rng.choice(keys)
                try:
                    got = own.get(k)
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    continue
                if got is not None and got != payloads[k]:
                    errors.append(
                        AssertionError(f"reader saw garbage for {k}"))

        def corruptor(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                path = cache.entry_path(rng.choice(keys))
                try:
                    blob = bytearray(path.read_bytes())
                except OSError:
                    continue
                if blob:
                    blob[len(blob) // 2] ^= 0xFF
                    try:
                        path.write_bytes(bytes(blob))
                    except OSError:
                        pass

        threads = [threading.Thread(target=writer, args=(s,))
                   for s in (1, 2)]
        threads += [threading.Thread(target=reader, args=(s,))
                    for s in (3, 4, 5)]
        threads += [threading.Thread(target=corruptor, args=(6,))]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(1.5, stop.set)
        stop_timer.start()
        for t in threads:
            t.join(timeout=30)
        stop_timer.cancel()
        stop.set()
        assert not errors, errors[:3]
        # The cache heals completely once the chaos stops.
        for k in keys:
            cache.put(k, payloads[k])
        fresh = ArtifactCache(cache.root)
        for k in keys:
            assert fresh.get(k) == payloads[k]


class TestResolve:
    """What ``Lab(cache=...)`` selects."""

    def test_false_disables(self):
        assert Lab(cache=False).cache.enabled is False

    def test_none_uses_default_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert Lab().cache.root == default_cache_root()

    def test_env_off_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert Lab().cache.enabled is False

    def test_env_dir_overrides_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert Lab().cache.root == tmp_path / "alt"


class TestLabPersistence:
    def test_second_lab_skips_compilation_and_execution(self, tmp_path,
                                                        monkeypatch):
        root = tmp_path / "cache"
        lab = Lab(cache=ArtifactCache(root))
        first = lab.run("ackermann", "d16")
        trace = lab.trace("ackermann", "d16")

        # A fresh lab on the same store must never compile or execute.
        monkeypatch.setattr(
            "repro.experiments.runner.build_executable",
            lambda *a, **k: pytest.fail("warm lab recompiled"))
        monkeypatch.setattr(
            "repro.experiments.runner.run_executable",
            lambda *a, **k: pytest.fail("warm lab re-executed"))
        warm = Lab(cache=ArtifactCache(root))
        second = warm.run("ackermann", "d16")
        assert second.stats.instructions == first.stats.instructions
        assert second.binary_size == first.binary_size
        assert second.stats.output == first.stats.output

        warm_trace = warm.trace("ackermann", "d16")
        assert list(warm_trace.itrace) == list(trace.itrace)
        assert list(warm_trace.dtrace) == list(trace.dtrace)
        assert warm.cache.misses == 0 and warm.cache.hits >= 2

    def test_cached_executable_keeps_its_function_table(self, tmp_path,
                                                        monkeypatch):
        """Fault campaigns attribute sites from the cached image."""
        from repro.bench import get_benchmark
        from repro.cc import build_executable

        root = tmp_path / "cache"
        Lab(cache=ArtifactCache(root)).executable("ackermann", "d16")
        fresh = build_executable(get_benchmark("ackermann").source, "d16")
        monkeypatch.setattr(
            "repro.experiments.runner.build_executable",
            lambda *a, **k: pytest.fail("warm lab recompiled"))
        warm = Lab(cache=ArtifactCache(root)).executable("ackermann", "d16")
        assert "main" in warm.functions
        assert warm.functions == fresh.executable.functions

    def test_cached_stats_support_dynamic_counts(self, tmp_path):
        """Pickled RunStats keep the per-site execution counts."""
        root = tmp_path / "cache"
        Lab(cache=ArtifactCache(root)).run("ackermann", "d16")
        warm = Lab(cache=ArtifactCache(root)).run("ackermann", "d16")
        counts = [count for _instr, count
                  in warm.stats.executed_instructions()]
        assert counts and sum(counts) == warm.stats.instructions

    def test_output_verified_even_on_cache_hit(self, tmp_path):
        root = tmp_path / "cache"
        lab = Lab(cache=ArtifactCache(root))
        lab.run("ackermann", "d16")
        # Tamper with the cached payload: the warm lab must notice.
        warm = Lab(cache=ArtifactCache(root))
        bench = __import__("repro.bench", fromlist=["get_benchmark"])
        key = warm._key("run", bench.get_benchmark("ackermann"), "d16")
        payload = warm.cache.get(key)
        payload["stats"].output = "tampered"
        warm.cache.put(key, payload)
        fresh = Lab(cache=ArtifactCache(root))
        with pytest.raises(ExperimentError):
            fresh.run("ackermann", "d16")

    def test_truncated_artifact_is_rebuilt_by_lab(self, tmp_path):
        """On-disk damage must heal: evict, recompile, re-store."""
        root = tmp_path / "cache"
        cold = Lab(cache=ArtifactCache(root))
        first = cold.run("ackermann", "d16")
        # Truncate every stored artifact mid-body.
        damaged = 0
        for path in (root / "v2").rglob("*.bin"):
            path.write_bytes(path.read_bytes()[:40])
            damaged += 1
        assert damaged >= 2                 # exe + run artifacts
        healed = Lab(cache=ArtifactCache(root))
        second = healed.run("ackermann", "d16")
        assert healed.cache.misses >= 1 and healed.cache.hits == 0
        assert second.stats == first.stats
        # The damaged entries were replaced with good ones.
        fresh = Lab(cache=ArtifactCache(root))
        assert fresh.run("ackermann", "d16").stats == first.stats
        assert fresh.cache.hits >= 1 and fresh.cache.misses == 0

    def test_different_params_do_not_share_runs(self, tmp_path):
        """New pipeline params miss the run cache but share the exe."""
        root = tmp_path / "cache"
        lab1 = Lab(cache=ArtifactCache(root))
        lab1.run("ackermann", "d16")
        lab2 = Lab(cache=ArtifactCache(root),
                   params=PipelineParams(load_delay=2))
        bench = __import__("repro.bench", fromlist=["get_benchmark"])
        ackermann = bench.get_benchmark("ackermann")
        assert lab2._key("run", ackermann, "d16") != \
            lab1._key("run", ackermann, "d16")
        lab2.run("ackermann", "d16")
        # run artifact missed (different params), exe artifact hit.
        assert lab2.cache.misses >= 1
        assert lab2.cache.hits >= 1
