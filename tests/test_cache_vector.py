"""Vectorized cache replay vs the scalar Cache oracle.

The replay engine (:mod:`repro.cache.vector`) regroups a trace
line-major and compresses it to first-demands; these property tests pin
its contract: after replaying any trace -- cold or warm-started, reads
or mixed tagged reads/writes -- every counter AND the tag/valid state
must equal the scalar loops byte for byte.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cache import Cache, CacheConfig
from repro.cache.vector import (as_addresses, dedup_words, replay_reads,
                                replay_tagged)

#: Geometries spanning the paper's sweep corners plus degenerate
#: single-line and single-sub shapes.
GEOMETRIES = [(1024, 16, 4), (1024, 32, 16), (2048, 64, 8),
              (4096, 32, 32), (256, 16, 16), (512, 64, 64)]

geometry = st.sampled_from(GEOMETRIES)
#: Small address space so lines collide and tags get replaced often.
addresses = st.lists(st.integers(0, 0x3FFF), max_size=400)


def snapshot(cache):
    return (cache.read_accesses, cache.read_misses,
            cache.write_accesses, cache.write_misses,
            cache.traffic_words, list(cache.tags), list(cache.valid))


def pair(geometry):
    size, block, sub = geometry
    cfg = CacheConfig(size=size, block=block, sub_block=sub)
    return Cache(cfg), Cache(cfg)


def dedup_consecutive(addresses):
    """Scalar oracle for ``dedup=True``: word-align, drop repeats."""
    previous = None
    for addr in addresses:
        word = addr & ~3
        if word != previous:
            previous = word
            yield word


class TestReadReplay:
    @settings(max_examples=60)
    @given(geometry=geometry, addrs=addresses)
    def test_cold_replay_matches_oracle(self, geometry, addrs):
        oracle, vec = pair(geometry)
        oracle.run_reads(addrs)
        replay_reads(vec, addrs)
        assert snapshot(vec) == snapshot(oracle)

    @settings(max_examples=40)
    @given(geometry=geometry, warm=addresses, addrs=addresses)
    def test_warm_start_matches_oracle(self, geometry, warm, addrs):
        # Pre-populate both caches identically, then replay: the vector
        # engine must honour pre-existing tags and partial valid masks.
        oracle, vec = pair(geometry)
        for cache in (oracle, vec):
            cache.run_reads(warm)
        oracle.run_reads(addrs)
        replay_reads(vec, addrs)
        assert snapshot(vec) == snapshot(oracle)

    @settings(max_examples=40)
    @given(geometry=geometry, warm=addresses, addrs=addresses,
           line=st.integers(0, 255), bit=st.integers(0, 15))
    def test_corrupted_state_matches_oracle(self, geometry, warm, addrs,
                                            line, bit):
        # Cache fault injection flips one tag or valid bit between two
        # replays; the vector engine must read the corrupt metadata
        # exactly as the scalar loop does.
        oracle, vec = pair(geometry)
        config = oracle.config
        for cache in (oracle, vec):
            cache.run_reads(warm)
            if bit < config.subs_per_block:
                cache.corrupt_line(line % config.num_lines, sub_bit=bit)
            else:
                cache.corrupt_line(line % config.num_lines,
                                   tag_bit=bit % 8)
        oracle.run_reads(addrs)
        replay_reads(vec, addrs)
        assert snapshot(vec) == snapshot(oracle)

    @settings(max_examples=40)
    @given(geometry=geometry, addrs=addresses)
    def test_dedup_matches_dedup_consecutive(self, geometry, addrs):
        oracle, vec = pair(geometry)
        oracle.run_reads(dedup_consecutive(addrs))
        replay_reads(vec, addrs, dedup=True)
        assert snapshot(vec) == snapshot(oracle)


class TestTaggedReplay:
    @settings(max_examples=60)
    @given(geometry=geometry,
           stream=st.lists(st.tuples(st.integers(0, 0x3FFF),
                                     st.booleans()), max_size=400))
    def test_mixed_stream_matches_oracle(self, geometry, stream):
        tagged = [(addr & ~3) | int(write) for addr, write in stream]
        oracle, vec = pair(geometry)
        oracle.run_tagged(tagged)
        replay_tagged(vec, tagged)
        assert snapshot(vec) == snapshot(oracle)


class TestFirstDemandStream:
    """The returned first demands stand in for the whole stream in any
    cache with the same block and sub-block and more lines."""

    @staticmethod
    def larger(cache, factor):
        """Two cold caches like ``cache`` with ``factor`` times the lines."""
        cfg = cache.config
        return pair((cfg.size * factor, cfg.block, cfg.sub_block))

    @staticmethod
    def effects(cache):
        return (cache.read_misses, cache.write_misses,
                cache.traffic_words, cache.tags, cache.valid)

    @settings(max_examples=60)
    @given(geometry=geometry, addrs=addresses,
           factor=st.sampled_from([2, 4]))
    def test_read_first_demands(self, geometry, addrs, factor):
        _, vec = pair(geometry)
        first = replay_reads(vec, addrs).tolist()
        whole, part = self.larger(vec, factor)
        whole.run_reads(addrs)
        part.run_reads([addrs[i] for i in first])
        assert self.effects(part) == self.effects(whole)

    @settings(max_examples=60)
    @given(geometry=geometry,
           stream=st.lists(st.tuples(st.integers(0, 0x3FFF),
                                     st.booleans()), max_size=400),
           factor=st.sampled_from([2, 4]))
    def test_tagged_first_demands(self, geometry, stream, factor):
        tagged = [(addr & ~3) | int(write) for addr, write in stream]
        _, vec = pair(geometry)
        first = replay_tagged(vec, tagged).tolist()
        whole, part = self.larger(vec, factor)
        whole.run_tagged(tagged)
        part.run_tagged([tagged[i] for i in first])
        assert self.effects(part) == self.effects(whole)

    @settings(max_examples=40)
    @given(geometry=st.sampled_from(GEOMETRIES + [(1 << 20, 8, 8)]),
           addrs=st.lists(st.tuples(
               st.sampled_from([0, 0x8_0000, 0x10_0000]),
               st.integers(0, 0x3FF)).map(sum), max_size=400))
    @example(geometry=(1 << 20, 8, 8), addrs=[0, 0x8_0000, 0])
    def test_first_demands_are_exact(self, geometry, addrs):
        """Each (tag epoch, sub-block)'s first access and nothing else,
        also above 65,536 lines where the line key is wide."""
        _, vec = pair(geometry)
        cfg = vec.config
        epochs, expected = {}, []
        for i, addr in enumerate(addrs):
            block, sub = addr // cfg.block, addr % cfg.block // cfg.sub_block
            line = block % cfg.num_lines
            if epochs.get(line, (None,))[0] != block:
                epochs[line] = (block, set())
            if sub not in epochs[line][1]:
                epochs[line][1].add(sub)
                expected.append(i)
        assert replay_reads(vec, addrs).tolist() == expected

    @settings(max_examples=40)
    @given(geometry=geometry, addrs=addresses)
    def test_dedup_indices_point_into_the_input(self, geometry, addrs):
        _, vec = pair(geometry)
        first = replay_reads(vec, addrs, dedup=True).tolist()
        whole, part = self.larger(vec, 2)
        whole.run_reads(dedup_consecutive(addrs))
        part.run_reads(addrs[i] for i in first)
        assert self.effects(part) == self.effects(whole)


class TestHelpers:
    def test_as_addresses_and_dedup_words(self):
        addrs = as_addresses([0, 1, 2, 3, 4, 8, 8, 12])
        assert addrs.dtype.kind == "i"
        # Word-aligned, consecutive duplicates removed: 0,0,0,0 -> 0.
        assert dedup_words(addrs).tolist() == [0, 4, 8, 12]

    def test_empty_trace_is_noop(self):
        oracle, vec = pair(GEOMETRIES[0])
        replay_reads(vec, [])
        replay_tagged(vec, [])
        assert snapshot(vec) == snapshot(oracle)
