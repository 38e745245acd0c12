"""The paper's performance formulas."""

import pytest

from repro.machine import (RunStats, cycles_no_cache,
                           cycles_with_cache, fetches_per_cycle,
                           normalized_cpi)


def make_stats(**kw):
    defaults = dict(instructions=1000, loads=100, stores=50,
                    interlocks=80, ifetch_words=600, ifetch_dwords=350)
    defaults.update(kw)
    return RunStats(**defaults)


class TestNoCache:
    def test_zero_latency(self):
        stats = make_stats()
        assert cycles_no_cache(stats, latency=0) == 1080

    def test_latency_charges_requests(self):
        stats = make_stats()
        expected = 1080 + 2 * (600 + 150)
        assert cycles_no_cache(stats, latency=2, bus_bits=32) == expected

    def test_64_bit_bus_uses_dwords(self):
        stats = make_stats()
        expected = 1080 + 1 * (350 + 150)
        assert cycles_no_cache(stats, latency=1, bus_bits=64) == expected

    def test_bad_bus_width(self):
        with pytest.raises(ValueError):
            cycles_no_cache(make_stats(), latency=1, bus_bits=48)


class TestWithCache:
    def test_miss_penalty(self):
        stats = make_stats()
        cycles = cycles_with_cache(stats, miss_penalty=10, imisses=5,
                                   rmisses=3, wmisses=2)
        assert cycles == 1080 + 100


class TestRatios:
    def test_normalized_cpi(self):
        # Normalizing D16 cycles by the DLXe IC factors out path length.
        assert normalized_cpi(3000, 1500) == 2.0

    def test_fetches_per_cycle_bounded(self):
        stats = make_stats()
        for latency in range(4):
            rate = fetches_per_cycle(stats, latency=latency)
            assert 0.0 < rate <= 1.0

    def test_fetch_rate_decreases_with_latency(self):
        stats = make_stats()
        rates = [fetches_per_cycle(stats, latency=lat)
                 for lat in range(4)]
        assert rates == sorted(rates, reverse=True)
