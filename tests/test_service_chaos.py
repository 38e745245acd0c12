"""Chaos harness acceptance: injected failures, byte-identical answers.

The headline test replays the seeded 1000-request mixed stream against
a clean service and against a service with >= 20 injected failures
(worker kills, hangs, slow workers, and cache-entry corruption
mid-run) and asserts the robustness contract end to end: zero lost
requests and responses byte-identical to the clean run.
"""

import json

import pytest

from repro.service import (ChaosPlan, JournaledStore, Request,
                           chaos_campaign, make_plan, split_failures)
from repro.service.chaos import CorruptingStore


class TestPlan:
    def test_split_covers_total_with_every_action(self):
        for total in (4, 12, 20, 24, 40):
            mix = split_failures(total)
            assert sum(mix.values()) == total
            assert all(count >= 1 for count in mix.values())

    def test_split_below_four_plans_exactly_total(self):
        """Too few injections for every action: the cheapest go first,
        and no hang costs a task deadline."""
        for total in range(4):
            mix = split_failures(total)
            assert sum(mix.values()) == total
            assert mix["hangs"] == 0
            assert set(mix) == {"kills", "hangs", "slows", "corruptions"}
        assert split_failures(1) == {"kills": 1, "hangs": 0, "slows": 0,
                                     "corruptions": 0}
        assert split_failures(3) == {"kills": 1, "hangs": 0, "slows": 1,
                                     "corruptions": 1}
        plan = make_plan(7, horizon=40, **split_failures(2))
        assert plan.planned == 2

    def test_plan_is_seed_deterministic(self):
        mix = split_failures(12)
        a = make_plan(7, horizon=40, **mix)
        b = make_plan(7, horizon=40, **mix)
        assert a.directives_by_seq == b.directives_by_seq
        assert a.corrupt_commits == b.corrupt_commits
        assert a.planned == 12

    def test_fired_accounting_counts_only_consulted_ordinals(self):
        plan = ChaosPlan({1: {"action": "kill"},
                          9: {"action": "slow", "sleep_s": 0.1}},
                         frozenset({2}))
        assert plan.planned == 3
        assert plan.directive(1) == {"action": "kill"}
        assert plan.directive(5) is None
        assert plan.should_corrupt(2)
        assert not plan.should_corrupt(3)
        # Ordinal 9 never dispatched: planned but not fired.
        assert plan.fired_total == 2
        assert plan.fired == {"kill": 1, "corrupt": 1}


class TestCorruptingStore:
    def test_corruption_is_caught_evicted_and_recomputed(self, tmp_path):
        plan = ChaosPlan({}, frozenset({1}))
        store = CorruptingStore(tmp_path / "svc", plan)
        request = Request(kind="run", bench="b", target="t")
        key = store.result_key(request)
        store.begin(key, request)
        store.commit(key, {"value": 1})     # commit #1: corrupted
        assert plan.fired == {"corrupt": 1}
        # The digest check rejects the rotten entry: miss, not garbage.
        assert store.get(key) is None
        # The entry was evicted, so a rebuild heals the store.
        store.commit(key, {"value": 1})     # commit #2: clean
        assert store.get(key) == {"value": 1}

    def test_same_root_reopens_as_plain_store(self, tmp_path):
        plan = ChaosPlan({}, frozenset())
        store = CorruptingStore(tmp_path / "svc", plan)
        request = Request(kind="run", bench="b", target="t")
        key = store.result_key(request)
        store.begin(key, request)
        store.commit(key, {"value": 2})
        assert JournaledStore(tmp_path / "svc").get(key) == {"value": 2}


class TestChaosCampaign:
    def test_smoke_campaign_is_identical_under_injection(self, tmp_path):
        report = chaos_campaign(tmp_path, seed=7, count=120,
                                failures=8, jobs=2, task_timeout=5.0)
        assert report["lost_requests"] == 0
        assert report["identical"], report["mismatches"]
        assert report["injections_fired"] >= 6
        assert report["injections_planned"] == 8

    @pytest.mark.slow
    def test_acceptance_1000_requests_20_plus_injections(self, tmp_path):
        """ISSUE 9 acceptance: the full chaos suite.

        1000 mixed requests, >= 24 planned / >= 20 fired injected
        failures across worker kills, hangs, slowdowns, and cache
        corruption; the chaos run must lose zero requests and answer
        with exactly the clean run's bytes.
        """
        report = chaos_campaign(tmp_path, seed=42, count=1000,
                                failures=24, jobs=2, task_timeout=5.0)
        assert report["requests"] == 1000
        assert report["injections_planned"] >= 24
        assert report["injections_fired"] >= 20
        by_action = report["injections_by_action"]
        for action in ("kill", "hang", "slow", "corrupt"):
            assert by_action.get(action, 0) >= 1, by_action
        assert report["lost_requests"] == 0
        assert report["identical"], report["mismatches"]
        assert report["worker_restarts"] >= 1
        # The report is JSON-serializable as committed by `repro chaos`.
        json.dumps(report)
