"""Sharded lane bookkeeping must equal the scanning reference paths.

The ``lane_shards`` engine axis (``REPRO_NO_LANE_SHARDS``) covers three incremental structures:
the lane table's per-owner counters, the bulk-round greedy partition and
the co-processor's busy-pool set for CTS arbitration.  Each has a
from-scratch counterpart these tests diff against.
"""

import random

import pytest

from repro.common.config import experiment_config
from repro.common.errors import ConfigurationError
from repro.coproc.lanes import FREE, LaneTable
from repro.core.partition import greedy_partition
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue
from tests.conftest import compiled_job, make_axpy, make_reduction, run_fingerprint


class TestOwnerCounters:
    def test_counters_equal_scan_over_random_reconfigures(self):
        for seed in range(10):
            rng = random.Random(seed)
            table = LaneTable(32)
            for _ in range(200):
                core = rng.randrange(8)
                ceiling = table.owned_count(core) + table.free_count
                table.reconfigure(core, rng.randint(0, ceiling))
                assert table.counters() == table.scan_counters()

    def test_full_and_empty_pool_extremes(self):
        table = LaneTable(8)
        assert table.counters() == table.scan_counters() == {FREE: 8}
        table.reconfigure(0, 8)
        assert table.counters() == table.scan_counters() == {FREE: 0, 0: 8}
        table.reconfigure(0, 0)
        assert table.counters() == table.scan_counters() == {FREE: 8}


class TestBulkGreedyPartition:
    def _roofline(self):
        return RooflineModel.from_config(experiment_config())

    def _random_demands(self, rng, num_cores):
        demands = {}
        for core in range(num_cores):
            if rng.random() < 0.25:
                continue  # no running phase on this core
            demands[core] = OIValue(
                issue=rng.uniform(0.05, 8.0),
                mem=rng.uniform(0.05, 8.0),
                level=rng.choice(("dram", "l2", "vec_cache")),
            )
        return demands

    def test_bulk_rounds_match_reference_rounds(self):
        roofline = self._roofline()
        for seed in range(60):
            rng = random.Random(seed)
            demands = self._random_demands(rng, rng.choice((2, 4, 8, 16)))
            if not demands:
                continue
            sharded = greedy_partition(demands, 32, roofline, sharded=True)
            reference = greedy_partition(demands, 32, roofline, sharded=False)
            assert sharded == reference, f"seed {seed}: {demands}"

    def test_oversubscribed_still_rejected(self):
        roofline = self._roofline()
        demands = {
            core: OIValue(issue=1.0, mem=1.0, level="dram") for core in range(3)
        }
        with pytest.raises(ConfigurationError):
            greedy_partition(demands, 2, roofline, sharded=True)


class TestBusyPoolSet:
    def test_set_matches_pool_scan_at_every_arbitration(self, monkeypatch):
        from repro.coproc.coprocessor import CoProcessor
        from repro.core.machine import Machine
        from repro.core.policies import policy

        monkeypatch.delenv("REPRO_NO_LANE_SHARDS", raising=False)
        mismatches = []
        checks = []
        original = CoProcessor._cts_arbitrate

        def audited(self, cycle):
            scanned = {
                core for core, pool in enumerate(self.pools) if not pool.empty
            }
            checks.append(cycle)
            if self._busy_pools != scanned:
                mismatches.append((cycle, self._busy_pools, scanned))
            return original(self, cycle)

        monkeypatch.setattr(CoProcessor, "_cts_arbitrate", audited)
        jobs = [
            compiled_job(make_axpy(2048), 0),
            compiled_job(make_reduction(256, 8), 1),
        ]
        machine = Machine(experiment_config(), policy("cts"), jobs)
        machine.run()
        assert checks, "CTS run never arbitrated ownership"
        assert not mismatches, mismatches[:3]


class TestKillSwitch:
    def test_latches_at_construction(self, monkeypatch):
        from repro.core.lane_manager import ElasticLaneManager
        from repro.core.machine import Machine
        from repro.core.policies import policy

        config = experiment_config()
        jobs = [compiled_job(make_axpy(128), 0), None]
        monkeypatch.setenv("REPRO_NO_LANE_SHARDS", "1")
        machine = Machine(config, policy("occamy"), jobs)
        assert machine.engine.lane_shards is False
        assert machine.coproc._busy_pools is None
        assert machine.lane_manager.sharded is False
        monkeypatch.delenv("REPRO_NO_LANE_SHARDS", raising=False)
        assert machine.engine.lane_shards is False  # latched, not re-read
        assert machine.lane_manager.sharded is False
        machine = Machine(config, policy("occamy"), jobs)
        assert machine.coproc._busy_pools == set()
        assert machine.lane_manager.sharded is True
        assert ElasticLaneManager(RooflineModel.from_config(config), 32).sharded

    def test_fingerprints_identical_with_and_without(self, monkeypatch):
        from repro.core.machine import Machine
        from repro.core.policies import policy

        def run(policy_key):
            jobs = [
                compiled_job(make_axpy(1536), 0),
                compiled_job(make_reduction(256, 6), 1),
            ]
            machine = Machine(experiment_config(), policy(policy_key), jobs)
            return run_fingerprint(machine.run())

        for policy_key in ("occamy", "cts"):
            monkeypatch.delenv("REPRO_NO_LANE_SHARDS", raising=False)
            with_shards = run(policy_key)
            monkeypatch.setenv("REPRO_NO_LANE_SHARDS", "1")
            without = run(policy_key)
            assert with_shards == without, policy_key
