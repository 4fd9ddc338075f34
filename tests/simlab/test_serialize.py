"""Stats dataclasses survive a JSON round trip (the cache record format)."""

import json

from repro.baseline.ooo import BaselineStats
from repro.chip import ChipStats
from repro.serialize import dataclass_from_dict, dataclass_to_dict
from repro.uarch.proc import ProcStats


def _json_trip(data):
    return json.loads(json.dumps(data))


class TestProcStats:
    def test_round_trip(self):
        stats = ProcStats(cycles=100, insts_committed=250, lsq_peak=17,
                          gdn_messages=9, opn_messages=44)
        clone = ProcStats.from_dict(_json_trip(stats.to_dict()))
        assert clone == stats
        assert clone.ipc == stats.ipc
        assert clone.network_traffic() == stats.network_traffic()

    def test_unknown_keys_ignored(self):
        stats = ProcStats.from_dict({"cycles": 5, "from_the_future": 1})
        assert stats.cycles == 5

    def test_missing_keys_default(self):
        assert ProcStats.from_dict({}).cycles == 0


class TestBaselineStats:
    def test_round_trip(self):
        stats = BaselineStats(cycles=10, instructions=42, branches=7,
                              mispredicts=1, l1d_hits=30, l1d_misses=2)
        clone = BaselineStats.from_dict(_json_trip(stats.to_dict()))
        assert clone == stats
        assert clone.ipc == stats.ipc


class TestChipStats:
    def test_per_core_default_is_not_shared(self):
        # the classic mutable-default bug: two instances must not alias
        a, b = ChipStats(), ChipStats()
        assert a.per_core == []
        a.per_core.append(ProcStats(cycles=1))
        assert b.per_core == []

    def test_nested_round_trip(self):
        stats = ChipStats(cycles=500,
                          per_core=[ProcStats(cycles=400),
                                    ProcStats(cycles=500)],
                          ocn_requests=12, dram_accesses=3)
        clone = ChipStats.from_dict(_json_trip(stats.to_dict()))
        assert clone == stats
        assert isinstance(clone.per_core[0], ProcStats)


class TestGenericHelpers:
    def test_to_dict_rejects_non_dataclass(self):
        import pytest
        with pytest.raises(TypeError):
            dataclass_to_dict({"not": "a dataclass"})
        with pytest.raises(TypeError):
            dataclass_from_dict(dict, {})
