"""Tests for the NUCA secondary memory system (OCN + MTs + NTs)."""

import pytest

from repro.mem.backing import BackingStore
from repro.mem.mt import MemoryTile
from repro.mem.nt import NetworkTile, RouteEntry
from repro.mem.sysmem import SecondaryMemory


def drain(sysmem, port, cycles=500):
    got = []
    for _ in range(cycles):
        sysmem.step()
        got.extend(sysmem.take_responses(port))
        if got:
            break
    return got


class TestMemoryTile:
    def test_l2_hit_after_fill(self):
        mt = MemoryTile(0)
        t1, dram1 = mt.access(0x1000, now=0)
        t2, dram2 = mt.access(0x1000, now=100)
        assert dram1 and not dram2
        assert mt.hits == 1 and mt.misses == 1

    def test_scratchpad_never_misses(self):
        mt = MemoryTile(0)
        mt.configure("scratch")
        _, dram = mt.access(0xABCDEF, now=0)
        assert not dram
        assert mt.scratch_accesses == 1

    def test_single_entry_mshr_serializes_misses(self):
        mt = MemoryTile(0)
        t1, _ = mt.access(0x0000, now=0)
        mt.note_refill(t1 + 80)
        t2, _ = mt.access(0x9000, now=1)
        assert t2 >= t1 + 80
        assert mt.mshr_stalls == 1

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            MemoryTile(0).configure("weird")


class TestNetworkTile:
    def test_interleave_routing(self):
        nt = NetworkTile(0)
        nt.program_interleave(lambda a: (a // 64) % 16)
        assert nt.route(0) == 0
        assert nt.route(64) == 1
        assert nt.route(64 * 16) == 0

    def test_range_routing(self):
        nt = NetworkTile(0)
        nt.program_ranges([RouteEntry(0x1000, 0x2000, 3),
                           RouteEntry(0, 1 << 40, 0)])
        assert nt.route(0x1800) == 3
        assert nt.route(0x9999999) == 0

    def test_no_route(self):
        nt = NetworkTile(0)
        nt.program_ranges([RouteEntry(0, 16, 1)])
        with pytest.raises(LookupError):
            nt.route(100)


class TestSecondaryMemory:
    def test_miss_goes_to_dram_then_hits(self):
        sysmem = SecondaryMemory()
        sysmem.request(0, 0x100000, False, meta="first")
        got = drain(sysmem, 0)
        assert got == ["first"]
        t_miss = sysmem.cycle
        assert sysmem.stats["dram_accesses"] == 1
        sysmem.request(0, 0x100000, False, meta="second")
        start = sysmem.cycle
        got = drain(sysmem, 0)
        assert got == ["second"]
        assert (sysmem.cycle - start) < t_miss   # hit is faster than miss

    def test_requests_interleave_across_banks(self):
        sysmem = SecondaryMemory()
        for i in range(8):
            sysmem.request(i % 8, 0x200000 + 64 * i, False, meta=i)
        got = []
        for _ in range(800):
            sysmem.step()
            for p in range(8):
                got.extend(sysmem.take_responses(p))
            if len(got) == 8:
                break
        assert sorted(got) == list(range(8))
        touched = [mt for mt in sysmem.mts if mt.misses or mt.hits]
        assert len(touched) == 8     # line interleaving spreads the banks

    def test_scratchpad_mode_skips_dram(self):
        sysmem = SecondaryMemory("scratchpad")
        sysmem.request(0, 0x100000 + 5 * 65536 + 128, False, meta="x")
        got = drain(sysmem, 0)
        assert got == ["x"]
        assert sysmem.stats["dram_accesses"] == 0
        assert sysmem.mts[5].scratch_accesses == 1

    def test_reconfiguration(self):
        sysmem = SecondaryMemory()
        sysmem.configure("scratchpad")
        assert all(mt.mode == "scratch" for mt in sysmem.mts)
        sysmem.configure("shared_l2")
        assert all(mt.mode == "l2" for mt in sysmem.mts)

    def test_split_mode_uses_eight_banks(self):
        """Two independent 512KB caches: processor 0's ports (0-3) reach
        only banks 0-7 and processor 1's (4-7) only banks 8-15."""
        halves = ((range(4), range(8)), (range(4, 8), range(8, 16)))
        for ports, banks in halves:
            sysmem = SecondaryMemory("split_l2")
            ports = list(ports)
            for i in range(16):
                sysmem.request(ports[i % 4], 0x300000 + 64 * i, False, meta=i)
            got = []
            for _ in range(1500):
                sysmem.step()
                for p in ports:
                    got.extend(sysmem.take_responses(p))
                if len(got) == 16:
                    break
            assert len(got) == 16
            touched = [mt.index for mt in sysmem.mts if mt.misses]
            assert touched == list(banks)

    def test_idle_cycles_advance_the_clocks(self):
        """The fast engine does not step a cycle with nothing to move,
        but its clocks advance as if it had: after idle stretches,
        requests are answered on the same cycles, with the same OCN
        queueing, as under the full-scan engine, which steps them all."""
        from repro.uarch.config import TripsConfig

        runs = []
        for fast in (True, False):
            sysmem = SecondaryMemory(config=TripsConfig(fast_path=fast))
            log = []
            for idle in (0, 37, 5, 400):
                for _ in range(idle):
                    sysmem.step()
                assert sysmem.ocn.cycle_count == sysmem.cycle
                sysmem.request(idle % 4, 0x100000 + 64 * idle, False,
                               meta=idle)
                log.append((drain(sysmem, idle % 4), sysmem.cycle))
            log.append(sysmem.ocn.stats)
            runs.append(log)
        assert runs[0] == runs[1]

    def test_dma_copy_moves_bytes(self):
        backing = BackingStore()
        backing.write_bytes(0x1000, bytes(range(100)))
        sysmem = SecondaryMemory(backing=backing)
        done = sysmem.dma_copy(0x1000, 0x8000, 100)
        assert backing.read_bytes(0x8000, 100) == bytes(range(100))
        assert done > sysmem.cycle   # transfers take OCN time
        assert sysmem.stats["dma_copies"] == 1
