"""The configurable secondary memory system (Section 3.6).

The 1MB NUCA array can be programmed — by rewriting NT routing tables and
MT mode bits — as one shared L2, two split L2s, or on-chip scratchpad
memory.  This example issues the same access stream under each
configuration and reports bank usage and latency, then demonstrates a DMA
transfer and running a processor with the detailed (non-perfect) L2.

Run:  python examples/nuca_modes.py
"""

from repro.harness import run_trips_workload
from repro.mem.backing import BackingStore
from repro.mem.sysmem import SecondaryMemory
from repro.uarch.config import TripsConfig


def exercise(mode: str) -> None:
    sysmem = SecondaryMemory(mode)
    addresses = [0x100000 + 64 * i for i in range(32)]
    latencies = []
    # processor 0's four ports: under split_l2 they see its eight banks
    for i, addr in enumerate(addresses):
        port = i % 4
        sysmem.request(port, addr, False, meta=sysmem.cycle)
        sent = sysmem.cycle
        for _ in range(600):
            sysmem.step()
            got = sysmem.take_responses(port)
            if got:
                latencies.append(sysmem.cycle - sent)
                break
    banks = sum(1 for mt in sysmem.mts
                if mt.hits or mt.misses or mt.scratch_accesses)
    print(f"  {mode:<10s}: {banks:2d} banks touched, "
          f"avg latency {sum(latencies) / len(latencies):5.1f} cycles, "
          f"DRAM accesses {sysmem.stats['dram_accesses']}")


def main() -> None:
    print("same 32-line access stream under each memory configuration:")
    for mode in ("shared_l2", "split_l2", "scratchpad"):
        exercise(mode)

    print("\nDMA transfer between physical regions:")
    backing = BackingStore()
    backing.write_bytes(0x100000, bytes(range(256)))
    sysmem = SecondaryMemory(backing=backing)
    done = sysmem.dma_copy(0x100000, 0x180000, 256)
    ok = backing.read_bytes(0x180000, 256) == bytes(range(256))
    print(f"  256 bytes copied ({'ok' if ok else 'FAILED'}), "
          f"estimated completion at cycle {done}")

    print("\nrunning qr with the detailed NUCA L2 instead of a perfect L2:")
    perfect = run_trips_workload("qr", level="hand",
                                 config=TripsConfig(perfect_l2=True))
    detailed = run_trips_workload("qr", level="hand",
                                  config=TripsConfig(perfect_l2=False))
    print(f"  perfect L2: {perfect.cycles} cycles; "
          f"NUCA: {detailed.cycles} cycles "
          f"({detailed.proc.sysmem.stats['dram_accesses']} cold DRAM fills)")


if __name__ == "__main__":
    main()
