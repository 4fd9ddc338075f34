"""The full TRIPS chip: two cores communicating through shared memory.

The prototype carries two complete processors connected only through the
secondary memory system (Section 3).  This example runs a producer on
core 0 and a consumer on core 1: the producer computes into its region
and raises a flag; the DMA controller moves the block between physical
regions; the consumer spins on its flag and then reduces the data — the
same memory-system-mediated patterns the silicon supports.

Run:  python examples/dual_core.py
"""

from repro.chip import TripsChip
from repro.compiler import compile_tir
from repro.tir import (
    Array,
    Assign,
    Const,
    For,
    Load,
    Store,
    TirProgram,
    V,
    While,
    bits_to_int,
)


def main() -> None:
    producer = TirProgram(
        "producer",
        arrays={"seed": Array("i64", list(range(32))),
                "out": Array("i64", [0] * 32)},
        body=[For("i", 0, 32, 1, [
            Store("out", V("i"), Load("seed", V("i")) * 3 + 1)], unroll=4)],
        outputs=["out"])
    consumer = TirProgram(
        "consumer",
        arrays={"inbox": Array("i64", [0] * 32),
                "flag": Array("i64", [0])},
        scalars={"total": 0},
        body=[
            While(Load("flag", Const(0)).eq(0), [Assign("total", Const(0))]),
            For("i", 0, 32, 1, [
                Assign("total", V("total") + Load("inbox", V("i")))]),
        ],
        outputs=["total"])

    p0 = compile_tir(producer, level="hand", base=0x1000, data_base=0x100000)
    p1 = compile_tir(consumer, level="hand", base=0x40000, data_base=0x180000)
    chip = TripsChip(p0.program, p1.program)

    # phase 1: run until the producer halts (the consumer spins)
    while not chip.cores[0].halted:
        chip.step()
    print(f"core 0 (producer) halted at chip cycle {chip.cycle}: "
          f"{chip.cores[0].stats.blocks_committed} blocks committed")

    # phase 2: DMA the produced region into the consumer's inbox, raise
    # its flag, and let the chip run to completion
    done_at = chip.dma_copy(p0.array_addrs["out"],
                            p1.array_addrs["inbox"], 32 * 8)
    chip.memory.write(p1.array_addrs["flag"], 1, 8)
    print(f"DMA transfer programmed (estimated completion: cycle {done_at})")
    stats = chip.run()

    total = bits_to_int(chip.cores[1].regs[p1.var_regs["total"]])
    expect = sum(i * 3 + 1 for i in range(32))
    print(f"core 1 (consumer) summed the inbox: {total} "
          f"({'correct' if total == expect else 'WRONG, expected %d' % expect})")
    print(f"chip: {stats.cycles} cycles, OCN requests {stats.ocn_requests}, "
          f"DRAM accesses {stats.dram_accesses}")


if __name__ == "__main__":
    main()
