"""Quickstart: write a small program, compile it for TRIPS, run it on both
simulators, and compare against a conventional out-of-order baseline.

Run:  python examples/quickstart.py
"""

from repro.compiler import compile_tir
from repro.harness import run_baseline_workload, run_trips_workload
from repro.tir import Array, Assign, For, Load, Store, TirProgram, V, interpret
from repro.uarch import FunctionalSim
from repro.uarch.proc import TripsProcessor


def main() -> None:
    # 1. A workload in TIR, the repository's C stand-in: a saxpy-style loop.
    n = 64
    prog = TirProgram(
        "quickstart",
        arrays={"x": Array("i64", list(range(n))),
                "y": Array("i64", [3] * n)},
        scalars={"a": 7},
        body=[
            For("i", 0, n, 1, [
                Store("y", V("i"),
                      V("a") * Load("x", V("i")) + Load("y", V("i"))),
            ], unroll=8),
        ],
        outputs=["y"])

    # 2. Golden results from the reference interpreter.
    golden = interpret(prog).output_signature(prog.outputs)

    # 3. Compile to TRIPS blocks (hand-optimized level) and inspect one.
    compiled = compile_tir(prog, level="hand")
    print(f"compiled into {len(compiled.program.blocks)} TRIPS blocks, "
          f"{compiled.program.static_instruction_count()} static instructions")
    first = min(compiled.program.blocks)
    print("\nfirst block listing:")
    print(compiled.program.blocks[first].listing())

    # 4. Functional simulation (tsim-arch): fast dataflow execution.
    sim = FunctionalSim(compiled.program)
    sim.run()
    assert compiled.extract_outputs(sim.regs, sim.memory) == golden
    print(f"\ntsim-arch: {sim.stats.blocks} blocks, "
          f"{sim.stats.fired} instructions fired — outputs match golden")

    # 5. Cycle-level simulation (tsim-proc): the distributed protocols.
    proc = TripsProcessor(compiled.program)
    stats = proc.run()
    assert compiled.extract_outputs(proc.regs, proc.memory) == golden
    print(f"tsim-proc: {stats.cycles} cycles, IPC {stats.ipc:.2f}, "
          f"{stats.blocks_committed} blocks committed, "
          f"{stats.blocks_flushed} flushed — outputs match golden")

    # 6. Against the Alpha-21264-style baseline: the paper's speedup is
    #    the ratio of cycle counts for the same workload.
    alpha = run_baseline_workload(prog)
    tcc = run_trips_workload(prog, level="tcc")
    hand = run_trips_workload(prog, level="hand")
    print(f"\nvs baseline: speedup tcc {alpha.cycles / tcc.cycles:.2f}x, "
          f"hand {alpha.cycles / hand.cycles:.2f}x "
          f"(IPCs: alpha {alpha.ipc:.2f}, tcc {tcc.ipc:.2f}, "
          f"hand {hand.ipc:.2f})")


if __name__ == "__main__":
    main()
