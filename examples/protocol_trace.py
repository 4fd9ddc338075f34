"""Figure 5b: the fetch / complete / commit / ack pipeline across blocks.

Runs a small loop with tracing enabled and prints the per-block protocol
timeline — showing that fetches pipeline every ~8 cycles, completion
(Finish) precedes the commit command, commit commands pipeline without
waiting for older acks, and deallocation waits for the ack (Section 4.4).

Run:  python examples/protocol_trace.py
"""

from repro.compiler import compile_tir
from repro.tir import Assign, For, TirProgram, V
from repro.uarch.proc import TripsProcessor


def main() -> None:
    prog = TirProgram(
        "timeline", scalars={"acc": 0},
        body=[For("i", 0, 12, 1, [Assign("acc", V("acc") + V("i"))])],
        outputs=["acc"])
    compiled = compile_tir(prog, level="hand")
    proc = TripsProcessor(compiled.program, trace=True)
    stats = proc.run()

    print(f"{stats.cycles} cycles, {stats.blocks_committed} blocks "
          f"committed, {stats.blocks_flushed} flushed\n")
    header = (f"{'seq':>4} {'addr':>8} {'fetch':>6} {'dispat':>6} "
              f"{'finish':>6} {'commit':>6} {'ack':>6}  outcome")
    print(header)
    print("-" * len(header))
    for ev in sorted(proc.trace.blocks.values(), key=lambda b: b.uid):
        print(f"{ev.uid:>4} {ev.addr:#8x} {ev.fetch_t:>6} "
              f"{ev.dispatch_done_t:>6} {ev.completed_t:>6} "
              f"{ev.commit_t:>6} {ev.ack_t:>6}  {ev.outcome}")

    committed = proc.trace.committed_blocks()
    fetch_gaps = [b.fetch_t - a.fetch_t
                  for a, b in zip(committed, committed[1:])]
    print(f"\nfetch-to-fetch gaps (committed blocks): {fetch_gaps}")
    print("commit commands are pipelined: a block's commit may be sent "
          "before older blocks' acks return —")
    overlapped = sum(1 for a, b in zip(committed, committed[1:])
                     if b.commit_t < a.ack_t)
    print(f"{overlapped} of {len(committed) - 1} commits overlapped an "
          "older block's in-flight acknowledgment")


if __name__ == "__main__":
    main()
