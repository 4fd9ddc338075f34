"""Figure 5b: block completion / commit / acknowledgment pipelining.

Checks the three-phase commit protocol's timeline properties on a traced
run: completion precedes commit, acks trail commits, commits stay in
program order, and commit commands overlap older blocks' outstanding
acknowledgments (the pipelined-commit optimization of Section 4.4).
"""

from repro.compiler import compile_tir
from repro.tir import Assign, For, TirProgram, V
from repro.uarch.proc import TripsProcessor

from .conftest import save


def _run():
    # independent straight-line blocks complete in bursts, which is what
    # exercises the pipelined-commit rule (a loop's serial register chain
    # spaces completions out instead)
    from repro.tir import Array, Const, Store
    prog = TirProgram("fig5b",
                      arrays={"a": Array("i64", [0] * 200)},
                      body=[Store("a", Const(i), Const(i * i))
                            for i in range(200)],
                      outputs=["a"])
    compiled = compile_tir(prog, level="hand")
    proc = TripsProcessor(compiled.program, trace=True)
    proc.run()
    return proc


def test_fig5b_commit_pipeline(benchmark, results_dir):
    proc = benchmark.pedantic(_run, rounds=1, iterations=1)
    committed = proc.trace.committed_blocks()
    assert len(committed) >= 6

    lines = ["Figure 5b protocol timeline (committed blocks):",
             f"{'seq':>4} {'fetch':>6} {'finish':>6} {'commit':>6} {'ack':>6}"]
    for b in committed:
        lines.append(f"{b.uid:>4} {b.fetch_t:>6} {b.completed_t:>6} "
                     f"{b.commit_t:>6} {b.ack_t:>6}")

    # phase ordering within each block
    for b in committed:
        assert b.fetch_t < b.completed_t <= b.commit_t < b.ack_t
    # commits in program order
    commits = [b.commit_t for b in committed]
    assert commits == sorted(commits)
    # pipelined commit: some commit is sent before an older ack returns
    overlapped = sum(1 for a, b in zip(committed, committed[1:])
                     if b.commit_t < a.ack_t)
    lines.append(f"\npipelined commits (sent before the previous ack "
                 f"returned): {overlapped}/{len(committed) - 1}")
    save(results_dir, "fig5b_commit_pipeline.txt", "\n".join(lines))
    assert overlapped > 0
