"""Figures 2-3: tile topology and micronetwork connectivity.

Verifies the simulator's structural facts against the figures — the 5x5
OPN with GT/RT/DT/ET placement, nearest-neighbour-only links, one cycle
per hop — and benchmarks raw OPN throughput under uniform-random traffic.
"""

import random

from repro.uarch.config import TripsConfig
from repro.uarch.mesh import Packet, WormholeMesh
from repro.uarch.proc import TripsProcessor
from repro.isa import ProgramBuilder, TripsBlock, make

from .conftest import save


def _proc():
    builder = ProgramBuilder()
    blk = TripsBlock()
    blk.body[0] = make("halt")
    builder.append(blk)
    return TripsProcessor(builder.finish())


def test_fig2_tile_counts(benchmark, results_dir):
    proc = benchmark(_proc)
    lines = ["Figure 2 per-core tile census:"]
    counts = {"GT": 1, "RT": len(proc.rts), "DT": len(proc.dts),
              "ET": len(proc.ets), "IT": len(proc.icache)}
    for k, v in counts.items():
        lines.append(f"  {k} x {v}")
    save(results_dir, "fig2_topology.txt", "\n".join(lines))
    assert counts == {"GT": 1, "RT": 4, "DT": 4, "ET": 16, "IT": 5}
    assert proc.config.window_size == 1024


def test_fig3_opn_placement(benchmark):
    proc = benchmark(_proc)
    # Figure 3: GT top-left, RTs across the top, DTs down the left side,
    # ETs in the 4x4 interior — all OPN coordinates distinct
    coords = {proc.GT_COORD}
    assert proc.GT_COORD == (0, 0)
    for b, rt in enumerate(proc.rts):
        assert rt.coord == (0, 1 + b)
        coords.add(rt.coord)
    for d, dt in enumerate(proc.dts):
        assert dt.coord == (1 + d, 0)
        coords.add(dt.coord)
    for e, et in enumerate(proc.ets):
        assert et.coord == (1 + e // 4, 1 + e % 4)
        coords.add(et.coord)
    assert len(coords) == 25


def test_opn_uniform_random_throughput(benchmark, results_dir):
    def run():
        rng = random.Random(42)
        mesh = WormholeMesh(5, 5, queue_depth=2)
        nodes = [(r, c) for r in range(5) for c in range(5)]
        sent = delivered = 0
        pending = []
        for cycle in range(400):
            for _ in range(4):  # offered load: 4 packets/cycle
                src, dst = rng.sample(nodes, 2)
                pending.append((src, Packet(src=src, dest=dst)))
            pending = [(s, p) for s, p in pending if not mesh.inject(s, p)]
            sent += 1
            mesh.step()
            for node in nodes:
                delivered += len(mesh.take_delivered(node))
        return mesh, delivered

    mesh, delivered = benchmark(run)
    avg_queue = mesh.stats.total_queue_cycles / max(1, mesh.stats.delivered)
    text = (f"OPN uniform-random traffic: delivered {delivered} packets in "
            f"400 cycles\n  avg hops "
            f"{mesh.stats.total_hops / max(1, mesh.stats.delivered):.2f}, "
            f"avg contention {avg_queue:.2f} cycles/packet")
    save(results_dir, "fig3_opn_throughput.txt", text)
    assert delivered > 800
