"""Spatial instruction scheduler: map block instructions onto the ET grid.

TRIPS performance hinges on placement (Section 5.4 attributes up to 34% of
the critical path to OPN hops), so the compiler must put producers next to
consumers.  This is a greedy SPS-style list scheduler:

* process instructions in dataflow topological order, critical-path first,
* for each, score all execution tiles with free reservation stations by
  the OPN hop distance from already-placed producers plus affinity terms
  for where the result must ultimately travel (register tiles for write
  targets, the global tile for branches, the data-tile column for memory
  operations), plus a light load-balancing penalty,
* assign the best tile; the reservation-station index then fixes the body
  slot (slot = station*16 + tile).

Coordinates use the 5x5 OPN grid of Figure 3: GT at (0,0), RTs across the
top row, DTs down the left column, ETs in the 4x4 interior.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..isa import reg_bank
from .cfg import CompileError

NUM_ETS = 16
STATIONS_PER_ET = 8

GT_POS = (0, 0)


def rt_pos(bank: int) -> Tuple[int, int]:
    return (0, 1 + bank)


def et_pos(et: int) -> Tuple[int, int]:
    return (1 + et // 4, 1 + et % 4)


def dist(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


#: grid position -> its OPN hop distance to each of the 16 ETs, in ET order
HOPS: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (row, col): tuple(dist((row, col), et_pos(et)) for et in range(NUM_ETS))
    for row in range(5) for col in range(5)}
_NO_HOPS = (0,) * NUM_ETS
_ET_POS = tuple(et_pos(et) for et in range(NUM_ETS))
_FULL = float("inf")


def _hop_sums(positions) -> Tuple[int, ...]:
    """Per ET, the total hop distance from ``positions`` to it."""
    rows = [HOPS[p] for p in positions]
    if len(rows) > 1:
        return tuple(map(sum, zip(*rows)))
    return rows[0] if rows else _NO_HOPS


class Scheduler:
    """Greedy placement of one block's body nodes."""

    #: relative weight of tile fullness vs. hop distance.
    OCCUPANCY_WEIGHT = 0.3
    #: weight of sink affinity (writes/branches/memory) vs. producer hops.
    SINK_WEIGHT = 0.7

    def __init__(self) -> None:
        self.station_count = [0] * NUM_ETS

    def place(self, nodes: Sequence, producers_of, sinks_of) -> Dict[int, int]:
        """Assign a body slot to every node; returns uid -> slot.

        ``producers_of(node)`` yields (position or None) for each data/pred
        producer (None if that producer is itself unplaced or positionless).
        ``sinks_of(node)`` yields grid positions the result must reach.
        """
        order = self._topo_order(nodes)
        slots: Dict[int, int] = {}
        positions: Dict[int, Tuple[int, int]] = {}
        counts = self.station_count
        sink_weight = self.SINK_WEIGHT
        occupancy_weight = self.OCCUPANCY_WEIGHT
        for node in order:
            # cost per ET: float(producer hops), then + sink hops, then +
            # occupancy, in that order; the first cheapest ET wins a tie
            prod = _hop_sums([p for p in producers_of(node, positions)
                              if p is not None])
            sink = _hop_sums(sinks_of(node))
            costs = [float(hops) + sink_weight * sink_hops
                     + occupancy_weight * count
                     if count < STATIONS_PER_ET else _FULL
                     for hops, sink_hops, count in zip(prod, sink, counts)]
            best_cost = min(costs)
            if best_cost == _FULL:
                raise CompileError("block exceeds 128 reservation stations")
            best_et = costs.index(best_cost)
            station = counts[best_et]
            counts[best_et] += 1
            slots[node.uid] = station * NUM_ETS + best_et
            positions[node.uid] = _ET_POS[best_et]
        return slots

    @staticmethod
    def _topo_order(nodes: Sequence) -> List:
        """Topological order by depth, critical (tallest) subtrees first."""
        node_ids = {n.uid for n in nodes}
        depth: Dict[int, int] = {}

        def compute_depth(node) -> int:
            if node.uid in depth:
                return depth[node.uid]
            depth[node.uid] = 0  # breaks cycles defensively; DAG expected
            parents = [p for p in node.inputs]
            if node.pred is not None:
                parents.append(node.pred[0])
            d = 0
            for parent in parents:
                for real in _expand(parent):
                    if real.uid in node_ids:
                        d = max(d, compute_depth(real) + 1)
            depth[node.uid] = d
            return d

        for node in nodes:
            compute_depth(node)
        # Height (distance to furthest consumer) approximated by reverse
        # accumulation over the same edges.
        height: Dict[int, int] = {n.uid: 0 for n in nodes}
        for node in sorted(nodes, key=lambda n: -depth[n.uid]):
            parents = [p for p in node.inputs]
            if node.pred is not None:
                parents.append(node.pred[0])
            for parent in parents:
                for real in _expand(parent):
                    if real.uid in height:
                        height[real.uid] = max(height[real.uid],
                                               height[node.uid] + 1)
        return sorted(nodes, key=lambda n: (depth[n.uid], -height[n.uid],
                                            n.uid))


def _expand(node):
    if node.kind != "merge":
        return (node,)
    out = []
    for inp in node.inputs:
        out.extend(_expand(inp))
    return out
