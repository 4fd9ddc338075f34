"""Generic cycle-stepped wormhole-routed 2D mesh.

Used for the operand network (5x5, single-flit operand packets, Section 3)
and the on-chip network (4x10, multi-flit cache-line packets, Section 3.6).

Model: dimension-order (row-first) routing, per-input-port FIFOs of
configurable depth, round-robin output arbitration, and packet-granularity
wormhole approximation — a packet of F flits holds its output link for F
cycles (serialization), which captures wormhole bandwidth behaviour without
per-flit state.  Multiple virtual channels are modelled as additional,
independently-arbitrated input FIFOs, which removes head-of-line blocking
between traffic classes the way VCs do.

Every packet records its injection time, hop count and queueing delay so
the critical-path analyzer can split operand latency into the paper's
"OPN hops" and "OPN contention" categories.

Fast path: ``step()`` only visits *active* routers — those with at least
one occupied input queue — instead of scanning the whole grid, and all
routing decisions come from tables built once per mesh shape
(``(node, dest) -> out port`` and ``(node, out port) -> (neighbor, entry
port)``) and shared by every mesh of that shape.  A single-VC,
single-lane mesh (the OPN) steps with its own arbiter, which drops the
bookkeeping only several VCs or lanes need.  The arbitration, timing and
delivery order are cycle-for-cycle identical to a full scan: routers are
visited in row-major coordinate order, which is exactly the order the
full scan used, and quiescent routers contribute nothing to a scan by
construction.  ``tests/uarch/test_mesh_reference.py`` checks this
against a full-scan reference model under randomized traffic.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

Coord = Tuple[int, int]   # (row, col)


class Packet:
    """One network packet (an operand, a control message, a cache line)."""

    __slots__ = ("src", "dest", "payload", "flits", "vc", "created",
                 "injected", "delivered", "hops", "qcycles")

    def __init__(self, src: Coord, dest: Coord, payload: object = None,
                 flits: int = 1, vc: int = 0):
        self.src = src
        self.dest = dest
        self.payload = payload
        self.flits = flits
        self.vc = vc
        self.created = -1        # cycle handed to the network (or queued)
        self.injected = -1       # cycle accepted into the source router
        self.delivered = -1      # cycle ejected at the destination
        self.hops = 0
        self.qcycles = -1        # contention cycles, filled in at delivery

    @property
    def min_latency(self) -> int:
        return abs(self.src[0] - self.dest[0]) + abs(self.src[1] - self.dest[1])

    @property
    def queue_cycles(self) -> int:
        """Cycles lost to contention (beyond pure hop latency)."""
        if self.qcycles >= 0:
            return self.qcycles
        if self.delivered < 0 or self.injected < 0:
            return 0
        return max(0, (self.delivered - self.injected) - self.min_latency)


# port indices
_LOCAL, _NORTH, _SOUTH, _EAST, _WEST = range(5)
_NUM_PORTS = 5
#: input port of the neighbour that a move through each output port fills
_ENTRY = {_NORTH: _SOUTH, _SOUTH: _NORTH, _EAST: _WEST, _WEST: _EAST}
#: (row, col) step of a move through each output port
_STEP = {_NORTH: (-1, 0), _SOUTH: (1, 0), _EAST: (0, 1), _WEST: (0, -1)}


def _next_hop(at: Coord, dest: Coord) -> int:
    """Dimension-order (row-first) output port from ``at`` toward
    ``dest``; ``_LOCAL`` ejects at the destination."""
    row, col = at
    if row != dest[0]:
        return _SOUTH if dest[0] > row else _NORTH
    if col != dest[1]:
        return _EAST if dest[1] > col else _WEST
    return _LOCAL


@functools.lru_cache(maxsize=None)
def _routing_tables(rows: int, cols: int):
    """``(route, hop)`` of a rows x cols mesh: ``route[node][dest]`` is
    the out port, ``hop[node][out]`` the ``(neighbour, its entry port)``
    a move through it reaches (None off the edge).  Built once per shape
    and shared read-only by every mesh of that shape."""
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    route: Dict[Coord, Dict[Coord, int]] = {}
    hop: Dict[Coord, Tuple[Optional[Tuple[Coord, int]], ...]] = {}
    for node in coords:
        route[node] = {dest: _next_hop(node, dest) for dest in coords}
        hops: List[Optional[Tuple[Coord, int]]] = [None] * _NUM_PORTS
        for out, (dr, dc) in _STEP.items():
            neighbor = (node[0] + dr, node[1] + dc)
            if 0 <= neighbor[0] < rows and 0 <= neighbor[1] < cols:
                hops[out] = (neighbor, _ENTRY[out])
        hop[node] = tuple(hops)
    return route, hop


@dataclass
class MeshStats:
    injected: int = 0
    delivered: int = 0
    total_hops: int = 0
    total_queue_cycles: int = 0
    link_busy_cycles: int = 0
    inject_stalls: int = 0


class WormholeMesh:
    """A rows x cols mesh of 5-ported routers.

    An active-set mesh with one VC and one lane per output port (the
    OPN's shape) is built as :class:`_SingleLaneMesh`, whose ``step`` is
    :meth:`_step_single`.  A class, not a bound method stored on the
    instance: that would be a reference cycle, and the mesh — with every
    core that owns one — could only be freed by a full collection.
    """

    def __new__(cls, rows: int, cols: int, vcs: int = 1,
                queue_depth: int = 2, lanes: int = 1,
                active_set: bool = True):
        if cls is WormholeMesh and active_set and vcs == 1 and lanes == 1:
            cls = _SingleLaneMesh
        return super().__new__(cls)

    def __init__(self, rows: int, cols: int, vcs: int = 1,
                 queue_depth: int = 2, lanes: int = 1,
                 active_set: bool = True):
        self.rows = rows
        self.cols = cols
        self.vcs = vcs
        self.lanes = lanes
        #: False = the escape-hatch engine: scan every router every cycle
        #: (the original algorithm), for timing cross-validation
        self.active_set = active_set
        self.cycle_count = 0
        coords = [(r, c) for r in range(rows) for c in range(cols)]
        self._coords = coords
        # ports[node][port][vc] -> the input FIFO
        self.ports: Dict[Coord, List[List[Deque[Packet]]]] = {
            node: [[deque() for _ in range(vcs)] for _ in range(_NUM_PORTS)]
            for node in coords}
        self._route, self._hop = _routing_tables(rows, cols)
        # output serialization: per node, per out port, busy-until per lane
        self._busy: Dict[Coord, List[List[int]]] = {
            node: [[0] * lanes for _ in range(_NUM_PORTS)] for node in coords}
        self._rr: Dict[Coord, List[int]] = {
            node: [0] * _NUM_PORTS for node in coords}
        self._delivery: Dict[Coord, List[Packet]] = {
            node: [] for node in coords}
        # flat per-node queue aliases for the arbiters' hot loops (the
        # deque objects are created once and only ever mutated, so the
        # aliases stay valid): VC-0 queues and, per out port, the VC-0
        # FIFO a move through it fills (None for the local port and off
        # the edge) for the single-VC step; all queues in port-major
        # order for the general one
        q0 = {node: tuple(port[0] for port in self.ports[node])
              for node in coords}
        # one-lookup arbiter context: everything the per-node grant loop
        # needs, fetched with a single coord hash instead of six
        self._ctx: Dict[Coord, tuple] = {
            node: (q0[node],
                   tuple(q for port in self.ports[node] for q in port),
                   self._route[node], self._busy[node], self._rr[node],
                   self._hop[node],
                   tuple(None if hop is None else q0[hop[0]][hop[1]]
                         for hop in self._hop[node]))
            for node in coords}
        self._depth = queue_depth
        #: nodes holding at least one queued packet (the active set) and
        #: their total queued-packet counts
        self.active: Set[Coord] = set()
        self._occupancy: Dict[Coord, int] = {node: 0 for node in coords}
        #: nodes with packets awaiting :meth:`take_delivered`
        self.delivery_pending: Set[Coord] = set()
        self.stats = MeshStats()
        #: optional :class:`repro.telemetry.recorder.MeshTelemetry` sink
        self.telemetry = None

    # ------------------------------------------------------------------
    def inject(self, node: Coord, packet: Packet) -> bool:
        """Offer a packet to ``node``'s local input; False if it is full."""
        queue = self.ports[node][_LOCAL][packet.vc]
        if len(queue) >= self._depth:
            self.stats.inject_stalls += 1
            return False
        packet.injected = self.cycle_count
        if packet.created < 0:
            packet.created = self.cycle_count
        queue.append(packet)
        self._occupancy[node] += 1
        self.active.add(node)
        self.stats.injected += 1
        if self.telemetry is not None:
            self.telemetry.note_depth(node, self.cycle_count,
                                      self._occupancy[node])
        return True

    def take_delivered(self, node: Coord) -> List[Packet]:
        """Packets ejected at ``node`` since the last call."""
        out = self._delivery[node]
        if out:
            self._delivery[node] = []
            self.delivery_pending.discard(node)
        return out

    def is_idle(self) -> bool:
        """True when no packet is queued or awaiting pickup.

        An idle mesh's ``step()`` is a pure cycle-count increment, which is
        what lets the processor fast-forward over quiescent stretches
        (busy output lanes only ever gate *queued* packets, so they carry
        no future effect once the mesh drains).
        """
        return not self.active and not self.delivery_pending

    def fast_forward(self, cycle: int) -> None:
        """Advance the clock over a stretch with no queued packets."""
        self.cycle_count = cycle

    # ------------------------------------------------------------------
    def _step_single(self) -> None:
        """:meth:`step` of an active-set mesh with one VC and one lane per
        output port (the OPN).

        Each input is one FIFO whose head requests exactly one out port,
        and each out port has one lane, so no queue can be granted twice:
        the general arbiter's granted-queue bookkeeping and lane loop never
        fire.  What is left makes the same grants in the same order —
        routers in row-major order, out ports in order of first request,
        round-robin among a port's requesters — including the busy-link
        check that serializes multi-flit packets.
        """
        now = self.cycle_count
        active = self.active
        if not active:
            self.cycle_count = now + 1
            return
        # row-major visit order (a one-node set needs no sort)
        nodes = tuple(active) if len(active) == 1 else sorted(active)
        occupancy = self._occupancy
        ctx_map = self._ctx
        depth = self._depth
        moves: List[tuple] = []
        append_move = moves.append
        lbc = 0                     # link_busy_cycles, folded in once
        for node in nodes:
            q0s, _qall, route, node_busy, node_rr, node_hop, node_down = \
                ctx_map[node]
            if occupancy[node] == 1:
                for queue in q0s:
                    if queue:
                        break
                requests = None
                out = route[queue[0].dest]
            else:
                requests = [(route[q[0].dest], q) for q in q0s if q]
                if len(requests) == 1:
                    (out, queue), = requests
                    requests = None
            if requests is None:
                # one requesting FIFO: granted unless its link is busy or
                # the downstream FIFO is full (rr := (rr + 0 + 1) % 1)
                busy = node_busy[out]
                if busy[0] > now:
                    continue
                packet = queue[0]
                if out == _LOCAL:
                    append_move((node, queue, packet, node, None))
                else:
                    neighbor = node_hop[out][0]
                    if neighbor == packet.dest:
                        append_move((node, queue, packet, neighbor, None))
                    else:
                        into = node_down[out]
                        if len(into) >= depth:
                            continue
                        append_move((node, queue, packet, neighbor, into))
                busy[0] = now + packet.flits
                lbc += packet.flits
                node_rr[out] = 0
                continue
            by_out: Dict[int, List[Deque[Packet]]] = {}
            for out, queue in requests:
                bucket = by_out.get(out)
                if bucket is None:
                    by_out[out] = [queue]
                else:
                    bucket.append(queue)
            for out, queues in by_out.items():
                busy = node_busy[out]
                if busy[0] > now:
                    continue
                start = node_rr[out]
                nq = len(queues)
                for k in range(nq):
                    queue = queues[(start + k) % nq]
                    packet = queue[0]
                    if out == _LOCAL:
                        append_move((node, queue, packet, node, None))
                    else:
                        neighbor = node_hop[out][0]
                        if neighbor == packet.dest:
                            append_move((node, queue, packet, neighbor,
                                         None))
                        else:
                            into = node_down[out]
                            if len(into) >= depth:
                                continue
                            append_move((node, queue, packet, neighbor,
                                         into))
                    busy[0] = now + packet.flits
                    lbc += packet.flits
                    node_rr[out] = (start + k + 1) % nq
                    break
        self._advance(now, moves, lbc)

    def step(self) -> None:
        """Advance the network one cycle: the active routers only, or —
        with ``active_set=False`` — every router, the full scan.  Meshes
        of the OPN's shape step through :meth:`_step_single` instead."""
        now = self.cycle_count
        active = self.active
        lone_shortcut = self.active_set
        if lone_shortcut:
            if not active:
                self.cycle_count = now + 1
                return
            # row-major visit order == the full scan's order (a one-node
            # set needs no sort)
            nodes = tuple(active) if len(active) == 1 else sorted(active)
        else:
            nodes = self._coords
        ports = self.ports
        occupancy = self._occupancy
        moves: List[tuple] = []
        append_move = moves.append
        granted_queues: Set[int] = set()
        depth = self._depth
        ctx_map = self._ctx
        lbc = 0                     # link_busy_cycles, folded in once
        for node in nodes:
            _q0s, qall, route, node_busy, node_rr, node_hop, _down = \
                ctx_map[node]
            if lone_shortcut and occupancy[node] == 1:
                # Lone packet at this router: the arbitration below reduces
                # to "grant the head packet the first free lane of its out
                # port, unless the downstream FIFO is full" — same result,
                # no request-dict construction.
                for queue in qall:
                    if queue:
                        break
                packet = queue[0]
                out = route[packet.dest]
                lanes = node_busy[out]
                for lane_idx, busy_until in enumerate(lanes):
                    if busy_until > now:
                        continue
                    if out == _LOCAL:
                        append_move((node, queue, packet, node, None))
                    else:
                        neighbor, entry = node_hop[out]
                        if neighbor == packet.dest:
                            into = None
                        else:
                            into = ports[neighbor][entry][packet.vc]
                            if len(into) >= depth:
                                break   # blocked on every lane alike
                        append_move((node, queue, packet, neighbor, into))
                    lanes[lane_idx] = now + packet.flits
                    lbc += packet.flits
                    node_rr[out] = 0   # == (rr + 1) % 1
                    break
                continue
            # Gather head packets per output request.
            requests: Dict[int, List[Deque[Packet]]] = {}
            for queue in qall:
                if queue:
                    out = route[queue[0].dest]
                    bucket = requests.get(out)
                    if bucket is None:
                        requests[out] = [queue]
                    else:
                        bucket.append(queue)
            for out, queues in requests.items():
                lanes = node_busy[out]
                start = node_rr[out]
                nq = len(queues)
                granted = 0
                for lane_idx, busy_until in enumerate(lanes):
                    if busy_until > now or granted >= nq:
                        continue
                    # round-robin over requesting queues
                    for k in range(nq):
                        queue = queues[(start + k) % nq]
                        if not queue or id(queue) in granted_queues:
                            continue
                        packet = queue[0]
                        if out == _LOCAL:
                            append_move((node, queue, packet, node, None))
                        else:
                            neighbor, entry = node_hop[out]
                            if neighbor == packet.dest:
                                into = None
                            else:
                                into = ports[neighbor][entry][packet.vc]
                                if len(into) >= depth:
                                    continue
                            append_move((node, queue, packet, neighbor,
                                         into))
                        lanes[lane_idx] = now + packet.flits
                        lbc += packet.flits
                        node_rr[out] = (start + k + 1) % nq
                        granted_queues.add(id(queue))
                        granted += 1
                        break
        self._advance(now, moves, lbc)

    def _advance(self, now: int, moves: list, lbc: int) -> None:
        """Apply one cycle's granted moves and end the cycle.  Every grant
        was decided against the queues as they stood at the start of the
        cycle; a move is ``(node, queue, packet, target, into)``, where
        ``target`` is ``node`` itself for a local ejection and ``into`` is
        the next router's FIFO, or None when the move delivers."""
        self.stats.link_busy_cycles += lbc
        occupancy = self._occupancy
        active = self.active
        delivery = self._delivery
        delivery_pending = self.delivery_pending
        n_delivered = total_hops = total_qc = 0
        for node, queue, packet, target, into in moves:
            queue.popleft()
            occupancy[node] -= 1
            if not occupancy[node]:
                active.discard(node)
            if target is not node:
                packet.hops += 1
            if into is None:
                # Arrival at the destination router delivers in the same
                # cycle as the final hop: the control header launched one
                # cycle ahead (Section 3) already did wakeup, so ejection
                # adds no extra cycle.
                packet.delivered = now + 1
                src = packet.src
                dest = packet.dest
                qc = (now + 1 - packet.injected) \
                    - abs(src[0] - dest[0]) - abs(src[1] - dest[1])
                packet.qcycles = qc if qc > 0 else 0
                delivery[target].append(packet)
                delivery_pending.add(target)
                n_delivered += 1
                total_hops += packet.hops
                total_qc += packet.qcycles
            else:
                into.append(packet)
                occupancy[target] += 1
                active.add(target)
        if n_delivered:
            stats = self.stats
            stats.delivered += n_delivered
            stats.total_hops += total_hops
            stats.total_queue_cycles += total_qc
        tel = self.telemetry
        if tel is not None and moves:
            for node, _queue, packet, target, into in moves:
                if target is node:
                    direction = "eject"
                else:
                    dr = target[0] - node[0]
                    direction = ("S" if dr > 0 else "N") if dr else \
                        ("E" if target[1] > node[1] else "W")
                tel.note_link(node, direction, packet.flits)
                tel.note_depth(node, now + 1, occupancy[node])
                if into is not None:
                    tel.note_depth(target, now + 1, occupancy[target])
        self.cycle_count = now + 1


class _SingleLaneMesh(WormholeMesh):
    """An active-set mesh with one VC and one lane per output port (the
    OPN's shape): it steps with its own arbiter."""

    step = WormholeMesh._step_single
