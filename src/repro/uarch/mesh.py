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
routing decisions come from tables precomputed at construction time
(``(node, dest) -> out port`` and ``(node, out port) -> (neighbor, entry
port)``).  The arbitration, timing and delivery order are cycle-for-cycle
identical to a full scan: routers are visited in row-major coordinate
order, which is exactly the order the full scan used, and quiescent
routers contribute nothing to a scan by construction.
``tests/uarch/test_mesh_reference.py`` checks this against a full-scan
reference model under randomized traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

Coord = Tuple[int, int]   # (row, col)


@dataclass(slots=True)
class Packet:
    """One network packet (an operand, a control message, a cache line)."""

    src: Coord
    dest: Coord
    payload: object = None
    flits: int = 1
    vc: int = 0
    created: int = -1        # cycle handed to the network (or queued)
    injected: int = -1       # cycle accepted into the source router
    delivered: int = -1      # cycle ejected at the destination
    hops: int = 0
    qcycles: int = -1        # contention cycles, filled in at delivery

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


class _Port:
    """One input FIFO (per VC) feeding a router."""

    __slots__ = ("queues", "depth")

    def __init__(self, vcs: int, depth: int):
        self.queues: List[Deque[Packet]] = [deque() for _ in range(vcs)]
        self.depth = depth

    def has_space(self, vc: int) -> bool:
        return len(self.queues[vc]) < self.depth


# port indices
_LOCAL, _NORTH, _SOUTH, _EAST, _WEST = range(5)
_NUM_PORTS = 5
#: input port of the neighbour that a move through each output port fills
_ENTRY = {_NORTH: _SOUTH, _SOUTH: _NORTH, _EAST: _WEST, _WEST: _EAST}


@dataclass
class MeshStats:
    injected: int = 0
    delivered: int = 0
    total_hops: int = 0
    total_queue_cycles: int = 0
    link_busy_cycles: int = 0
    inject_stalls: int = 0


class WormholeMesh:
    """A rows x cols mesh of 5-ported routers."""

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
        # ports[node][port] -> _Port
        self.ports: Dict[Coord, List[_Port]] = {
            node: [_Port(vcs, queue_depth) for _ in range(_NUM_PORTS)]
            for node in coords}
        # precomputed (node, dest) -> out port and
        # (node, out port) -> (neighbor, its entry port)
        self._route: Dict[Coord, Dict[Coord, int]] = {}
        self._hop: Dict[Coord, List[Optional[Tuple[Coord, int]]]] = {}
        for node in coords:
            self._route[node] = {dest: self._next_hop(node, dest)
                                 for dest in coords}
            hops: List[Optional[Tuple[Coord, int]]] = [None] * _NUM_PORTS
            for out in (_NORTH, _SOUTH, _EAST, _WEST):
                neighbor = self._neighbor(node, out)
                if 0 <= neighbor[0] < rows and 0 <= neighbor[1] < cols:
                    hops[out] = (neighbor, _ENTRY[out])
            self._hop[node] = hops
        # flat per-node queue aliases for the arbiter's hot loops (the
        # deque objects are created once and only ever mutated, so the
        # aliases stay valid): VC-0 queues for the single-VC fast path,
        # and all queues in port-major order for the general scan
        self._q0: Dict[Coord, Tuple[Deque[Packet], ...]] = {
            node: tuple(port.queues[0] for port in self.ports[node])
            for node in coords}
        self._qall: Dict[Coord, Tuple[Deque[Packet], ...]] = {
            node: tuple(q for port in self.ports[node] for q in port.queues)
            for node in coords}
        # output serialization: per node, per out port, busy-until per lane
        self._busy: Dict[Coord, List[List[int]]] = {
            node: [[0] * lanes for _ in range(_NUM_PORTS)] for node in coords}
        self._rr: Dict[Coord, List[int]] = {
            node: [0] * _NUM_PORTS for node in coords}
        self._delivery: Dict[Coord, List[Packet]] = {
            node: [] for node in coords}
        # one-lookup arbiter context: everything the per-node grant loop
        # needs, fetched with a single coord hash instead of five
        self._ctx: Dict[Coord, tuple] = {
            node: (self._q0[node], self._qall[node], self._route[node],
                   self._busy[node], self._rr[node], self._hop[node])
            for node in coords}
        #: single-VC single-lane meshes (the OPN) take a specialized
        #: arbitration loop on the fast path
        self._simple = vcs == 1 and lanes == 1
        self._depth = queue_depth
        #: nodes holding at least one queued packet (the active set) and
        #: their total queued-packet counts
        self._active: Set[Coord] = set()
        self._occupancy: Dict[Coord, int] = {node: 0 for node in coords}
        #: nodes with packets awaiting :meth:`take_delivered`
        self.delivery_pending: Set[Coord] = set()
        self.stats = MeshStats()
        #: optional :class:`repro.telemetry.recorder.MeshTelemetry` sink
        self.telemetry = None

    # ------------------------------------------------------------------
    def inject(self, node: Coord, packet: Packet) -> bool:
        """Offer a packet to ``node``'s local input; False if it is full."""
        port = self.ports[node][_LOCAL]
        if not port.has_space(packet.vc):
            self.stats.inject_stalls += 1
            return False
        packet.injected = self.cycle_count
        if packet.created < 0:
            packet.created = self.cycle_count
        port.queues[packet.vc].append(packet)
        self._occupancy[node] += 1
        self._active.add(node)
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
        return not self._active and not self.delivery_pending

    def fast_forward(self, cycle: int) -> None:
        """Advance the clock over a stretch with no queued packets."""
        self.cycle_count = cycle

    # ------------------------------------------------------------------
    def _next_hop(self, at: Coord, dest: Coord) -> int:
        row, col = at
        if row != dest[0]:
            return _SOUTH if dest[0] > row else _NORTH
        if col != dest[1]:
            return _EAST if dest[1] > col else _WEST
        return _LOCAL   # at destination: eject

    @staticmethod
    def _neighbor(node: Coord, out_port: int) -> Coord:
        row, col = node
        return {(_NORTH): (row - 1, col), _SOUTH: (row + 1, col),
                _EAST: (row, col + 1), _WEST: (row, col - 1)}[out_port]

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network one cycle (active routers only)."""
        now = self.cycle_count
        active = self._active
        if self.active_set:
            if not active:
                self.cycle_count = now + 1
                return
            # row-major visit order == the full scan's order (a one-node
            # set needs no sort)
            nodes = tuple(active) if len(active) == 1 else sorted(active)
        else:
            nodes = self._coords
        ports = self.ports
        stats = self.stats
        occupancy = self._occupancy
        moves: List[Tuple[Coord, Deque[Packet], Packet, Coord, int]] = []
        append_move = moves.append
        granted_queues: Set[int] = set()
        use_single = self.active_set
        use_simple = use_single and self._simple
        depth = self._depth
        ctx_map = self._ctx
        q0_map = self._q0
        lbc = 0                     # link_busy_cycles, folded in once below
        for node in nodes:
            q0s, qall, route, node_busy, node_rr, node_hop = ctx_map[node]
            if use_simple and occupancy[node] > 1:
                # Single-VC, single-lane router (the OPN): each queue
                # requests exactly one out port and each out port has one
                # lane, so no queue can be granted twice — the
                # granted_queues bookkeeping and the lane loop of the
                # general arbiter below provably never fire.
                reqs = [(route[q[0].dest], q) for q in q0s if q]
                if len(reqs) == 1:
                    # every packet sits in one input FIFO: a lone request,
                    # granted unless the link is busy or downstream full
                    # (rr := (rr + 0 + 1) % 1 == 0 on a grant)
                    out, queue = reqs[0]
                    busy = node_busy[out]
                    if busy[0] <= now:
                        packet = queue[0]
                        if out == _LOCAL:
                            append_move((node, queue, packet, node, -1))
                        else:
                            neighbor, entry = node_hop[out]
                            if neighbor != packet.dest and \
                                    len(q0_map[neighbor][entry]) >= depth:
                                continue
                            append_move((node, queue, packet, neighbor,
                                         entry))
                        busy[0] = now + packet.flits
                        lbc += packet.flits
                        node_rr[out] = 0
                    continue
                requests_s: Dict[int, List[Deque[Packet]]] = {}
                for out, queue in reqs:
                    bucket = requests_s.get(out)
                    if bucket is None:
                        requests_s[out] = [queue]
                    else:
                        bucket.append(queue)
                for out, queues in requests_s.items():
                    busy = node_busy[out]
                    if busy[0] > now:
                        continue
                    start = node_rr[out]
                    nq = len(queues)
                    for k in range(nq):
                        queue = queues[(start + k) % nq]
                        packet = queue[0]
                        if out == _LOCAL:
                            append_move((node, queue, packet, node, -1))
                        else:
                            neighbor, entry = node_hop[out]
                            if neighbor != packet.dest and \
                                    len(q0_map[neighbor][entry]) >= depth:
                                continue
                            append_move((node, queue, packet, neighbor,
                                         entry))
                        busy[0] = now + packet.flits
                        lbc += packet.flits
                        node_rr[out] = (start + k + 1) % nq
                        break
                continue
            if use_single and occupancy[node] == 1:
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
                        append_move((node, queue, packet, node, -1))
                    else:
                        neighbor, entry = node_hop[out]
                        if neighbor != packet.dest and \
                                not ports[neighbor][entry].has_space(
                                    packet.vc):
                            break       # blocked on every lane alike
                        append_move((node, queue, packet, neighbor, entry))
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
                            append_move((node, queue, packet, node, -1))
                        else:
                            neighbor, entry = node_hop[out]
                            if neighbor != packet.dest and \
                                    not ports[neighbor][entry].has_space(
                                        packet.vc):
                                continue
                            append_move((node, queue, packet, neighbor,
                                         entry))
                        lanes[lane_idx] = now + packet.flits
                        lbc += packet.flits
                        node_rr[out] = (start + k + 1) % nq
                        granted_queues.add(id(queue))
                        granted += 1
                        break
        stats.link_busy_cycles += lbc
        delivery = self._delivery
        delivery_pending = self.delivery_pending
        n_delivered = total_hops = total_qc = 0
        for node, queue, packet, target, entry in moves:
            queue.popleft()
            occupancy[node] -= 1
            if not occupancy[node]:
                active.discard(node)
            if entry >= 0:
                packet.hops += 1
            if entry < 0 or target == packet.dest:
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
                ports[target][entry].queues[packet.vc].append(packet)
                occupancy[target] += 1
                active.add(target)
        if n_delivered:
            stats.delivered += n_delivered
            stats.total_hops += total_hops
            stats.total_queue_cycles += total_qc
        tel = self.telemetry
        if tel is not None and moves:
            for node, _queue, packet, target, entry in moves:
                if entry < 0:
                    direction = "eject"
                else:
                    dr = target[0] - node[0]
                    direction = ("S" if dr > 0 else "N") if dr else \
                        ("E" if target[1] > node[1] else "W")
                tel.note_link(node, direction, packet.flits)
                tel.note_depth(node, now + 1, occupancy[node])
                if entry >= 0 and target != packet.dest:
                    tel.note_depth(target, now + 1, occupancy[target])
        self.cycle_count = now + 1
