"""The secondary memory system: OCN + MTs + NTs + I/O clients (Section 3.6).

Topology: a 4x10 wormhole-routed mesh with 16-byte links and four virtual
channels.  The 16 memory tiles occupy the two middle columns; the network
tiles on the outer columns are the translation agents where processors and
I/O controllers attach.  Aligning the OCN with the DTs gives each IT/DT
pair a private port into the memory system.  The model keeps the eight
network tiles of the processor ports, the only ones requests route
through; the bank geometry lives in :mod:`repro.mem.mt`, and the SDRAM
latency and engine choice come from the core's
:class:`~repro.uarch.config.TripsConfig`.

Clients call :meth:`SecondaryMemory.request`; responses come back through
:meth:`take_responses` after the request packet crosses the OCN, the home
bank (and, on a miss, an SDRAM controller) services it, and the reply —
one header flit plus four 16-byte data flits for a 64-byte line — crosses
back.

The three memory configurations of Section 3.6 are reproduced by
reprogramming NT tables and MT mode bits: ``shared_l2`` (one 1MB cache),
``split_l2`` (two independent 512KB caches), ``scratchpad`` (1MB on-chip
physical memory, no L2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..uarch.config import PROTOTYPE, TripsConfig
from ..uarch.mesh import Packet, WormholeMesh
from .backing import BackingStore
from .mt import BANK_LATENCY, LINE_BYTES, MemoryTile
from .nt import NetworkTile, RouteEntry

ROWS, COLS = 10, 4
OCN_VCS = 4
FLIT_BYTES = 16
DATA_FLITS = LINE_BYTES // FLIT_BYTES  # 4 data flits per line


@dataclass
class _Request:
    port: int
    address: int
    is_write: bool
    meta: object
    issued: int


class SecondaryMemory:
    """The full 1MB NUCA array, its processor ports and programmed DMA."""

    #: processor-port NT coordinates: 8 per side column — each IT/DT pair
    #: of each processor gets a private port (Section 3.6): processor 0
    #: owns ports 0-3, processor 1 ports 4-7.
    PROC_PORTS = [(r, 3) for r in range(8)]

    def __init__(self, mode: str = "shared_l2",
                 config: TripsConfig = PROTOTYPE,
                 backing: Optional[BackingStore] = None):
        """``mode`` is one of Section 3.6's configurations; ``config``
        supplies ``dram_cycles`` and ``fast_path`` (False selects the
        full-scan OCN router loop, like the core's)."""
        self.config = config
        self.backing = backing if backing is not None else BackingStore()
        self.ocn = WormholeMesh(ROWS, COLS, vcs=OCN_VCS, queue_depth=2,
                                active_set=config.fast_path)
        # 16 MTs in the two middle columns
        self.mt_coords = [(r, c) for c in (1, 2) for r in range(8)]
        self.mts = [MemoryTile(i) for i in range(16)]
        # one NT per processor port: the translation agent its requests
        # route through
        self.nts = [NetworkTile(i) for i in range(len(self.PROC_PORTS))]
        self._responses: Dict[int, List[object]] = {}
        self._resp_count = 0      # total queued responses across ports
        # min-heap of (done_at, seq, request, mt index); the seq tiebreak
        # preserves issue order among same-cycle completions, which is all
        # the fast-forward logic ever lets fall due together
        self._pending_dram: List[Tuple[int, int, _Request, int]] = []
        self._dram_seq = 0
        self._parked: List = []
        self.cycle = 0
        self.stats = {"requests": 0, "dram_accesses": 0, "dma_copies": 0}
        #: optional :class:`repro.telemetry.recorder.SysMemTelemetry` sink
        self.telemetry = None
        self.configure(mode)

    # ------------------------------------------------------------------
    # configuration (Section 3.6's mapping flexibility)
    # ------------------------------------------------------------------
    def configure(self, mode: str) -> None:
        self.mode = mode
        if mode == "shared_l2":
            for nt in self.nts:
                nt.program_interleave(
                    lambda addr: (addr // LINE_BYTES) % 16)
            for mt in self.mts:
                mt.configure("l2")
        elif mode == "split_l2":
            # two independent 512KB caches: processor 0's ports (0-3)
            # interleave over banks 0..7, processor 1's (4-7) over 8..15
            for port, nt in enumerate(self.nts):
                half = 8 * (port // 4)
                nt.program_interleave(
                    lambda addr, half=half: half + (addr // LINE_BYTES) % 8)
            for mt in self.mts:
                mt.configure("l2")
        elif mode == "scratchpad":
            # 1MB of on-chip physical memory: 64KB ranges per MT from the
            # scratch base; everything else goes to bank 0's SDC path
            base = 0x100000
            entries = [RouteEntry(base + i * 65536, base + (i + 1) * 65536, i)
                       for i in range(16)]
            entries.append(RouteEntry(0, 1 << 40, 0))
            for nt in self.nts:
                nt.program_ranges(entries)
            for mt in self.mts:
                mt.configure("scratch")
        else:
            raise ValueError(f"unknown memory mode {mode!r}")

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def request(self, port: int, address: int, is_write: bool,
                meta: object) -> None:
        """Issue a line request from processor port ``port`` (0..7)."""
        self.stats["requests"] += 1
        src = self.PROC_PORTS[port]
        mt_index = self.nts[port].route(address)
        dest = self.mt_coords[mt_index]
        req = _Request(port=port, address=address, is_write=is_write,
                       meta=meta, issued=self.cycle)
        flits = 1 + (DATA_FLITS if is_write else 0)
        packet = Packet(src=src, dest=dest, payload=("req", req, mt_index),
                        flits=flits, vc=0)
        self._inject_retry(src, packet)

    def take_responses(self, port: int) -> List[object]:
        out = self._responses.get(port, [])
        if out:
            self._responses[port] = []
            self._resp_count -= len(out)
        return out

    def has_responses(self) -> bool:
        """Any response awaiting pickup on any port (cheap poll gate)."""
        return self._resp_count > 0

    def next_work_t(self) -> Optional[int]:
        """Earliest cycle >= ``self.cycle`` with memory-system activity.

        ``self.cycle`` while any packet is parked, queued in an OCN
        router, or a response awaits pickup; otherwise the next bank/DRAM
        completion; None when fully drained.  Lets a quiescent processor
        fast-forward straight to the next memory event instead of
        stepping an empty OCN.
        """
        if self._parked or self._resp_count or not self.ocn.is_idle():
            return self.cycle
        if self._pending_dram:
            return self._pending_dram[0][0]
        return None

    def fast_forward(self, cycle: int) -> None:
        """Advance the clock over a provably-idle stretch (no stepping)."""
        self.cycle = cycle
        self.ocn.fast_forward(cycle)

    # ------------------------------------------------------------------
    def _inject_retry(self, src, packet) -> None:
        if not self.ocn.inject(src, packet):
            # park until next cycle; the step loop retries
            self._parked.append((src, packet))

    def step(self) -> None:
        """Advance the memory system one cycle."""
        parked, self._parked = self._parked, []
        for src, packet in parked:
            self._inject_retry(src, packet)

        # bank/DRAM completions that fell due
        pending_dram = self._pending_dram
        while pending_dram and pending_dram[0][0] <= self.cycle:
            _done_at, _seq, req, mt_index = heapq.heappop(pending_dram)
            self._reply(req, mt_index, self.cycle)

        # deliveries at MTs and back at the processor/I/O ports (the
        # pending-set check skips 24 per-coordinate scans on quiet cycles)
        # fast engine: visit only coordinates with packets waiting; the
        # escape hatch keeps the original engine's unconditional scan
        pending = self.ocn.delivery_pending if self.config.fast_path \
            else None
        if pending is None or pending:
            take = self.ocn.take_delivered
            for coord in self.mt_coords:
                if pending is not None and coord not in pending:
                    continue
                for packet in take(coord):
                    kind, req, idx = packet.payload
                    mt = self.mts[idx]
                    ready, needs_dram = mt.access(req.address, self.cycle)
                    if self.telemetry is not None:
                        self.telemetry.note_mt(idx, needs_dram)
                    if needs_dram:
                        done = ready + self.config.dram_cycles
                        mt.note_refill(done)
                        self.stats["dram_accesses"] += 1
                    else:
                        done = ready
                    self._dram_seq += 1
                    heapq.heappush(self._pending_dram,
                                   (done, self._dram_seq, req, idx))
            for coord in self.PROC_PORTS:
                if pending is not None and coord not in pending:
                    continue
                for packet in take(coord):
                    kind, req, _ = packet.payload
                    self._responses.setdefault(req.port, []).append(req.meta)
                    self._resp_count += 1
        if self.telemetry is not None:
            self.telemetry.note_inflight(self.cycle, len(self._pending_dram))
        self.ocn.step()
        self.cycle += 1

    def _reply(self, req: _Request, mt_index: int, now: int) -> None:
        src = self.mt_coords[mt_index]
        dest = self.PROC_PORTS[req.port]
        flits = 1 + (0 if req.is_write else DATA_FLITS)
        packet = Packet(src=src, dest=dest,
                        payload=("resp", req, mt_index), flits=flits, vc=1)
        self._inject_retry(src, packet)

    # ------------------------------------------------------------------
    # I/O clients
    # ------------------------------------------------------------------
    def dma_copy(self, src_addr: int, dst_addr: int, nbytes: int) -> int:
        """Programmed DMA transfer between two physical regions.

        Returns the estimated completion cycle: the DMA controller streams
        line-sized OCN transactions at one line per round trip per
        direction, the paper's "transfer data to and from any two regions
        of the physical address space"."""
        self.stats["dma_copies"] += 1
        data = self.backing.read_bytes(src_addr, nbytes)
        self.backing.write_bytes(dst_addr, data)
        lines = -(-nbytes // LINE_BYTES)
        per_line = 2 * (DATA_FLITS + 1) + 2 * BANK_LATENCY
        return self.cycle + lines * per_line
