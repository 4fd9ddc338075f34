"""The full TRIPS chip: two processor cores + the shared memory system.

The prototype chip carries two complete processors that "can communicate
through the secondary memory system, in which the On-Chip Network (OCN) is
embedded" (Section 3).  :class:`TripsChip` composes two
:class:`~repro.uarch.proc.TripsProcessor` cores over one
:class:`~repro.mem.sysmem.SecondaryMemory` and one backing store:
processor 0 owns OCN ports 0-3, processor 1 ports 4-7, and
:meth:`TripsChip.step` advances both cores and the OCN in lockstep through
the same per-cycle sequence a lone core runs, so a core behaves the same
alone or on the chip.

The chip owns its cores and the shared memory system.  Neither holds the
other: a line request carries its DT's response callback, which does not
hold the core, and the core that polls its ports passes itself to each
response (see :mod:`repro.uarch.proc`), so dropping the chip frees both
cores at once.

Inter-processor communication happens exactly as on the silicon: through
memory (stores become visible at block commit; there is no inter-core
forwarding path) or through programmed DMA transfers between physical
regions.  Programs for the two cores must occupy disjoint address ranges
(the chip has a single physical address space); shared data is simply
data both programs address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .isa import Program
from .mem.backing import BackingStore
from .mem.sysmem import SecondaryMemory
from .serialize import dataclass_from_dict, dataclass_to_dict
from .uarch.config import TripsConfig
from .uarch.proc import ProcStats, TripsProcessor, skip_idle


class ChipError(RuntimeError):
    pass


@dataclass
class ChipStats:
    cycles: int = 0
    per_core: List[ProcStats] = field(default_factory=list)
    ocn_requests: int = 0
    dram_accesses: int = 0

    # -- JSON round trip (simlab cache records, harness --json) ---------
    def to_dict(self) -> Dict:
        data = dataclass_to_dict(self)
        data["per_core"] = [stats.to_dict() for stats in self.per_core]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ChipStats":
        data = dict(data)
        data["per_core"] = [ProcStats.from_dict(stats)
                            for stats in data.get("per_core", [])]
        return dataclass_from_dict(cls, data)


class TripsChip:
    """Two cores, one memory system."""

    def __init__(self, program0: Program, program1: Optional[Program] = None,
                 config: Optional[TripsConfig] = None,
                 memory_mode: str = "shared_l2",
                 telemetry: bool = False):
        config = config or TripsConfig(perfect_l2=False)
        if config.perfect_l2:
            config = config.with_overrides(perfect_l2=False)
        self.config = config
        self.memory = BackingStore()
        self.sysmem = SecondaryMemory(memory_mode, config,
                                      backing=self.memory)

        self._check_disjoint(program0, program1)
        self.cores: List[TripsProcessor] = []
        for index, program in enumerate([program0, program1]):
            if program is None:
                continue
            self.cores.append(TripsProcessor(
                program, config=config, memory=self.memory,
                sysmem=self.sysmem, sysmem_port_base=4 * index,
                telemetry=telemetry))
        self.cycle = 0

    @staticmethod
    def _check_disjoint(program0: Program,
                        program1: Optional[Program]) -> None:
        if program1 is None:
            return

        def spans(program):
            out = []
            for addr, blk in program.blocks.items():
                out.append((addr, addr + blk.size_bytes))
            return out

        for a0, e0 in spans(program0):
            for a1, e1 in spans(program1):
                if a0 < e1 and a1 < e0:
                    raise ChipError(
                        f"code regions overlap: {a0:#x}-{e0:#x} vs "
                        f"{a1:#x}-{e1:#x}; compile the second program at a "
                        "different base")

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One chip cycle: each live core's phases, the shared memory
        system, then each core's end of cycle (a halted core only takes
        its memory responses and keeps its final cycle count)."""
        live = [not core.halted for core in self.cores]
        for core, on in zip(self.cores, live):
            if on:
                core.step_core()
        self.sysmem.step()
        for core, on in zip(self.cores, live):
            if on:
                core.end_cycle()
            else:
                core.poll_sysmem()
        self.cycle += 1

    def run(self) -> ChipStats:
        """Run both cores to completion within ``config.max_cycles``."""
        budget = self.config.max_cycles
        while not all(core.halted for core in self.cores):
            if self.cycle >= budget:
                raise ChipError(f"chip cycle budget {budget} exhausted")
            self.step()
            if self.config.fast_path:
                live = [core for core in self.cores if not core.halted]
                if live:
                    self.cycle = skip_idle(live, self.sysmem)
        for core in self.cores:
            core.finalize_stats()
        return ChipStats(
            cycles=self.cycle,
            per_core=[core.stats for core in self.cores],
            ocn_requests=self.sysmem.stats["requests"],
            dram_accesses=self.sysmem.stats["dram_accesses"])

    def dma_copy(self, src: int, dst: int, nbytes: int) -> int:
        """Programmed DMA between physical regions (an OCN client)."""
        return self.sysmem.dma_copy(src, dst, nbytes)
