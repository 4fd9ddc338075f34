"""The TRIPS secondary memory system and backing storage.

* :mod:`repro.mem.backing` — flat byte-addressable backing store used by
  every execution model.
* :mod:`repro.mem.mt` — memory tiles (64KB NUCA banks with routers).
* :mod:`repro.mem.nt` — network tiles (programmable request routing).
* :mod:`repro.mem.sysmem` — the configurable secondary system over the
  4x10 wormhole-routed on-chip network: 1MB shared L2, split 512KB L2s
  (one per processor), scratchpad mappings, SDRAM latency and programmed
  DMA.
"""

from .backing import BackingStore

__all__ = ["BackingStore"]
