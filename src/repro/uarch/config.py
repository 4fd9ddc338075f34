"""Configuration of the TRIPS prototype core (Sections 3 and 5).

Every parameter is taken from the paper where it gives one; the handful it
does not (e.g. OPN router buffer depth) are noted inline.  A single
:class:`TripsConfig` instance parameterizes the whole detailed model, which
is how the ablation benchmarks vary one knob at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class PredictorConfig:
    """Next-block predictor budgets (Section 3.1), in bits."""

    local_bits: int = 9 * 1024        # local exit predictor
    global_bits: int = 16 * 1024      # gshare exit predictor
    choice_bits: int = 12 * 1024      # tournament chooser
    btb_bits: int = 20 * 1024         # branch target buffer
    ctb_bits: int = 6 * 1024          # call target buffer
    btype_bits: int = 12 * 1024       # branch type predictor
    exit_history_len: int = 10        # 3-bit exits folded into history
    #: "static" disables all dynamic structures (ablation), "gshare"
    #: disables the tournament, "tournament" is the prototype.
    kind: str = "tournament"


@dataclass
class TripsConfig:
    """The prototype processor core.

    Facts the prototype fixes live in code, not here: the Figure-2 tile
    layout (16 ETs, 4 RTs, 4 DTs, 5 ITs), the tag-access and hit/miss
    fetch stages, the ITs' 4-instruction GDN width and the 16-entry RAS.
    The LSQ is sized from the window (``max_blocks_in_flight`` x 32).
    Every field moves the simulation (tests/uarch/test_config_liveness.py).
    """

    # --- block window ----------------------------------------------------
    max_blocks_in_flight: int = 8     # 1 non-speculative + 7 speculative
    speculative_blocks: int = 7       # ablation: 0 disables speculation

    # --- fetch (Section 4.1) ---------------------------------------------
    #: next-block prediction; dispatch starts 2 cycles later (tag access
    #: plus hit/miss detection)
    predict_cycles: int = 3
    dispatch_commands: int = 8        # pipelined GDN indices per block

    # --- execution ---------------------------------------------------------
    #: operands one link can carry per cycle (the paper's future-work
    #: extension is "more operand network bandwidth": ablation knob).
    opn_links_per_hop: int = 1
    opn_router_depth: int = 2         # input FIFO depth (not in the paper)

    # --- caches -------------------------------------------------------------
    l1i_bank_kb: int = 16             # per IT, 2-way
    l1d_bank_kb: int = 8              # per DT, 2-way
    l1d_assoc: int = 2
    l1i_assoc: int = 2
    line_bytes: int = 64
    l1_hit_cycles: int = 2            # DT cache access

    # --- dependence prediction (Section 3.5) -------------------------------
    dep_predictor_bits: int = 1024
    dep_clear_interval_blocks: int = 10_000
    dep_predictor_enabled: bool = True

    # --- secondary memory ----------------------------------------------------
    perfect_l2: bool = True           # the paper's evaluation configuration
    l2_hit_cycles: int = 12           # when modelling the NUCA array
    dram_cycles: int = 80

    # --- predictor -------------------------------------------------------------
    predictor: PredictorConfig = field(default_factory=PredictorConfig)

    # --- simulation --------------------------------------------------------------
    max_cycles: int = 30_000_000
    #: fast-path cycle engine: routers and tiles are visited only while
    #: they have work, and whenever the OPN is empty
    #: :meth:`TripsProcessor.run` advances the cycle counter straight to
    #: the earliest per-component wakeup (timed event, prediction
    #: latency, deferred load, bank or DRAM completion) instead of
    #: spinning one no-op cycle at a time.  Cycle-for-cycle identical
    #: stats either way (tests/uarch/test_fast_path.py); False is the
    #: full-scan oracle that steps every router and tile every cycle.
    fast_path: bool = True

    def with_overrides(self, **kwargs) -> "TripsConfig":
        """A copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)

    @property
    def window_size(self) -> int:
        """In-flight instruction window (1,024 in the prototype)."""
        return self.max_blocks_in_flight * 128


#: the prototype's shipping configuration.
PROTOTYPE = TripsConfig()
