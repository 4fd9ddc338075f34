"""The TRIPS block compiler: TIR -> TRIPS programs.

Two optimization levels reproduce the paper's code-quality axis
(Section 5.4):

* ``"tcc"`` — the TRIPS C compiler as of the paper: correct but naive.
  One basic block per TRIPS block, no if-conversion, no unrolling, no
  loop rotation.  Blocks come out small, so block overheads dominate.
* ``"hand"`` — the hand-optimized level: if-converted predicated regions
  (hyperblocks), rotated loops whose bodies are single blocks with a
  predicated back-branch, unrolling honoured via the ``For.unroll`` hint,
  and aggressive merging of straight-line block chains.

Public API::

    from repro.compiler import compile_tir
    compiled = compile_tir(tir_program, level="hand")
    compiled.program          # repro.isa.Program, runnable on the sims
    compiled.var_regs         # scalar name -> architectural register
    compiled.array_addrs     # array name -> data-segment address
"""

from .lower import CompiledProgram, CompileError, compile_tir, extract_outputs

__all__ = ["CompiledProgram", "CompileError", "compile_tir",
           "extract_outputs"]
