"""Top-level compilation pipeline: TIR program -> TRIPS program.

Pipeline: structured lowering to a CFG (level-dependent transforms), global
liveness, per-CFG-block dataflow construction with constraint-driven
splitting (a CFG block that exceeds the 128-instruction / 32-memory-op /
8-per-bank limits is cut at a statement boundary and chained with a jump),
materialization (DCE, fanout, scheduling), and linking via
:class:`repro.isa.ProgramBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa import BlockError, Program, ProgramBuilder
from ..tir.ir import Assign, Stmt, Store, TirProgram, int_to_bits
from ..tir.semantics import truncate_load
from .cfg import (
    CfgBlock,
    CompileError,
    CondJump,
    Halt,
    Jump,
    PredRegion,
    liveness,
    lower_to_cfg,
    stmt_uses_defs,
)
from .dag import BlockDag, _SplitNeeded
from .emit import materialize

MAX_SCALARS = 120


@dataclass
class CompiledProgram:
    """A compiled workload plus the mapping metadata the harness needs."""

    program: Program
    var_regs: Dict[str, int]
    array_addrs: Dict[str, int]
    level: str
    tir: TirProgram

    def extract_outputs(self, regs: Sequence[int], memory) -> tuple:
        """This program's observable outputs; see :func:`extract_outputs`."""
        return extract_outputs(self.tir, self.var_regs, self.array_addrs,
                               regs, memory)


def extract_outputs(tir: TirProgram, var_regs: Dict[str, int],
                    array_addrs: Dict[str, int], regs: Sequence[int],
                    memory) -> tuple:
    """Observable outputs in :meth:`InterpResult.output_signature` form.

    ``var_regs`` and ``array_addrs`` are a compiled program's scalar and
    array placement (TRIPS or SRISC), ``regs`` the final architectural
    register file, ``memory`` any object with ``read(address, size) ->
    int`` (the simulators and the backing store qualify).
    """
    parts = []
    for name in tir.outputs:
        if name in tir.arrays:
            arr = tir.arrays[name]
            base = array_addrs[name]
            values = tuple(
                truncate_load(
                    memory.read(base + i * arr.elem_size, arr.elem_size),
                    arr.elem_size, arr.signed)
                for i in range(len(arr.data)))
            parts.append((name, values))
        else:
            parts.append((name, regs[var_regs[name]]))
    return tuple(parts)


# ----------------------------------------------------------------------
def compile_tir(tir: TirProgram, level: str = "tcc",
                base: int = 0x1000, data_base: int = 0x100000) -> CompiledProgram:
    """Compile ``tir`` into a runnable TRIPS :class:`Program`."""
    tir.validate()
    cfg = lower_to_cfg(tir, level)

    var_names = _collect_variables(cfg, tir)
    if len(var_names) > MAX_SCALARS:
        raise CompileError(
            f"{len(var_names)} scalars exceed the register budget")
    var_regs = {name: i for i, name in enumerate(var_names)}

    builder = ProgramBuilder(base=base, data_base=data_base)
    # Arrays are staggered across the cache-line-interleaved DTs: giving
    # consecutive arrays different line-alignment classes keeps a[i],
    # b[i], c[i] of a streaming kernel on different data tiles (bank-
    # conflict padding; without it all three streams serialize on one
    # DT's single LSQ port).
    array_addrs = {}
    for index, (name, arr) in enumerate(tir.arrays.items()):
        pad = bytes((index % 4) * 64)
        addr = builder.add_data(pad + arr.encode(), align=256)
        array_addrs[name] = addr + len(pad)

    exit_live = {name for name in tir.outputs if name not in tir.arrays}
    live = liveness(cfg, exit_live)

    for cfg_block in cfg.blocks:
        _form_blocks(cfg_block, live[cfg_block.label], var_regs,
                     array_addrs, tir, builder)

    program = builder.finish()
    program.entry = program.labels[cfg.entry.label]
    for name, init in tir.scalars.items():
        program.initial_regs[var_regs[name]] = int_to_bits(init)
    return CompiledProgram(program=program, var_regs=var_regs,
                           array_addrs=array_addrs, level=level, tir=tir)


def _collect_variables(cfg, tir: TirProgram) -> List[str]:
    """Every scalar the CFG mentions, in deterministic first-seen order."""
    seen: Dict[str, None] = dict.fromkeys(tir.scalars)
    from .cfg import _expr_uses
    for block in cfg.blocks:
        for stmt in block.stmts:
            uses, defs = stmt_uses_defs(stmt)
            for name in sorted(uses) + sorted(defs):
                seen.setdefault(name)
        if isinstance(block.term, CondJump):
            acc: Set[str] = set()
            _expr_uses(block.term.cond, acc)
            for name in sorted(acc):
                seen.setdefault(name)
    return list(seen)


# ----------------------------------------------------------------------
def _form_blocks(cfg_block: CfgBlock, live_pair, var_regs, array_addrs,
                 tir: TirProgram, builder: ProgramBuilder) -> None:
    """Translate one CFG block into one or more TRIPS blocks."""
    _, live_out = live_pair
    stmts = cfg_block.stmts
    suffix_uses = _suffix_uses(stmts, cfg_block)

    def fresh_dag() -> BlockDag:
        return BlockDag(var_regs, array_addrs, tir.arrays)

    label = cfg_block.label
    part = 0
    dag = fresh_dag()
    index = 0
    while index < len(stmts):
        stmt = stmts[index]
        snap = dag.snapshot()
        ok = True
        try:
            _add_stmt(dag, stmt)
            pending = sorted(dag.dirty & (live_out | suffix_uses[index + 1]))
            if not dag.fits(pending):
                ok = False
        except _SplitNeeded:
            ok = False
        if ok:
            index += 1
            continue
        dag.rollback(snap)
        if snap.n_nodes == 0 and not dag.dirty:
            raise CompileError(
                f"{label}: a single statement exceeds block limits")
        cont = f"{label}__p{part}"
        part += 1
        _close(dag, var_regs, live_out | suffix_uses[index], Jump(cont))
        builder.append(materialize(dag, label), label=label)
        label = cont
        dag = fresh_dag()

    # Terminator; if it doesn't fit, it gets a block of its own.  Only
    # this attempt validates its block here, since a BlockError is what
    # splits it; the program's image validates every other block.
    snap = dag.snapshot()
    try:
        _close(dag, var_regs, live_out, cfg_block.term)
        block = materialize(dag, label)
        block.validate()
    except (_SplitNeeded, CompileError, BlockError):
        dag.rollback(snap)
        dag.writes.clear()
        dag.branches.clear()
        cont = f"{label}__p{part}"
        _close(dag, var_regs, live_out | suffix_uses[len(stmts)], Jump(cont))
        builder.append(materialize(dag, label), label=label)
        label = cont
        dag = fresh_dag()
        _close(dag, var_regs, live_out, cfg_block.term)
        builder.append(materialize(dag, label), label=label)
    else:
        builder.append(block, label=label, validated=True)


def _suffix_uses(stmts: Sequence[Stmt], cfg_block: CfgBlock) -> List[Set[str]]:
    """suffix_uses[i] = scalars used by stmts[i:] or the terminator."""
    base: Set[str] = set()
    if isinstance(cfg_block.term, CondJump):
        from .cfg import _expr_uses
        _expr_uses(cfg_block.term.cond, base)
    out = [set(base)]
    for stmt in reversed(stmts):
        uses, _ = stmt_uses_defs(stmt)
        out.append(out[-1] | uses)
    out.reverse()
    return out


def _add_stmt(dag: BlockDag, stmt: Stmt) -> None:
    if isinstance(stmt, Assign):
        dag.set_var(stmt.var, dag.expr(stmt.expr))
    elif isinstance(stmt, Store):
        dag.store(stmt.array, stmt.index, stmt.value)
    elif isinstance(stmt, PredRegion):
        _add_pred_region(dag, stmt)
    else:
        raise CompileError(f"unexpected statement {stmt!r}")


def _add_pred_region(dag: BlockDag, region: PredRegion) -> None:
    """If-converted region: Figure 5a's predication/null-token pattern."""
    cond = dag.as_pred(dag.expr(region.cond))

    def run_arm(stmts, polarity: bool) -> Dict[str, object]:
        before = dict(dag.var_values)
        before_dirty = set(dag.dirty)
        for stmt in stmts:
            if isinstance(stmt, Assign):
                dag.set_var(stmt.var, dag.expr(stmt.expr))
            elif isinstance(stmt, Store):
                dag.store(stmt.array, stmt.index, stmt.value,
                          pred=(cond, polarity))
            else:  # pragma: no cover - the if-converter guarantees this
                raise CompileError("non-simple statement in PredRegion")
        changed = {name: node for name, node in dag.var_values.items()
                   if before.get(name) is not node}
        dag.var_values = before
        dag.dirty = before_dirty
        return changed

    then_vals = run_arm(region.then_body, True)
    else_vals = run_arm(region.else_body, False)

    for name in sorted(set(then_vals) | set(else_vals)):
        old = dag.var_values.get(name)
        tval = then_vals.get(name)
        fval = else_vals.get(name)
        if tval is None:
            tval = old if old is not None else dag.read_var(name)
        if fval is None:
            fval = old if old is not None else dag.read_var(name)
        dag.set_var(name, dag.phi(cond, tval, fval))


def _close(dag: BlockDag, var_regs, write_vars: Set[str], term) -> None:
    """Attach register writes and the terminator to a finished dag."""
    for name in sorted(dag.dirty & write_vars):
        dag.add_write(var_regs[name], dag.var_values[name])
    if isinstance(term, Jump):
        dag.branch_jump(term.target)
    elif isinstance(term, CondJump):
        dag.branch_cond(dag.as_pred(dag.expr(term.cond)),
                        term.if_true, term.if_false)
    elif isinstance(term, Halt):
        dag.branch_halt()
    else:
        raise CompileError(f"unknown terminator {term!r}")
