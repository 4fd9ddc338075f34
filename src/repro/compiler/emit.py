"""Materialize a :class:`BlockDag` into a :class:`TripsBlock`.

Steps: dead-code elimination from the block's sinks, fanout-tree expansion
(balanced ``mov`` trees wherever a producer has more consumers than its
target fields), LSID compaction, spatial scheduling, header slot
assignment, and instruction emission.

The block is not validated here: ``ProgramBuilder.finish`` validates
every block once, as it builds the program's image, before any
simulator can load it.  The one caller that must know at once, the
terminator attempt in ``lower._form_blocks``, validates its block itself
and appends it ``validated=True``, so the image does not check it again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa import (
    Format,
    Instruction,
    OpClass,
    Opcode,
    OperandKind,
    ReadInstruction,
    Target,
    TripsBlock,
    WriteInstruction,
    reg_bank,
)
from .cfg import CompileError
from .dag import BlockDag, DNode, _resolve, target_capacity
from .schedule import GT_POS, Scheduler, rt_pos

#: endpoint ports for data/pred operands.
_PORT_KIND = {0: OperandKind.LEFT, 1: OperandKind.RIGHT,
              "P": OperandKind.PRED}


def materialize(dag: BlockDag, name: str) -> TripsBlock:
    """Emit the accumulated dataflow graph as one TRIPS block."""
    live = _mark_live(dag)
    endpoints, write_slots, write_regs = _collect_endpoints(dag, live)
    clones = _clone_hot_producers(dag, live, endpoints)
    extra_movs = _expand_fanout(dag, live, endpoints)
    body_nodes = [n for n in dag.nodes
                  if n.uid in live and n.is_body] + clones + extra_movs
    _compact_lsids(body_nodes)
    read_nodes = [n for n in dag.nodes if n.uid in live and n.kind == "read"]
    read_slots = _assign_read_slots(read_nodes)
    slots = _schedule(body_nodes, read_slots, endpoints, write_regs)

    block = TripsBlock(name=name)
    for node in read_nodes:
        targets = _targets_for(node, endpoints, slots, write_slots)
        block.reads[read_slots[node.uid]] = ReadInstruction(node.reg, targets)
    for wslot, reg in write_regs.items():
        block.writes[wslot] = WriteInstruction(reg)
    for node in body_nodes:
        block.body[slots[node.uid]] = _emit(node, endpoints, slots,
                                            write_slots)
    return block


# ----------------------------------------------------------------------
def _mark_live(dag: BlockDag) -> Set[int]:
    """DCE: everything reachable from stores, branches and write values."""
    live: Set[int] = set()
    stack: List[DNode] = []
    for node in dag.nodes:
        if node.kind == "branch":
            stack.append(node)
        elif node.opcode is not None and node.opcode.is_store:
            stack.append(node)
    for _, value in dag.writes:
        stack.append(value)
    while stack:
        node = stack.pop()
        if node.kind == "merge":
            stack.extend(node.inputs)
            continue
        if node.uid in live:
            continue
        live.add(node.uid)
        stack.extend(node.inputs)
        if node.pred is not None:
            stack.append(node.pred[0])
    return live


Endpoint = Tuple  # (consumer DNode, port) or ("W", write_slot)


def _collect_endpoints(dag: BlockDag, live: Set[int]):
    """Producer uid -> consumer endpoints; write slot assignments."""
    endpoints: Dict[int, List[Endpoint]] = {}

    def feed(producer: DNode, endpoint: Endpoint) -> None:
        for real in _resolve(producer):
            if real.uid in live:
                endpoints.setdefault(real.uid, []).append(endpoint)

    for node in dag.nodes:
        if node.uid not in live or node.kind == "merge":
            continue
        for port, inp in enumerate(node.inputs):
            feed(inp, (node, port))
        if node.pred is not None:
            feed(node.pred[0], (node, "P"))

    # Write slots, grouped by bank: slot = bank*8 + index within bank.
    write_slots: Dict[int, int] = {}   # reg -> slot
    write_regs: Dict[int, int] = {}    # slot -> reg
    per_bank = [0, 0, 0, 0]
    for reg, value in dag.writes:
        bank = reg_bank(reg)
        if per_bank[bank] >= 8:
            raise CompileError(f"more than 8 register writes in bank {bank}")
        slot = bank * 8 + per_bank[bank]
        per_bank[bank] += 1
        write_slots[reg] = slot
        write_regs[slot] = reg
        feed(value, ("W", slot))
    return endpoints, write_slots, write_regs


def _clone_hot_producers(dag: BlockDag, live: Set[int],
                         endpoints: Dict[int, List[Endpoint]]) -> List[DNode]:
    """Replicate cheap over-fanout producers instead of building mov trees.

    A shared address computation feeding eight loads would otherwise pay a
    three-deep mov tree on the critical path; duplicating the 1-cycle op
    costs the same instruction count but distributes in parallel — what
    the paper's hand coders did ("replicating and fanning out operand
    values", Section 5.4).  Cloning cascades: a clone's inputs gain
    consumers and may clone in turn; a budget keeps the block within its
    128 instructions (overflow falls back to mov trees).
    """
    def clonable(node: DNode) -> bool:
        return (node.kind in ("op", "const")
                and node.opcode is not None
                and not node.opcode.is_memory
                and not node.opcode.is_branch
                and node.opcode.opclass is not OpClass.NULLIFY
                and node.pred is None
                and node.opcode.latency <= 1)

    body_count = sum(1 for n in dag.nodes if n.uid in live and n.is_body)
    # worst-case mov trees the expander may still add afterwards
    tree_estimate = sum(
        max(0, len(endpoints.get(n.uid, ())) - target_capacity(n))
        for n in dag.nodes if n.uid in live and n.kind != "merge")
    budget = 112 - body_count - tree_estimate
    clones: List[DNode] = []
    worklist = [n for n in dag.nodes if n.uid in live]
    while worklist:
        node = worklist.pop()
        if not clonable(node):
            continue
        eps = endpoints.get(node.uid, [])
        cap = target_capacity(node)
        need = -(-len(eps) // cap) - 1 if len(eps) > cap else 0
        if need <= 0 or need > budget:
            continue
        budget -= need
        groups = [eps[i::need + 1] for i in range(need + 1)]
        endpoints[node.uid] = groups[0]
        for g in groups[1:]:
            dag._uid += 1
            clone = DNode(dag._uid, node.kind, opcode=node.opcode,
                          inputs=node.inputs, imm=node.imm,
                          const=node.const, bits=node.bits)
            endpoints[clone.uid] = g
            live.add(clone.uid)
            clones.append(clone)
            for port, inp in enumerate(node.inputs):
                for real in _resolve(inp):
                    if real.uid in live:
                        endpoints.setdefault(real.uid, []).append(
                            (clone, port))
                        worklist.append(real)
    return clones


def _expand_fanout(dag: BlockDag, live: Set[int],
                   endpoints: Dict[int, List[Endpoint]]) -> List[DNode]:
    """Insert mov trees where consumers exceed target capacity.

    Trees are *criticality-skewed*: consumers that gate block outputs
    (write slots, chains that feed writes, branches) stay shallow while
    cold consumers absorb the tree depth — the loop-carried register chain
    between blocks must not pay fanout latency (Section 5.4 charges fanout
    as overhead precisely because hand coders minimize it on the critical
    path).
    """
    heights = _heights(dag, live)

    def criticality(ep: Endpoint) -> int:
        if ep[0] == "W":
            return 1000                      # a block output itself
        consumer, _ = ep
        score = heights.get(consumer.uid, 0)
        if any(e[0] == "W" for e in endpoints.get(consumer.uid, ())):
            score += 40                      # feeds an output directly
        if consumer.kind == "branch":
            score += 10
        return score

    extra: List[DNode] = []

    def new_mov(producer: DNode, fed: List[Endpoint]) -> Endpoint:
        dag._uid += 1
        mov = DNode(dag._uid, "op", opcode=Opcode.MOV, inputs=(producer,))
        endpoints[mov.uid] = fed
        extra.append(mov)
        live.add(mov.uid)
        return (mov, 0)

    for node in list(dag.nodes):
        if node.uid not in live or node.kind == "merge":
            continue
        eps = endpoints.get(node.uid, [])
        cap = target_capacity(node)
        if len(eps) > cap:
            # hottest consumers keep direct target slots; the remainder
            # hangs off a balanced mov tree in the last slot
            eps = sorted(eps, key=criticality, reverse=True)
            direct, rest = eps[:max(cap - 1, 0)], eps[max(cap - 1, 0):]
            while len(rest) > 1:
                level: List[Endpoint] = []
                for i in range(0, len(rest) - 1, 2):
                    level.append(new_mov(node, [rest[i], rest[i + 1]]))
                if len(rest) % 2:
                    level.append(rest[-1])
                rest = level
            eps = direct + rest
        endpoints[node.uid] = eps
    return extra


def _heights(dag: BlockDag, live: Set[int]) -> Dict[int, int]:
    """Longest-path height (to any sink) per live node."""
    heights: Dict[int, int] = {}
    consumers: Dict[int, List[DNode]] = {}
    for node in dag.nodes:
        if node.uid not in live or node.kind == "merge":
            continue
        parents = list(node.inputs)
        if node.pred is not None:
            parents.append(node.pred[0])
        for parent in parents:
            for real in _resolve(parent):
                consumers.setdefault(real.uid, []).append(node)

    def height_fast(node: DNode) -> int:
        if node.uid in heights:
            return heights[node.uid]
        heights[node.uid] = 0
        h = 0
        for consumer in consumers.get(node.uid, ()):
            h = max(h, height_fast(consumer) + 1)
        heights[node.uid] = h
        return h

    for node in dag.nodes:
        if node.uid in live and node.kind != "merge":
            height_fast(node)
    return heights


def _compact_lsids(body_nodes: Sequence[DNode]) -> None:
    mem = sorted((n for n in body_nodes if n.lsid >= 0),
                 key=lambda n: n.lsid)
    for new_lsid, node in enumerate(mem):
        node.lsid = new_lsid


def _assign_read_slots(read_nodes: Sequence[DNode]) -> Dict[int, int]:
    per_bank = [0, 0, 0, 0]
    slots: Dict[int, int] = {}
    for node in sorted(read_nodes, key=lambda n: n.reg):
        bank = reg_bank(node.reg)
        if per_bank[bank] >= 8:
            raise CompileError(f"more than 8 register reads in bank {bank}")
        slots[node.uid] = bank * 8 + per_bank[bank]
        per_bank[bank] += 1
    return slots


def _schedule(body_nodes: Sequence[DNode], read_slots: Dict[int, int],
              endpoints: Dict[int, List[Endpoint]],
              write_regs: Dict[int, int]) -> Dict[int, int]:
    read_positions = {uid: rt_pos(slot // 8)
                      for uid, slot in read_slots.items()}

    def producers_of(node: DNode, placed_positions):
        parents = list(node.inputs)
        if node.pred is not None:
            parents.append(node.pred[0])
        out = []
        for parent in parents:
            for real in _resolve(parent):
                if real.uid in placed_positions:
                    out.append(placed_positions[real.uid])
                elif real.uid in read_positions:
                    out.append(read_positions[real.uid])
        return out

    def sinks_of(node: DNode):
        sinks = []
        if node.kind == "branch":
            sinks.append(GT_POS)
        if node.opcode is not None and node.opcode.is_memory:
            # memory requests travel west to the DT column
            sinks.append((2, 0))
        for endpoint in endpoints.get(node.uid, ()):
            if endpoint[0] == "W":
                sinks.append(rt_pos(endpoint[1] // 8))
        return sinks

    return Scheduler().place(body_nodes, producers_of, sinks_of)


def _targets_for(node: DNode, endpoints, slots, write_slots) -> List[Target]:
    targets = []
    for endpoint in endpoints.get(node.uid, ()):
        if endpoint[0] == "W":
            targets.append(Target(endpoint[1], OperandKind.WRITE))
        else:
            consumer, port = endpoint
            targets.append(Target(slots[consumer.uid], _PORT_KIND[port]))
    return targets


def _emit(node: DNode, endpoints, slots, write_slots) -> Instruction:
    targets = _targets_for(node, endpoints, slots, write_slots)
    pred = None if node.pred is None else node.pred[1]
    kwargs = {}
    if node.opcode is None:
        raise CompileError(f"cannot emit node kind {node.kind}")
    fmt = node.opcode.format
    if fmt is Format.I:
        kwargs["imm"] = node.imm
    elif fmt in (Format.L, Format.S):
        kwargs["imm"] = node.imm
        kwargs["lsid"] = node.lsid
    elif fmt is Format.C:
        kwargs["const"] = node.const
        pred = None
    elif fmt is Format.B:
        kwargs["exit_no"] = node.exit_no
    inst = Instruction(node.opcode, pred=pred, targets=targets, **kwargs)
    if node.label is not None:
        inst.label = node.label
    return inst
