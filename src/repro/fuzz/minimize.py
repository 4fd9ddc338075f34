"""Automatic failure minimization for divergent TIR programs.

Given a program and a predicate ("does the divergence still reproduce?"),
:func:`minimize` shrinks the program while keeping the predicate true.
The passes — in deterministic order, iterated to a fixpoint — are:

* **delete-stmt**: remove one statement at a time, at every nesting level,
* **hoist**: replace a ``For``/``While``/``If`` with its (then-)body,
* **simplify-expr**: replace an expression node with one of its operands
  or with ``Const(0)`` / ``Const(1)``,
* **constant-shrink**: move constants toward zero (halving, masking off
  high bits) while the failure persists,
* **drop-decls**: delete arrays/scalars/outputs the body no longer
  mentions.

Every candidate is revalidated (``TirProgram.validate``) before the
predicate runs, and candidates are built through the exact JSON codec so
the input program is never mutated.  The whole procedure is a pure
function of (program, predicate): same input, byte-identical minimized
output — which the determinism test in ``tests/fuzz`` locks in.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..tir import (
    Assign,
    BinOp,
    Const,
    For,
    If,
    Load,
    Store,
    TirError,
    TirProgram,
    UnOp,
    Var,
    While,
)
from ..tir.serialize import program_from_dict, program_to_dict

Predicate = Callable[[TirProgram], bool]


def _clone(prog: TirProgram) -> TirProgram:
    return program_from_dict(program_to_dict(prog))


def _still_fails(candidate: TirProgram, predicate: Predicate) -> bool:
    try:
        candidate.validate()
    except TirError:
        return False
    try:
        return bool(predicate(candidate))
    except Exception:
        # A predicate that crashes on the candidate is treated as "does
        # not reproduce": the minimizer only chases the original failure.
        return False


# ----------------------------------------------------------------------
# statement-level passes
# ----------------------------------------------------------------------
def _bodies(prog: TirProgram):
    """Every statement list in the program, discovered depth-first."""
    out = [prog.body]
    stack = list(prog.body)
    while stack:
        s = stack.pop(0)
        if isinstance(s, (For, While)):
            out.append(s.body)
            stack.extend(s.body)
        elif isinstance(s, If):
            out.append(s.then_body)
            out.append(s.else_body)
            stack.extend(s.then_body)
            stack.extend(s.else_body)
    return out


def _try_delete_stmts(prog: TirProgram, predicate: Predicate) \
        -> Optional[TirProgram]:
    for body_idx, body in enumerate(_bodies(prog)):
        for stmt_idx in range(len(body)):
            candidate = _clone(prog)
            _bodies(candidate)[body_idx].pop(stmt_idx)
            if _still_fails(candidate, predicate):
                return candidate
    return None


def _try_hoist(prog: TirProgram, predicate: Predicate) \
        -> Optional[TirProgram]:
    for body_idx, body in enumerate(_bodies(prog)):
        for stmt_idx, stmt in enumerate(body):
            if isinstance(stmt, If):
                options = ("then_body", "else_body")
            elif isinstance(stmt, (For, While)):
                options = ("body",)
            else:
                continue
            for attr in options:
                candidate = _clone(prog)
                cbody = _bodies(candidate)[body_idx]
                cbody[stmt_idx:stmt_idx + 1] = getattr(cbody[stmt_idx], attr)
                if _still_fails(candidate, predicate):
                    return candidate
    return None


# ----------------------------------------------------------------------
# expression-level passes
# ----------------------------------------------------------------------
def _expr_slots(stmt):
    """(getter, setter) pairs for every direct expression slot of a stmt."""
    slots = []
    if isinstance(stmt, Assign):
        slots.append((lambda s=stmt: s.expr,
                      lambda e, s=stmt: setattr(s, "expr", e)))
    elif isinstance(stmt, Store):
        slots.append((lambda s=stmt: s.index,
                      lambda e, s=stmt: setattr(s, "index", e)))
        slots.append((lambda s=stmt: s.value,
                      lambda e, s=stmt: setattr(s, "value", e)))
    elif isinstance(stmt, For):
        slots.append((lambda s=stmt: s.start,
                      lambda e, s=stmt: setattr(s, "start", e)))
        slots.append((lambda s=stmt: s.stop,
                      lambda e, s=stmt: setattr(s, "stop", e)))
    elif isinstance(stmt, (While, If)):
        slots.append((lambda s=stmt: s.cond,
                      lambda e, s=stmt: setattr(s, "cond", e)))
    return slots


def _all_stmts(prog: TirProgram):
    out = []
    for body in _bodies(prog):
        out.extend(body)
    return out


def _subexpr_paths(expr, path=()):
    """Every path to a node in ``expr`` (path = tuple of field names)."""
    out = [path]
    if isinstance(expr, BinOp):
        out.extend(_subexpr_paths(expr.a, path + ("a",)))
        out.extend(_subexpr_paths(expr.b, path + ("b",)))
    elif isinstance(expr, UnOp):
        out.extend(_subexpr_paths(expr.a, path + ("a",)))
    elif isinstance(expr, Load):
        out.extend(_subexpr_paths(expr.index, path + ("index",)))
    return out


def _get_at(expr, path):
    for name in path:
        expr = getattr(expr, name)
    return expr


def _replace_at(expr, path, replacement):
    """A copy of ``expr`` with the node at ``path`` swapped out."""
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    child = _replace_at(getattr(expr, head), rest, replacement)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, child if head == "a" else expr.a,
                     child if head == "b" else expr.b)
    if isinstance(expr, UnOp):
        return UnOp(expr.op, child)
    if isinstance(expr, Load):
        return Load(expr.array, child)
    raise TirError(f"cannot replace inside {expr!r}")


def _expr_candidates(node):
    """Smaller expressions to try in place of ``node``."""
    out = []
    if isinstance(node, BinOp):
        out.extend([node.a, node.b])
    elif isinstance(node, (UnOp, Load)):
        out.append(node.a if isinstance(node, UnOp) else node.index)
    if not isinstance(node, Const) or node.bits not in (0, 1):
        out.extend([Const(0), Const(1)])
    return out


def _try_simplify_exprs(prog: TirProgram, predicate: Predicate) \
        -> Optional[TirProgram]:
    stmts = _all_stmts(prog)
    for stmt_idx, stmt in enumerate(stmts):
        for slot_idx, (get, _set) in enumerate(_expr_slots(stmt)):
            for path in _subexpr_paths(get()):
                node = _get_at(get(), path)
                for replacement in _expr_candidates(node):
                    candidate = _clone(prog)
                    cstmt = _all_stmts(candidate)[stmt_idx]
                    cget, cset = _expr_slots(cstmt)[slot_idx]
                    cset(_replace_at(cget(), path, replacement))
                    if _still_fails(candidate, predicate):
                        return candidate
    return None


def _shrunk_consts(bits: int) -> List[int]:
    """Candidate smaller values for a 64-bit constant, nearest-zero first."""
    out = []
    for cand in (0, 1, bits >> 32, bits & 0xFFFFFFFF, bits >> 1,
                 bits & 0xFF, bits & 0xFFFF):
        if cand != bits and cand not in out:
            out.append(cand)
    return out


def _try_shrink_consts(prog: TirProgram, predicate: Predicate) \
        -> Optional[TirProgram]:
    stmts = _all_stmts(prog)
    for stmt_idx, stmt in enumerate(stmts):
        for slot_idx, (get, _set) in enumerate(_expr_slots(stmt)):
            for path in _subexpr_paths(get()):
                node = _get_at(get(), path)
                if not isinstance(node, Const):
                    continue
                for cand in _shrunk_consts(node.bits):
                    candidate = _clone(prog)
                    cstmt = _all_stmts(candidate)[stmt_idx]
                    cget, cset = _expr_slots(cstmt)[slot_idx]
                    cset(_replace_at(cget(), path,
                                     Const(cand, is_float=node.is_float)))
                    if _still_fails(candidate, predicate):
                        return candidate
    # scalar initial values shrink the same way
    for name in sorted(prog.scalars):
        for cand in _shrunk_consts(prog.scalars[name] & ((1 << 64) - 1)):
            candidate = _clone(prog)
            candidate.scalars[name] = cand
            if _still_fails(candidate, predicate):
                return candidate
    # array initial elements
    for name in sorted(prog.arrays):
        arr = prog.arrays[name]
        if arr.dtype == "f64":
            continue
        for i, value in enumerate(arr.data):
            if value == 0:
                continue
            candidate = _clone(prog)
            candidate.arrays[name].data[i] = 0
            if _still_fails(candidate, predicate):
                return candidate
    return None


def _try_drop_decls(prog: TirProgram, predicate: Predicate) \
        -> Optional[TirProgram]:
    used = set(prog.all_variables())
    for body in _bodies(prog):
        for stmt in body:
            for get, _set in _expr_slots(stmt):
                for path in _subexpr_paths(get()):
                    node = _get_at(get(), path)
                    if isinstance(node, Load):
                        used.add(node.array)
            if isinstance(stmt, Store):
                used.add(stmt.array)
    for name in sorted(set(prog.arrays) | set(prog.scalars)):
        if name in used and name in prog.outputs:
            # try dropping just the output observation
            candidate = _clone(prog)
            candidate.outputs = [o for o in candidate.outputs if o != name]
            if _still_fails(candidate, predicate):
                return candidate
        if name not in used:
            candidate = _clone(prog)
            candidate.arrays.pop(name, None)
            candidate.scalars.pop(name, None)
            candidate.outputs = [o for o in candidate.outputs if o != name]
            if _still_fails(candidate, predicate):
                return candidate
    return None


_PASSES = (_try_delete_stmts, _try_hoist, _try_simplify_exprs,
           _try_shrink_consts, _try_drop_decls)


def minimize(prog: TirProgram, predicate: Predicate,
             max_rounds: int = 200) -> TirProgram:
    """The smallest failing program reachable from ``prog``.

    ``predicate(candidate)`` must return True while the failure of
    interest still reproduces.  ``prog`` itself must satisfy it.
    """
    if not _still_fails(prog, predicate):
        raise ValueError("input program does not satisfy the predicate")
    current = _clone(prog)
    for _ in range(max_rounds):
        for pass_fn in _PASSES:
            smaller = pass_fn(current, predicate)
            if smaller is not None:
                current = smaller
                break
        else:
            break       # no pass made progress: fixpoint
    return current
