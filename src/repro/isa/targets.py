"""Dataflow target specifiers.

In an EDGE ISA, instructions name their *consumers*, not their sources
(Section 2.2).  A nine-bit target field holds a seven-bit destination slot
plus two bits selecting which operand of the consumer is being delivered:
the left operand, the right operand, or the predicate.

We additionally use the fourth encoding of the two type bits to address a
*write-queue slot*: results whose consumer is one of the block's 32 register
write instructions (which live in the header chunk, not the body) are sent to
write slot ``W[n]``.  The prototype's actual header-target encoding differs
in bit placement but is isomorphic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OperandKind(enum.Enum):
    """Which input of the consuming instruction a target feeds."""

    LEFT = 0
    RIGHT = 1
    PRED = 2
    WRITE = 3  # destination is a write-queue slot, not a body instruction

    @property
    def letter(self) -> str:
        return {"LEFT": "l", "RIGHT": "r", "PRED": "p", "WRITE": "w"}[self.name]


# ``kind.type_bits`` is the kind's two type bits already in place in the
# nine-bit field, so ``kind.type_bits | slot`` is a target's encoding — a
# plain member attribute, as on Opcode, because Enum's ``.value`` is a
# descriptor call.
for _kind in OperandKind:
    _kind.type_bits = _kind.value << 7
del _kind


@dataclass(frozen=True, order=True)
class Target:
    """One nine-bit target specifier: (slot, operand kind).

    ``slot`` indexes the block's body instructions (0..127) for LEFT / RIGHT
    / PRED kinds, or the write queue (0..31) for WRITE kind.
    """

    slot: int
    kind: OperandKind

    MAX_SLOT = 127

    def __post_init__(self) -> None:
        limit = 31 if self.kind is OperandKind.WRITE else self.MAX_SLOT
        if not 0 <= self.slot <= limit:
            raise ValueError(f"target slot {self.slot} out of range for {self.kind}")

    def encode(self) -> int:
        """Pack into the nine-bit field: type in bits [8:7], slot in [6:0]."""
        return self.kind.type_bits | self.slot

    @classmethod
    def decode(cls, bits: int) -> "Target":
        return cls(bits & 0x7F, OperandKind((bits >> 7) & 0x3))

    def __str__(self) -> str:
        if self.kind is OperandKind.WRITE:
            return f"W[{self.slot}]"
        return f"N[{self.slot},{self.kind.letter.upper()}]"


#: encoding of "no target" — slot 127 left is reserved as the null target
#: because instruction 127 cannot be targeted on its left operand.  We use an
#: explicit validity bit in the encoders instead wherever a format has room,
#: but instruction words have none, so this sentinel is the wire encoding.
NO_TARGET_BITS = 0x1FF


def encode_optional(target) -> int:
    """Encode ``target`` or the no-target sentinel if it is ``None``."""
    return NO_TARGET_BITS if target is None else target.encode()


def decode_optional(bits: int):
    """Inverse of :func:`encode_optional`."""
    return None if bits == NO_TARGET_BITS else Target.decode(bits)
