"""32-bit instruction word formats (Figure 1) and their codecs.

Every body instruction occupies one 32-bit word.  Field layout by format::

    G: OPCODE[31:25] PR[24:23] XOP[22:18]  T1[17:9]    T0[8:0]
    I: OPCODE[31:25] PR[24:23] IMM[22:9]               T0[8:0]
    L: OPCODE[31:25] PR[24:23] LSID[22:18] IMM[17:9]   T0[8:0]
    S: OPCODE[31:25] PR[24:23] LSID[22:18] IMM[17:9]   0[8:0]
    B: OPCODE[31:25] PR[24:23] EXIT[22:20] OFFSET[19:0]
    C: OPCODE[31:25] CONST[24:9]                       T0[8:0]

``PR`` is the predicate field: 0 = unpredicated, 2 = predicated on false,
3 = predicated on true (1 is reserved).  Immediates and branch offsets are
signed two's complement.  Branch offsets are in bytes relative to the base
address of the containing block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .opcodes import BY_MNEMONIC, DECODING, Format, Opcode
from .targets import NO_TARGET_BITS, Target, decode_optional, encode_optional

# Field widths.
IMM_I_BITS = 14     # I-format immediate
IMM_LS_BITS = 9     # load/store immediate
OFFSET_BITS = 20    # branch offset
CONST_BITS = 16     # C-format constant
LSID_BITS = 5
EXIT_BITS = 3

# PR field values.
PR_NONE = 0
PR_FALSE = 2
PR_TRUE = 3


class EncodingError(ValueError):
    """A field value does not fit its format, or a word is malformed."""


def _signed_fits(value: int, bits: int) -> bool:
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


def _to_unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def _to_signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


@dataclass
class Instruction:
    """One decoded TRIPS body instruction.

    Only the fields meaningful for ``opcode.format`` are used; the others
    stay at their defaults.  ``pred`` is ``None`` for unpredicated
    instructions, or ``True``/``False`` for instructions that fire when the
    arriving predicate is 1/0 respectively.
    """

    opcode: Opcode
    pred: Optional[bool] = None
    targets: List[Target] = field(default_factory=list)
    imm: int = 0          # I and L/S formats
    lsid: int = 0         # L/S formats
    exit_no: int = 0      # B format
    offset: int = 0       # B format (byte offset from block base)
    const: int = 0        # C format (signed 16-bit)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`EncodingError` if any field is out of range."""
        fmt = self.opcode.format
        max_targets = self.opcode.max_targets
        if len(self.targets) > max_targets:
            raise EncodingError(
                f"{self.opcode.mnemonic}: {len(self.targets)} targets, "
                f"format {fmt.value} allows {max_targets}")
        if fmt is Format.C and self.pred is not None:
            raise EncodingError("constant instructions cannot be predicated")
        if fmt is Format.I and not _signed_fits(self.imm, IMM_I_BITS):
            raise EncodingError(f"immediate {self.imm} exceeds {IMM_I_BITS} bits")
        if fmt in (Format.L, Format.S):
            if not _signed_fits(self.imm, IMM_LS_BITS):
                raise EncodingError(f"mem immediate {self.imm} exceeds {IMM_LS_BITS} bits")
            if not 0 <= self.lsid < 32:
                raise EncodingError(f"LSID {self.lsid} out of range")
        if fmt is Format.B:
            if not 0 <= self.exit_no < 8:
                raise EncodingError(f"exit number {self.exit_no} out of range")
            if not _signed_fits(self.offset, OFFSET_BITS):
                raise EncodingError(f"branch offset {self.offset} exceeds {OFFSET_BITS} bits")
        if fmt is Format.C and not _signed_fits(self.const, CONST_BITS):
            raise EncodingError(f"constant {self.const} exceeds {CONST_BITS} bits")

    # ------------------------------------------------------------------
    @property
    def pr_bits(self) -> int:
        if self.pred is None:
            return PR_NONE
        return PR_TRUE if self.pred else PR_FALSE

    def _target(self, index: int) -> Optional[Target]:
        return self.targets[index] if index < len(self.targets) else None

    def encode(self) -> int:
        """Pack this instruction into its 32-bit word.

        The fields were range-checked by :meth:`validate` when the
        instruction was built; whoever changes a field afterwards
        re-validates it (:meth:`ProgramBuilder.finish` does, for the
        branch offsets it resolves).
        """
        op = self.opcode.code << 25
        fmt = self.opcode.format
        pr = self.pr_bits << 23
        if fmt is Format.G:
            t0 = encode_optional(self._target(0))
            t1 = encode_optional(self._target(1))
            return op | pr | (t1 << 9) | t0
        if fmt is Format.I:
            return op | pr | (_to_unsigned(self.imm, IMM_I_BITS) << 9) \
                | encode_optional(self._target(0))
        if fmt is Format.L:
            return op | pr | (self.lsid << 18) \
                | (_to_unsigned(self.imm, IMM_LS_BITS) << 9) \
                | encode_optional(self._target(0))
        if fmt is Format.S:
            return op | pr | (self.lsid << 18) \
                | (_to_unsigned(self.imm, IMM_LS_BITS) << 9)
        if fmt is Format.B:
            # B-format has no room for a target word; CALLO's optional write
            # target is packed into the low bits of OFFSET's spare space.
            # OFFSET occupies [19:0]; the optional write-slot target uses a
            # side table in the block header in real TRIPS.  We keep the
            # offset full-width and encode CALLO's link target (always a
            # write slot, 0..31) plus a validity bit in bits [19:14] of the
            # EXIT-extended region... which do not exist.  Instead, CALLO
            # link targets are restricted to offsets that fit 14 bits and
            # the target is stored in bits [19:14] shifted form below.
            if self.targets:
                tgt = self.targets[0]
                if tgt.kind.name != "WRITE":
                    raise EncodingError("branch target must be a write slot")
                if not _signed_fits(self.offset, IMM_I_BITS):
                    raise EncodingError("callo offset too wide with link target")
                packed = (1 << 19) | (tgt.slot << 14) \
                    | _to_unsigned(self.offset, IMM_I_BITS)
            else:
                if not _signed_fits(self.offset, OFFSET_BITS - 1):
                    raise EncodingError("branch offset exceeds 19 bits")
                packed = _to_unsigned(self.offset, OFFSET_BITS - 1)
            return op | pr | (self.exit_no << 20) | packed
        if fmt is Format.C:
            return op | (_to_unsigned(self.const, CONST_BITS) << 9) \
                | encode_optional(self._target(0))
        raise EncodingError(f"unknown format {fmt}")  # pragma: no cover

    # ------------------------------------------------------------------
    @classmethod
    def decode(cls, word: int) -> "Instruction":
        """Unpack a 32-bit word back into an :class:`Instruction`."""
        if not 0 <= word < (1 << 32):
            raise EncodingError(f"word {word:#x} is not 32 bits")
        opbits = (word >> 25) & 0x7F
        if opbits not in DECODING:
            raise EncodingError(f"unknown opcode bits {opbits:#x}")
        opcode = DECODING[opbits]
        fmt = opcode.format
        if fmt is Format.C:
            pred = None  # the constant field overlaps PR's bit positions
        else:
            pr = (word >> 23) & 0x3
            if pr == 1:
                raise EncodingError("reserved PR encoding 01")
            pred = None if pr == PR_NONE else (pr == PR_TRUE)
        if fmt is Format.G:
            t0 = decode_optional(word & 0x1FF)
            t1 = decode_optional((word >> 9) & 0x1FF)
            targets = [t for t in (t0, t1) if t is not None]
            return cls(opcode, pred, targets)
        if fmt is Format.I:
            t0 = decode_optional(word & 0x1FF)
            return cls(opcode, pred, [t0] if t0 else [],
                       imm=_to_signed((word >> 9) & 0x3FFF, IMM_I_BITS))
        if fmt is Format.L:
            t0 = decode_optional(word & 0x1FF)
            return cls(opcode, pred, [t0] if t0 else [],
                       imm=_to_signed((word >> 9) & 0x1FF, IMM_LS_BITS),
                       lsid=(word >> 18) & 0x1F)
        if fmt is Format.S:
            return cls(opcode, pred, [],
                       imm=_to_signed((word >> 9) & 0x1FF, IMM_LS_BITS),
                       lsid=(word >> 18) & 0x1F)
        if fmt is Format.B:
            exit_no = (word >> 20) & 0x7
            packed = word & 0xFFFFF
            if packed >> 19:  # link-target form (CALLO)
                slot = (packed >> 14) & 0x1F
                offset = _to_signed(packed & 0x3FFF, IMM_I_BITS)
                from .targets import OperandKind
                return cls(opcode, pred, [Target(slot, OperandKind.WRITE)],
                           exit_no=exit_no, offset=offset)
            return cls(opcode, pred, [], exit_no=exit_no,
                       offset=_to_signed(packed, OFFSET_BITS - 1))
        if fmt is Format.C:
            t0 = decode_optional(word & 0x1FF)
            return cls(opcode, None, [t0] if t0 else [],
                       const=_to_signed((word >> 9) & 0xFFFF, CONST_BITS))
        raise EncodingError(f"unknown format {fmt}")  # pragma: no cover

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = [self.opcode.mnemonic]
        if self.pred is not None:
            parts[0] += "_t" if self.pred else "_f"
        fmt = self.opcode.format
        if fmt is Format.I:
            parts.append(f"#{self.imm}")
        elif fmt in (Format.L, Format.S):
            parts.append(f"L[{self.lsid}]")
            parts.append(f"#{self.imm}")
        elif fmt is Format.B:
            parts.append(f"exit{self.exit_no}")
            parts.append(f"@{self.offset:+d}")
        elif fmt is Format.C:
            parts.append(f"#{self.const}")
        parts.extend(str(t) for t in self.targets)
        return " ".join(parts)


def make(mnemonic: str, **kwargs) -> Instruction:
    """Convenience constructor: ``make("addi", imm=4, targets=[...])``."""
    pred = kwargs.pop("pred", None)
    if mnemonic.endswith("_t"):
        mnemonic, pred = mnemonic[:-2], True
    elif mnemonic.endswith("_f"):
        mnemonic, pred = mnemonic[:-2], False
    if mnemonic not in BY_MNEMONIC:
        raise EncodingError(f"unknown mnemonic {mnemonic!r}")
    return Instruction(BY_MNEMONIC[mnemonic], pred=pred, **kwargs)
