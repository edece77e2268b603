"""A two-pass MIPS-I assembler for text assembly sources.

Supports the instruction syntax produced by
:mod:`repro.isa.disassembler`, labels, ``.word`` literals, comments
(``#``), and the common pseudo-instructions gcc emits (``nop``,
``move``, ``li``, ``la``, ``b``, ``beqz``, ``bnez``, ``neg``, ``not``).
It exists so the mini compiler and the examples can build *real*
program images — with genuine branch offsets and register allocation —
for the recovery experiments and the CPU simulator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.isa.encoder import encode
from repro.isa.opcodes import (
    INSTRUCTION_SPECS,
    OperandStyle,
    spec_for_mnemonic,
)
from repro.isa.registers import register_number

__all__ = ["assemble", "AssembledProgram"]

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")
_MEM_OPERAND_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))?\(([^)]+)\)$")


@dataclass
class AssembledProgram:
    """The output of :func:`assemble`.

    Attributes
    ----------
    words:
        Encoded 32-bit instruction words in address order.
    labels:
        Label name -> absolute byte address.
    base_address:
        Address of the first word.
    """

    words: list[int]
    labels: dict[str, int]
    base_address: int

    def address_of(self, label: str) -> int:
        """Return the byte address of *label*."""
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblerError(f"unknown label {label!r}") from None


@dataclass
class _Item:
    """One pass-1 item: a literal word or an unencoded instruction."""

    line_number: int
    mnemonic: str = ""
    operands: list[str] = field(default_factory=list)
    literal: int | None = None


def _parse_number(text: str, line_number: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(
            f"line {line_number}: expected a number, got {text!r}"
        ) from None


def _parse_register(text: str, line_number: int) -> int:
    try:
        return register_number(text)
    except ValueError as exc:
        raise AssemblerError(f"line {line_number}: {exc}") from None


def _parse_fp_register(text: str, line_number: int) -> int:
    if text.startswith("$f"):
        try:
            value = int(text[2:])
        except ValueError:
            value = -1
        if 0 <= value < 32:
            return value
    raise AssemblerError(f"line {line_number}: bad FP register {text!r}")


def _split_operands(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")] if text else []


def _expand_pseudo(
    mnemonic: str, operands: list[str], line_number: int
) -> list[_Item]:
    """Expand a pseudo-instruction into real instructions (pass 1)."""

    def item(mnemonic: str, operands: list[str]) -> _Item:
        return _Item(line_number=line_number, mnemonic=mnemonic, operands=operands)

    if mnemonic == "nop":
        return [item("sll", ["$zero", "$zero", "0"])]
    if mnemonic == "move":
        if len(operands) != 2:
            raise AssemblerError(f"line {line_number}: move needs 2 operands")
        return [item("addu", [operands[0], operands[1], "$zero"])]
    if mnemonic in ("li", "la"):
        if len(operands) != 2:
            raise AssemblerError(f"line {line_number}: {mnemonic} needs 2 operands")
        try:
            value = int(operands[1], 0)
        except ValueError:
            # A label operand: its address is unknown until pass 2, so
            # always emit the full lui/ori pair with %hi/%lo relocations.
            return [
                item("lui", [operands[0], f"%hi({operands[1]})"]),
                item("ori", [operands[0], operands[0], f"%lo({operands[1]})"]),
            ]
        if -0x8000 <= value <= 0x7FFF:
            return [item("addiu", [operands[0], "$zero", str(value)])]
        if 0 <= value <= 0xFFFF:
            return [item("ori", [operands[0], "$zero", str(value)])]
        if not -0x80000000 <= value <= 0xFFFFFFFF:
            raise AssemblerError(f"line {line_number}: {value} exceeds 32 bits")
        value &= 0xFFFFFFFF
        high, low = value >> 16, value & 0xFFFF
        first = item("lui", [operands[0], str(high)])
        if low == 0:
            return [first]
        return [first, item("ori", [operands[0], operands[0], str(low)])]
    if mnemonic == "b":
        if len(operands) != 1:
            raise AssemblerError(f"line {line_number}: b needs 1 operand")
        return [item("beq", ["$zero", "$zero", operands[0]])]
    if mnemonic in ("beqz", "bnez", "neg", "not") and len(operands) != 2:
        raise AssemblerError(f"line {line_number}: {mnemonic} needs 2 operands")
    if mnemonic == "beqz":
        return [item("beq", [operands[0], "$zero", operands[1]])]
    if mnemonic == "bnez":
        return [item("bne", [operands[0], "$zero", operands[1]])]
    if mnemonic == "neg":
        return [item("sub", [operands[0], "$zero", operands[1]])]
    if mnemonic == "not":
        return [item("nor", [operands[0], operands[1], "$zero"])]
    raise AssemblerError(f"line {line_number}: unknown mnemonic {mnemonic!r}")


def _resolve_branch_target(
    text: str,
    labels: dict[str, int],
    pc: int,
    line_number: int,
) -> int:
    """Return the signed word offset for a branch operand."""
    if text in labels:
        byte_offset = labels[text] - (pc + 4)
        if byte_offset % 4:
            raise AssemblerError(
                f"line {line_number}: label {text!r} is not word aligned"
            )
        offset = byte_offset >> 2
    else:
        offset = _parse_number(text, line_number)
    if not -0x8000 <= offset <= 0x7FFF:
        raise AssemblerError(
            f"line {line_number}: branch offset {offset} out of 16-bit range"
        )
    return offset


def _encode_item(
    entry: _Item, labels: dict[str, int], pc: int
) -> int:
    line_number = entry.line_number
    mnemonic = entry.mnemonic
    operands = entry.operands
    spec = spec_for_mnemonic(mnemonic)
    style = spec.style

    def need(count: int) -> None:
        if len(operands) != count:
            raise AssemblerError(
                f"line {line_number}: {mnemonic} expects {count} operands, "
                f"got {len(operands)}"
            )

    reg = lambda text: _parse_register(text, line_number)
    fpr = lambda text: _parse_fp_register(text, line_number)

    def num(text: str) -> int:
        relocation = re.match(r"^%(hi|lo)\(([^)]+)\)$", text)
        if relocation is not None:
            label = relocation.group(2)
            if label not in labels:
                raise AssemblerError(
                    f"line {line_number}: unknown label {label!r} in {text}"
                )
            address = labels[label]
            return address >> 16 if relocation.group(1) == "hi" else address & 0xFFFF
        return _parse_number(text, line_number)

    if style is OperandStyle.THREE_REG:
        need(3)
        return encode(mnemonic, rd=reg(operands[0]), rs=reg(operands[1]),
                      rt=reg(operands[2]))
    if style is OperandStyle.SHIFT_IMMEDIATE:
        need(3)
        return encode(mnemonic, rd=reg(operands[0]), rt=reg(operands[1]),
                      shamt=num(operands[2]))
    if style is OperandStyle.SHIFT_VARIABLE:
        need(3)
        return encode(mnemonic, rd=reg(operands[0]), rt=reg(operands[1]),
                      rs=reg(operands[2]))
    if style is OperandStyle.JUMP_REGISTER:
        need(1)
        return encode(mnemonic, rs=reg(operands[0]))
    if style is OperandStyle.JUMP_LINK_REGISTER:
        if len(operands) == 1:
            return encode(mnemonic, rd=31, rs=reg(operands[0]))
        need(2)
        return encode(mnemonic, rd=reg(operands[0]), rs=reg(operands[1]))
    if style is OperandStyle.MOVE_FROM_HILO:
        need(1)
        return encode(mnemonic, rd=reg(operands[0]))
    if style is OperandStyle.MOVE_TO_HILO:
        need(1)
        return encode(mnemonic, rs=reg(operands[0]))
    if style in (OperandStyle.MULT_DIV, OperandStyle.TRAP_TWO_REG):
        need(2)
        return encode(mnemonic, rs=reg(operands[0]), rt=reg(operands[1]))
    if style is OperandStyle.NO_OPERANDS:
        need(0)
        return encode(mnemonic)
    if style in (OperandStyle.IMMEDIATE_ARITH, OperandStyle.IMMEDIATE_LOGIC):
        need(3)
        return encode(mnemonic, rt=reg(operands[0]), rs=reg(operands[1]),
                      imm=num(operands[2]))
    if style is OperandStyle.LOAD_UPPER:
        need(2)
        return encode(mnemonic, rt=reg(operands[0]), imm=num(operands[1]))
    if style in (OperandStyle.LOAD_STORE, OperandStyle.COP_LOAD_STORE,
                 OperandStyle.CACHE_OP):
        need(2)
        match = _MEM_OPERAND_RE.match(operands[1].replace(" ", ""))
        if match is None:
            raise AssemblerError(
                f"line {line_number}: bad memory operand {operands[1]!r}"
            )
        offset = int(match.group(1), 0) if match.group(1) else 0
        base = _parse_register(match.group(2), line_number)
        if style is OperandStyle.COP_LOAD_STORE:
            first = fpr(operands[0]) if operands[0].startswith("$f") else reg(operands[0])
        elif style is OperandStyle.CACHE_OP:
            first = num(operands[0])
        else:
            first = reg(operands[0])
        return encode(mnemonic, rt=first, rs=base, imm=offset)
    if style is OperandStyle.BRANCH_TWO_REG:
        need(3)
        offset = _resolve_branch_target(operands[2], labels, pc, line_number)
        return encode(mnemonic, rs=reg(operands[0]), rt=reg(operands[1]),
                      imm=offset)
    if style is OperandStyle.BRANCH_ONE_REG:
        need(2)
        offset = _resolve_branch_target(operands[1], labels, pc, line_number)
        return encode(mnemonic, rs=reg(operands[0]), imm=offset)
    if style is OperandStyle.TRAP_IMMEDIATE:
        need(2)
        return encode(mnemonic, rs=reg(operands[0]), imm=num(operands[1]))
    if style is OperandStyle.JUMP_TARGET:
        need(1)
        if operands[0] in labels:
            address = labels[operands[0]]
        else:
            address = num(operands[0])
        if address % 4:
            raise AssemblerError(
                f"line {line_number}: jump target 0x{address:x} not aligned"
            )
        if (address & 0xF0000000) != ((pc + 4) & 0xF0000000):
            raise AssemblerError(
                f"line {line_number}: jump target 0x{address:x} outside the "
                "current 256 MiB region"
            )
        return encode(mnemonic, target=(address >> 2) & 0x3FFFFFF)
    if style is OperandStyle.FP_THREE_REG:
        need(3)
        return encode(mnemonic, fd=fpr(operands[0]), fs=fpr(operands[1]),
                      ft=fpr(operands[2]))
    if style is OperandStyle.FP_TWO_REG:
        need(2)
        return encode(mnemonic, fd=fpr(operands[0]), fs=fpr(operands[1]))
    if style is OperandStyle.FP_COMPARE:
        need(2)
        return encode(mnemonic, fs=fpr(operands[0]), ft=fpr(operands[1]))
    if style is OperandStyle.COP_TRANSFER:
        need(2)
        return encode(mnemonic, rt=reg(operands[0]), rd=reg(operands[1]))
    if style is OperandStyle.COP_OPERATION:
        need(0)
        return encode(mnemonic)
    raise AssemblerError(
        f"line {line_number}: no encoder for style {style}"
    )


def assemble(source: str, base_address: int = 0) -> AssembledProgram:
    """Assemble MIPS-I source text into an :class:`AssembledProgram`.

    Two passes: the first expands pseudo-instructions and assigns
    addresses to labels, the second encodes with all labels resolved.
    """
    items: list[_Item] = []
    labels: dict[str, int] = {}
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        # A line may carry "label: instruction".
        while True:
            match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*", line)
            if match is None:
                break
            label = match.group(1)
            if label in labels:
                raise AssemblerError(
                    f"line {line_number}: duplicate label {label!r}"
                )
            labels[label] = base_address + 4 * len(items)
            line = line[match.end():]
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = _split_operands(operand_text)
        if mnemonic == ".word":
            for operand in operands:
                value = _parse_number(operand, line_number)
                items.append(_Item(line_number=line_number, literal=value & 0xFFFFFFFF))
            continue
        if mnemonic in INSTRUCTION_SPECS:
            items.append(
                _Item(line_number=line_number, mnemonic=mnemonic, operands=operands)
            )
        else:
            items.extend(_expand_pseudo(mnemonic, operands, line_number))

    words = []
    for index, entry in enumerate(items):
        if entry.literal is not None:
            words.append(entry.literal)
            continue
        pc = base_address + 4 * index
        words.append(_encode_item(entry, labels, pc))
    return AssembledProgram(words=words, labels=labels, base_address=base_address)
