"""Functional (architectural) simulator for the ISA subset.

Executes an assembled :class:`~repro.isa.program.Program` with full MIPS
branch-delay-slot semantics and emits one trace record per dynamic
instruction (see :mod:`repro.func.trace` for the record format).  The
machine models architectural state only — registers, HI/LO, the FP register
file, the FP condition flag, and memory — the timing models live in
:mod:`repro.core`.

A run decodes ``program.text`` once into one step closure per static
instruction, bound to this run's registers and memory, with the record's
static fields resolved at decode time: most steps append one shared record,
a conditional branch picks one of two, and only loads, stores, ``jr`` and
``jalr`` build one around a dynamic address.  A step returns ``None`` to
fall through, a taken target, or ``_HALT``.

FP values are held as Python floats in the register file and converted to
IEEE-754 bit patterns only at memory boundaries; the paper's study is a
timing study, so rounding-mode fidelity inside the register file is not
required (documented in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from repro.func.memory import SparseMemory
from repro.func.trace import FP_REG_BASE, HI_REG, NO_REG, TraceRecord, TraceStats, compute_stats
from repro.isa.instructions import Instruction, Kind
from repro.isa.program import STACK_TOP, TEXT_BASE, WORD, Program

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x8000_0000

#: Step return value that stops the run after the current instruction.
_HALT = -1


class SimulationError(Exception):
    """Raised for runaway programs, bad control flow, or illegal state."""


def _s32(value: int) -> int:
    """Wrap to signed 32-bit."""
    return ((value + _SIGN32) & _MASK32) - _SIGN32


def _u32(value: int) -> int:
    return value & _MASK32


@dataclass
class MachineResult:
    """Outcome of one functional run."""

    trace: list[TraceRecord]
    instructions: int
    halted: bool
    registers: list[int]
    fp_registers: list[float]
    memory: SparseMemory
    program: Program

    def stats(self, line_size: int = 32) -> TraceStats:
        return compute_stats(self.trace, line_size=line_size)


@dataclass
class Machine:
    """Architectural state plus the execution engine."""

    program: Program
    collect_trace: bool = True
    memory: SparseMemory = field(default_factory=SparseMemory)

    def __post_init__(self) -> None:
        self.regs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.hi = 0
        self.lo = 0
        self.fp_cond = False
        self.regs[29] = STACK_TOP  # $sp
        self.memory.load_initial(self.program.data)

    # ------------------------------------------------------------------ run

    def run(self, max_instructions: int = 5_000_000) -> MachineResult:
        """Execute until ``halt`` or ``max_instructions`` (then raise)."""
        text = self.program.text
        base = TEXT_BASE
        trace: list[TraceRecord] = []
        append = trace.append if self.collect_trace else lambda record: None
        steps = [
            _DECODERS[ins.op](self, ins, base + WORD * index, append)
            for index, ins in enumerate(text)
        ]
        pc = self.program.entry
        npc = pc + WORD
        executed = 0
        limit = max_instructions
        text_end = base + len(text) * WORD
        while True:
            if not base <= pc < text_end:
                raise SimulationError(f"control flow left the text segment: pc={pc:#x}")
            if pc & 3:
                raise SimulationError(f"misaligned pc={pc:#x}: instructions are word-aligned")
            target = steps[(pc - base) >> 2]()
            executed += 1
            if target is None:
                pc = npc
                npc += WORD
            elif target == _HALT:
                break
            else:
                pc = npc
                npc = target
            if executed >= limit:
                raise SimulationError(
                    f"exceeded max_instructions={max_instructions} "
                    "without reaching halt"
                )
        return MachineResult(
            trace=trace,
            instructions=executed,
            halted=True,
            registers=list(self.regs),
            fp_registers=list(self.fregs),
            memory=self.memory,
            program=self.program,
        )


def _to_int(value: float, ins: Instruction, pc: int) -> int:
    """Truncate an FP register value to an integer, as the conversions do."""
    if not math.isfinite(value):
        raise SimulationError(f"{ins.op} at pc={pc:#x}: {value} has no integer value")
    return int(value)


# ---------------------------------------------------------------------------
# Decoders.  ``_DECODERS[op](machine, ins, pc, append)`` returns the step
# closure of one static instruction; the table is built once at import.
# ---------------------------------------------------------------------------

_DECODERS: dict = {}

_ALU = int(Kind.ALU)
_BRANCH = int(Kind.BRANCH)
_JUMP = int(Kind.JUMP)


def _reg(r: int) -> int:
    """Unified id of integer register ``r`` ($zero is no dependency)."""
    return r if r != 0 else NO_REG


def _fp_id(f: int) -> int:
    return FP_REG_BASE + f


def _dest(machine: Machine, rd: int) -> tuple[list[int], int]:
    """(register file, index) an integer write to ``rd`` lands in; writes
    to $zero land in a throwaway cell."""
    return (machine.regs, rd) if rd != 0 else ([0], 0)


# -- integer ALU ---------------------------------------------------------------

_ALU_RRR = {
    "addu": lambda a, b: a + b,
    "subu": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: ~(a | b),
    "slt": lambda a, b: 1 if a < b else 0,
    "sltu": lambda a, b: 1 if _u32(a) < _u32(b) else 0,
    "sllv": lambda a, b: a << (b & 31),
    "srlv": lambda a, b: _u32(a) >> (b & 31),
    "srav": lambda a, b: a >> (b & 31),
}

_ALU_RRI = {
    "addiu": lambda a, imm: a + imm,
    "andi": lambda a, imm: a & (imm & 0xFFFF),
    "ori": lambda a, imm: a | (imm & 0xFFFF),
    "xori": lambda a, imm: a ^ (imm & 0xFFFF),
    "slti": lambda a, imm: 1 if a < imm else 0,
    "sltiu": lambda a, imm: 1 if _u32(a) < _u32(imm) else 0,
    "sll": lambda a, imm: a << (imm & 31),
    "srl": lambda a, imm: _u32(a) >> (imm & 31),
    "sra": lambda a, imm: a >> (imm & 31),
}


def _make_rrr(fn):
    def decode(machine: Machine, ins: Instruction, pc: int, append):
        regs = machine.regs
        out, rd = _dest(machine, ins.rd)
        rs, rt = ins.rs, ins.rt
        record = (pc, _ALU, _reg(rd), _reg(rs), _reg(rt), 0)

        def step():
            # _s32 inlined: ALU steps are nearly half of all instructions.
            out[rd] = ((fn(regs[rs], regs[rt]) + _SIGN32) & _MASK32) - _SIGN32
            append(record)

        return step

    return decode


def _make_rri(fn):
    def decode(machine: Machine, ins: Instruction, pc: int, append):
        regs = machine.regs
        out, rd = _dest(machine, ins.rd)
        rs, imm = ins.rs, ins.imm
        record = (pc, _ALU, _reg(rd), _reg(rs), NO_REG, 0)

        def step():
            out[rd] = ((fn(regs[rs], imm) + _SIGN32) & _MASK32) - _SIGN32
            append(record)

        return step

    return decode


for _name, _fn in _ALU_RRR.items():
    _DECODERS[_name] = _make_rrr(_fn)
for _name, _fn in _ALU_RRI.items():
    _DECODERS[_name] = _make_rri(_fn)


def _lui(machine: Machine, ins: Instruction, pc: int, append):
    out, rd = _dest(machine, ins.rd)
    value = _s32((ins.imm & 0xFFFF) << 16)
    record = (pc, _ALU, _reg(rd), NO_REG, NO_REG, 0)

    def step():
        out[rd] = value
        append(record)

    return step


_DECODERS["lui"] = _lui

# -- HI/LO multiply and divide --------------------------------------------------


def _mult(a: int, b: int) -> tuple[int, int]:
    product = a * b
    return _s32(product), _s32(product >> 32)


def _multu(a: int, b: int) -> tuple[int, int]:
    return _mult(_u32(a), _u32(b))


def _div(dividend: int, divisor: int) -> tuple[int, int]:
    if divisor == 0:
        return 0, 0  # R3000 leaves these undefined
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return _s32(quotient), _s32(dividend - quotient * divisor)


def _divu(dividend: int, divisor: int) -> tuple[int, int]:
    dividend, divisor = _u32(dividend), _u32(divisor)
    if divisor == 0:
        return 0, 0
    return _s32(dividend // divisor), _s32(dividend % divisor)


def _make_hilo(fn):
    """``fn(rs value, rt value) -> (lo, hi)``."""

    def decode(machine: Machine, ins: Instruction, pc: int, append):
        regs = machine.regs
        rs, rt = ins.rs, ins.rt
        record = (pc, _ALU, HI_REG, _reg(rs), _reg(rt), 0)

        def step():
            machine.lo, machine.hi = fn(regs[rs], regs[rt])
            append(record)

        return step

    return decode


for _name, _fn in (("mult", _mult), ("multu", _multu), ("div", _div), ("divu", _divu)):
    _DECODERS[_name] = _make_hilo(_fn)


def _move_from_hilo(machine: Machine, ins: Instruction, pc: int, append):
    out, rd = _dest(machine, ins.rd)
    attribute = ins.op[2:]  # mfhi / mflo
    record = (pc, _ALU, _reg(rd), HI_REG, NO_REG, 0)

    def step():
        out[rd] = getattr(machine, attribute)
        append(record)

    return step


_DECODERS["mfhi"] = _DECODERS["mflo"] = _move_from_hilo


# -- loads and stores -------------------------------------------------------------


def _make_load(reader, kind: Kind = Kind.LOAD, **reader_kwargs):
    fp = kind is Kind.FP_LOAD

    def decode(machine: Machine, ins: Instruction, pc: int, append):
        regs = machine.regs
        read = reader.__get__(machine.memory)
        if reader_kwargs:
            read = partial(read, **reader_kwargs)
        if fp:
            out, rd, dst = machine.fregs, ins.fd, _fp_id(ins.fd)
        else:
            (out, rd), dst = _dest(machine, ins.rd), _reg(ins.rd)
        rs, imm, src, code = ins.rs, ins.imm, _reg(ins.rs), int(kind)

        def step():
            address = (regs[rs] + imm) & _MASK32
            out[rd] = read(address)
            append((pc, code, dst, src, NO_REG, address))

        return step

    return decode


def _make_store(writer, kind: Kind = Kind.STORE):
    fp = kind is Kind.FP_STORE

    def decode(machine: Machine, ins: Instruction, pc: int, append):
        regs = machine.regs
        write = writer.__get__(machine.memory)
        values, rt = (machine.fregs, ins.ft) if fp else (regs, ins.rt)
        rs, imm, code = ins.rs, ins.imm, int(kind)
        src1, src2 = _reg(rs), _fp_id(rt) if fp else _reg(rt)

        def step():
            address = (regs[rs] + imm) & _MASK32
            write(address, values[rt])
            append((pc, code, NO_REG, src1, src2, address))

        return step

    return decode


_DECODERS["lw"] = _make_load(SparseMemory.read_word)
_DECODERS["lh"] = _make_load(SparseMemory.read_half, signed=True)
_DECODERS["lhu"] = _make_load(SparseMemory.read_half, signed=False)
_DECODERS["lb"] = _make_load(SparseMemory.read_byte, signed=True)
_DECODERS["lbu"] = _make_load(SparseMemory.read_byte, signed=False)
_DECODERS["lwc1"] = _make_load(SparseMemory.read_float, Kind.FP_LOAD)
_DECODERS["ldc1"] = _make_load(SparseMemory.read_double, Kind.FP_LOAD)
_DECODERS["sw"] = _make_store(SparseMemory.write_word)
_DECODERS["sh"] = _make_store(SparseMemory.write_half)
_DECODERS["sb"] = _make_store(SparseMemory.write_byte)
_DECODERS["swc1"] = _make_store(SparseMemory.write_float, Kind.FP_STORE)
_DECODERS["sdc1"] = _make_store(SparseMemory.write_double, Kind.FP_STORE)


# -- control flow -------------------------------------------------------------------


def _make_cond_branch(test, uses_rt: bool):
    def decode(machine: Machine, ins: Instruction, pc: int, append):
        regs = machine.regs
        rs, rt = ins.rs, ins.rt if uses_rt else 0
        target = TEXT_BASE + WORD * ins.target
        taken = (pc, _BRANCH, NO_REG, _reg(rs), _reg(rt), target)
        untaken = taken[:5] + (0,)

        def step():
            if test(regs[rs], regs[rt]):
                append(taken)
                return target
            append(untaken)
            return None

        return step

    return decode


_DECODERS["beq"] = _make_cond_branch(lambda a, b: a == b, True)
_DECODERS["bne"] = _make_cond_branch(lambda a, b: a != b, True)
_DECODERS["blez"] = _make_cond_branch(lambda a, _: a <= 0, False)
_DECODERS["bgtz"] = _make_cond_branch(lambda a, _: a > 0, False)
_DECODERS["bltz"] = _make_cond_branch(lambda a, _: a < 0, False)
_DECODERS["bgez"] = _make_cond_branch(lambda a, _: a >= 0, False)


def _make_fp_branch(wanted: bool):
    def decode(machine: Machine, ins: Instruction, pc: int, append):
        target = TEXT_BASE + WORD * ins.target
        taken = (pc, _BRANCH, NO_REG, NO_REG, NO_REG, target)
        untaken = taken[:5] + (0,)

        def step():
            if machine.fp_cond is wanted:
                append(taken)
                return target
            append(untaken)
            return None

        return step

    return decode


_DECODERS["bc1t"] = _make_fp_branch(True)
_DECODERS["bc1f"] = _make_fp_branch(False)


def _jump(machine: Machine, ins: Instruction, pc: int, append):
    regs, link = machine.regs, ins.op == "jal"
    target = TEXT_BASE + WORD * ins.target
    record = (pc, _JUMP, 31 if link else NO_REG, NO_REG, NO_REG, target)

    def step():
        if link:
            regs[31] = pc + 2 * WORD  # return past the delay slot
        append(record)
        return target

    return step


def _jump_register(machine: Machine, ins: Instruction, pc: int, append):
    regs = machine.regs
    out, rd = _dest(machine, ins.rd if ins.op == "jalr" else 0)
    rs = ins.rs
    dst, src = _reg(rd), _reg(rs)

    def step():
        target = regs[rs] & _MASK32
        out[rd] = pc + 2 * WORD
        append((pc, _JUMP, dst, src, NO_REG, target))
        return target

    return step


_DECODERS["j"] = _DECODERS["jal"] = _jump
_DECODERS["jr"] = _DECODERS["jalr"] = _jump_register


# -- floating point -----------------------------------------------------------------


def _make_fp_arith(kind: Kind, fn, unary: bool = False):
    """``fn(fs value, ft value)``; a unary op ignores (and records no) ft."""

    def decode(machine: Machine, ins: Instruction, pc: int, append):
        fregs = machine.fregs
        fd, fs, ft = ins.fd, ins.fs, ins.ft
        record = (pc, int(kind), _fp_id(fd), _fp_id(fs), NO_REG if unary else _fp_id(ft), 0)

        def step():
            fregs[fd] = fn(fregs[fs], fregs[ft])
            append(record)

        return step

    return decode


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf") if a < 0 else 0.0
    return a / b


def _safe_sqrt(a: float, _: float) -> float:
    return a**0.5 if a >= 0.0 else 0.0


for _suffix in (".s", ".d"):
    _DECODERS["add" + _suffix] = _make_fp_arith(Kind.FP_ADD, lambda a, b: a + b)
    _DECODERS["sub" + _suffix] = _make_fp_arith(Kind.FP_ADD, lambda a, b: a - b)
    _DECODERS["abs" + _suffix] = _make_fp_arith(Kind.FP_ADD, lambda a, _: abs(a), True)
    _DECODERS["neg" + _suffix] = _make_fp_arith(Kind.FP_ADD, lambda a, _: -a, True)
    _DECODERS["mul" + _suffix] = _make_fp_arith(Kind.FP_MUL, lambda a, b: a * b)
    _DECODERS["div" + _suffix] = _make_fp_arith(Kind.FP_DIV, _safe_div)
    _DECODERS["sqrt" + _suffix] = _make_fp_arith(Kind.FP_DIV, _safe_sqrt, True)
    _DECODERS["mov" + _suffix] = _make_fp_arith(Kind.FP_CVT, lambda a, _: a, True)
for _name in ("cvt.d.s", "cvt.s.d"):
    _DECODERS[_name] = _make_fp_arith(Kind.FP_CVT, lambda a, _: float(a), True)


def _make_fp_compare(test):
    def decode(machine: Machine, ins: Instruction, pc: int, append):
        fregs = machine.fregs
        fs, ft = ins.fs, ins.ft
        record = (pc, int(Kind.FP_ADD), NO_REG, _fp_id(fs), _fp_id(ft), 0)

        def step():
            machine.fp_cond = test(fregs[fs], fregs[ft])
            append(record)

        return step

    return decode


for _suffix in (".s", ".d"):
    _DECODERS["c.eq" + _suffix] = _make_fp_compare(lambda a, b: a == b)
    _DECODERS["c.lt" + _suffix] = _make_fp_compare(lambda a, b: a < b)
    _DECODERS["c.le" + _suffix] = _make_fp_compare(lambda a, b: a <= b)


def _convert_word(machine: Machine, ins: Instruction, pc: int, append):
    """cvt.d.w / cvt.s.w / cvt.w.s / cvt.w.d: truncate to an integer value."""
    fregs = machine.fregs
    fd, fs = ins.fd, ins.fs
    record = (pc, int(Kind.FP_CVT), _fp_id(fd), _fp_id(fs), NO_REG, 0)

    def step():
        fregs[fd] = float(_to_int(fregs[fs], ins, pc))
        append(record)

    return step


for _name in ("cvt.d.w", "cvt.s.w", "cvt.w.s", "cvt.w.d"):
    _DECODERS[_name] = _convert_word


def _mtc1(machine: Machine, ins: Instruction, pc: int, append):
    regs, fregs = machine.regs, machine.fregs
    fd, rt = ins.fd, ins.rt
    record = (pc, int(Kind.FP_MOVE), _fp_id(fd), _reg(rt), NO_REG, 0)

    def step():
        fregs[fd] = float(regs[rt])
        append(record)

    return step


def _mfc1(machine: Machine, ins: Instruction, pc: int, append):
    fregs = machine.fregs
    out, rd = _dest(machine, ins.rd)
    fs = ins.fs
    record = (pc, int(Kind.FP_MOVE), _reg(rd), _fp_id(fs), NO_REG, 0)

    def step():
        out[rd] = _s32(_to_int(fregs[fs], ins, pc))
        append(record)

    return step


_DECODERS["mtc1"] = _mtc1
_DECODERS["mfc1"] = _mfc1


# -- miscellaneous ---------------------------------------------------------------------


def _nop(machine: Machine, ins: Instruction, pc: int, append):
    return partial(append, (pc, int(Kind.NOP), NO_REG, NO_REG, NO_REG, 0))


def _halt(machine: Machine, ins: Instruction, pc: int, append):
    record = (pc, int(Kind.HALT), NO_REG, NO_REG, NO_REG, 0)

    def step():
        append(record)
        return _HALT

    return step


_DECODERS["nop"] = _nop
_DECODERS["halt"] = _halt


def run_program(
    program: Program,
    max_instructions: int = 5_000_000,
    collect_trace: bool = True,
) -> MachineResult:
    """Convenience wrapper: build a Machine, run it, return the result."""
    machine = Machine(program=program, collect_trace=collect_trace)
    return machine.run(max_instructions=max_instructions)
