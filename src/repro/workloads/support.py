"""Shared helpers for workload kernels.

Every SPEC92-analogue kernel is a real assembly program built with
:class:`repro.isa.Assembler`.  This module provides the common idioms —
MIPS o32-style call prologue/epilogue, a deterministic pseudo-random
generator for initialising data segments, and a tiny framework for
registering kernels — so the per-benchmark modules contain only the
algorithm itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.assembler import Assembler
from repro.isa.program import Program


class Lcg:
    """Deterministic 32-bit linear congruential generator (Numerical
    Recipes constants).  Used to synthesise input data at build time so
    every trace is reproducible."""

    def __init__(self, seed: int = 0x12345678) -> None:
        self.state = seed & 0xFFFFFFFF

    def next_u32(self) -> int:
        self.state = (self.state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self.state

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u32() % bound

    def next_float(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * (self.next_u32() / 2**32)


@dataclass
class Frame:
    """A stack frame: which callee-saved registers to preserve."""

    saved: tuple[str, ...] = ()
    extra_bytes: int = 0

    @property
    def size(self) -> int:
        raw = 4 * (len(self.saved) + 1) + self.extra_bytes  # +1 for $ra
        return (raw + 7) & ~7  # 8-byte aligned


def enter(asm: Assembler, frame: Frame) -> None:
    """Function prologue: allocate the frame, save $ra and callee-saves."""
    asm.addiu("sp", "sp", -frame.size)
    asm.sw("ra", frame.size - 4, "sp")
    for i, reg in enumerate(frame.saved):
        asm.sw(reg, frame.size - 8 - 4 * i, "sp")


def leave(asm: Assembler, frame: Frame) -> None:
    """Function epilogue: restore registers, pop the frame, return."""
    for i, reg in enumerate(frame.saved):
        asm.lw(reg, frame.size - 8 - 4 * i, "sp")
    asm.lw("ra", frame.size - 4, "sp")
    with asm.noreorder():
        asm.jr("ra")
        asm.addiu("sp", "sp", frame.size)


def call(asm: Assembler, target: str) -> None:
    """Call a function, filling the delay slot with a nop."""
    asm.jal(target)


_UNIQUE = [0]


def unique_label(prefix: str) -> str:
    """Generate a program-unique label (for helper-emitted control flow)."""
    _UNIQUE[0] += 1
    return f"{prefix}__{_UNIQUE[0]}"


_LIB_OPS = ("xor", "addu", "or", "subu", "and")
#: Byte strides for library scans.  Mostly non-unit *line* strides (a
#: 32-byte line per step or more) so the accesses defeat next-sequential
#: stream buffers, the way scattered heap/structure accesses do.
_LIB_STRIDES = (16, 32, 32, 64, 80)


def emit_library(
    asm: Assembler,
    rng: Lcg,
    prefix: str,
    routines: int,
    data_label: str,
    data_words: int,
    steps: int = 8,
) -> list[str]:
    """Generate ``routines`` distinct straight-line helper functions.

    Real SPEC binaries carry large bodies of support code (string/IO/alloc
    routines, printf, ...) that inflate the instruction footprint well past
    the hot kernels; at the paper's 1-4 KB I-cache sizes that support code
    is what produces I-cache misses and sequential I-prefetch streams.
    Each generated routine is a unique *fully unrolled* read-modify-write
    scan (distinct constants, operations, strides, and epilogues) over a
    window of ``data_label``.  Straight-line bodies mean every dynamic
    execution walks fresh code lines — the property that gives real
    programs their I-cache miss rates.  Returns the routine names, to be
    ``jal``-ed round-robin by the kernel's main loop.

    Calling convention: each routine takes its window *offset in bytes*
    in ``a0`` and clobbers only t-registers, ``a0`` and ``v0``.
    """
    names: list[str] = []
    for index in range(routines):
        name = f"{prefix}_lib{index}"
        names.append(name)
        op_a = _LIB_OPS[rng.next_below(len(_LIB_OPS))]
        op_b = _LIB_OPS[rng.next_below(len(_LIB_OPS))]
        constant = rng.next_below(0x7FFF)
        shift = 1 + rng.next_below(7)
        # Routine archetypes, echoing real support code:
        #   seq_rw     — sprintf/memcpy-like: dense sequential writes
        #   scatter_ro — lookup/strcmp-like: scattered reads, one result
        #   scatter_rw — structure-update-like: scattered read-mod-write
        archetype_pick = rng.next_below(10)
        if archetype_pick < 4:
            archetype, stride = "seq_rw", 4
        elif archetype_pick < 8:
            archetype = "scatter_ro"
            stride = _LIB_STRIDES[rng.next_below(len(_LIB_STRIDES))]
        else:
            archetype = "scatter_rw"
            stride = _LIB_STRIDES[rng.next_below(len(_LIB_STRIDES))]
        spills = index % 4 == 0  # some routines spill callee-saves
        span = steps * stride
        max_base = max(4, 4 * data_words - span - 8)
        asm.label(name)
        if spills:
            asm.addiu("sp", "sp", -16)
            asm.sw("s0", 0, "sp")
            asm.sw("s1", 4, "sp")
        asm.la("t0", data_label)
        asm.addu("t0", "t0", "a0")
        asm.li("t8", constant)
        asm.li("v0", 0)
        offset = 0
        for step in range(steps):
            asm.lw("t2", offset, "t0")
            asm.op(op_a, "t2", "t2", "t8")
            asm.sll("t3", "t2", shift)
            asm.op(op_b, "t2", "t2", "t3")
            if (index + step) % 3 == 0:
                asm.addiu("t4", "t2", index + step + 1)
                asm.xor("t2", "t2", "t4")
            asm.addu("v0", "v0", "t2")
            if archetype == "seq_rw" or (
                archetype == "scatter_rw" and step % 2 == 0
            ):
                asm.sw("t2", offset, "t0")
            offset += stride
        if spills:
            asm.lw("s0", 0, "sp")
            asm.lw("s1", 4, "sp")
            asm.addiu("sp", "sp", 16)
        asm.jr("ra")
        # stash for emit_library_calls to bound offsets
        _LIB_SPANS[name] = max_base
    return names


#: routine name -> largest safe a0 offset (bytes)
_LIB_SPANS: dict[str, int] = {}


def emit_library_calls(
    asm: Assembler,
    names: list[str],
    rng: Lcg,
    data_words: int,
) -> None:
    """Emit one round of ``jal`` calls to every library routine.

    Each call gets a distinct in-range window offset in ``a0``.  Keeps
    ``s``-registers untouched, so kernels can embed a round anywhere.
    """
    for name in names:
        limit = _LIB_SPANS.get(name, 4 * data_words // 2)
        offset = 4 * rng.next_below(max(1, limit // 4))
        asm.li("a0", offset)
        asm.jal(name)


def emit_library_round(
    asm: Assembler,
    round_label: str,
    names: list[str],
    rng: Lcg,
    data_words: int,
) -> None:
    """Emit a ``round_label`` function that calls every listed routine.

    Kernels ``jal round_label`` from their outer loops; the round saves
    ``$ra``, fans out to each routine with a distinct window, and returns.
    """
    asm.label(round_label)
    asm.addiu("sp", "sp", -8)
    asm.sw("ra", 4, "sp")
    emit_library_calls(asm, names, rng, data_words)
    asm.lw("ra", 4, "sp")
    with asm.noreorder():
        asm.jr("ra")
        asm.addiu("sp", "sp", 8)


def emit_library_rounds(
    asm: Assembler,
    prefix: str,
    names: list[str],
    rounds: int,
    rng: Lcg,
    data_words: int,
) -> list[str]:
    """Emit ``rounds`` round functions, each over a rotated overlapping
    subset of the library.

    Rotating subsets mean successive rounds execute *different* mixes of
    routines, so a small I-cache keeps churning through the library the
    way a compiler churns through its passes — this is what produces
    paper-like I-cache miss rates on 1-4 KB caches.  Returns the round
    labels, e.g. ``["esp_round0", "esp_round1", ...]``.
    """
    labels = []
    per_round = max(1, (2 * len(names)) // max(rounds, 2))
    for index in range(rounds):
        start = (index * per_round // 2) % len(names)
        subset = [names[(start + k) % len(names)] for k in range(per_round)]
        # Shuffle the call order so successive routines are not adjacent
        # in memory (keeps the I-stream from looking purely sequential).
        for i in range(len(subset) - 1, 0, -1):
            j = rng.next_below(i + 1)
            subset[i], subset[j] = subset[j], subset[i]
        label = f"{prefix}_round{index}"
        labels.append(label)
        emit_library_round(asm, label, subset, rng, data_words)
    return labels


def emit_round_dispatcher(
    asm: Assembler, label: str, round_labels: list[str]
) -> None:
    """Emit ``label``: call ``round_labels[a0 % len]`` (len must be 2^k).

    Gives kernels a single call site that rotates through the library
    rounds as a counter advances.
    """
    count = len(round_labels)
    if count & (count - 1) != 0:
        raise ValueError("number of rounds must be a power of two")
    asm.label(label)
    asm.addiu("sp", "sp", -8)
    asm.sw("ra", 4, "sp")
    asm.andi("t9", "a0", count - 1)
    for index, round_label in enumerate(round_labels):
        skip = unique_label(f"{label}_skip")
        asm.li("t7", index)
        asm.bne("t9", "t7", skip)
        asm.jal(round_label)
        asm.b(f"{label}_out")
        asm.label(skip)
    asm.label(f"{label}_out")
    asm.lw("ra", 4, "sp")
    with asm.noreorder():
        asm.jr("ra")
        asm.addiu("sp", "sp", 8)


def build_and_check(asm: Assembler) -> Program:
    """Assemble and run basic structural checks common to all kernels."""
    program = asm.assemble()
    if not program.text:
        raise ValueError("kernel produced an empty program")
    if program.text[-1].op != "halt" and all(
        ins.op != "halt" for ins in program.text
    ):
        raise ValueError("kernel has no halt instruction")
    return program
