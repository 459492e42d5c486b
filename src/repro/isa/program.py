"""Program container: assembled text, initialised data, and symbols.

Memory map (chosen to mirror the conventional MIPS user-space layout):

* text starts at :data:`TEXT_BASE` — instruction addresses are byte
  addresses, four bytes per instruction,
* static data starts at :data:`DATA_BASE`,
* the stack pointer starts at :data:`STACK_TOP` and grows down,
* a heap region for dynamically carved allocations starts at
  :data:`HEAP_BASE` and grows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
STACK_TOP = 0x7FFF_FFF0
WORD = 4


class ProgramError(ValueError):
    """Raised for malformed programs (bad labels, unaligned data, ...)."""


@dataclass
class Program:
    """An assembled program ready for functional simulation.

    ``text`` holds instructions in program order; instruction *i* lives at
    byte address ``TEXT_BASE + 4*i``.  ``data`` maps byte addresses to
    initialised bytes.  ``symbols`` maps label names to byte addresses (code
    and data labels share one namespace).
    """

    text: list[Instruction] = field(default_factory=list)
    data: dict[int, int] = field(default_factory=dict)  # addr -> byte value
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = TEXT_BASE

    @property
    def num_instructions(self) -> int:
        return len(self.text)

    def address_of(self, index: int) -> int:
        """Byte address of the instruction at word index ``index``."""
        return TEXT_BASE + WORD * index

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise ProgramError(f"undefined symbol {name!r}") from None
