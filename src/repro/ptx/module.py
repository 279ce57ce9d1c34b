"""PTX module: one kernel's translation unit, stream and text.

A :class:`PTXModule` owns one ``.entry`` kernel (our code generators
emit one kernel per expression, as in QDP-JIT) and renders it as PTX
assembly text.  The text's sha256 names the kernel in the driver's
store (:mod:`repro.driver`); in-process the driver JIT compiles the
module's own instruction stream, and the text is parsed only where it
crosses a boundary — the language boundary between code generation
and execution the paper relies on (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builder import KernelBuilder
from .isa import Instruction, KernelInfo, PTXType


PTX_VERSION = "3.1"
PTX_TARGET = "sm_35"  # Kepler GK110, as in the paper's K20x/K20m


@dataclass
class PTXModule:
    """A complete PTX translation unit (header + one entry kernel)."""

    info: KernelInfo
    instructions: list[Instruction]
    #: the builder's template table, one entry per instruction
    #: (:meth:`KernelBuilder.emit`); not rendered
    templates: list | None = field(default=None, compare=False)

    @classmethod
    def from_builder(cls, builder: KernelBuilder) -> "PTXModule":
        info = builder.finish()
        return cls(info=info, instructions=list(builder.instructions),
                   templates=list(builder.templates))

    @property
    def name(self) -> str:
        return self.info.name

    def render(self) -> str:
        """Emit the module as PTX assembly text."""
        lines = [
            f".version {PTX_VERSION}",
            f".target {PTX_TARGET}",
            ".address_size 64",
            "",
            f".visible .entry {self.info.name}(",
        ]
        plines = []
        for p in self.info.params:
            suffix = " .ptr .global" if p.is_pointer else ""
            plines.append(f"    .param .{p.type.value}{suffix} {p.name}")
        lines.append(",\n".join(plines))
        lines.append(")")
        lines.append("{")
        # register declarations
        for tname, count in self.info.regs_per_thread.items():
            t = PTXType(tname)
            lines.append(f"    .reg .{t.value} {t.reg_prefix}<{count}>;")
        lines.append("")
        for inst in self.instructions:
            text = inst.render()
            indent = "" if inst.opcode == "label" else "    "
            lines.append(indent + text)
        lines.append("}")
        return "\n".join(lines) + "\n"

    # Resource summary used by the device occupancy model.
    @property
    def regs_per_thread(self) -> int:
        return self.info.total_regs_per_thread
