"""The IR pass pipeline: ``REPRO_IR`` entry point for kernel builds.

:func:`prepare_module` sits between the expression unparser and the
PTX verifier on every kernel build path (eager statements, fused
groups, reduction partials, halo face copies):

``off``
    Return the module untouched — the build is byte-for-byte the
    pre-IR pipeline.
``verify`` (default)
    Build the SSA view and check the structural invariants
    (:mod:`repro.ir.verify`); return the *original* module object, so
    rendered text, resource metadata and byte accounting are bitwise
    identical to ``off``.
``opt``
    Additionally run the optimization passes (GVN, redundant-load
    hoisting, strength reduction, rematerialization, DCE,
    register-pressure sink — see :data:`DEFAULT_PIPELINE`),
    re-verifying the SSA structure after each, then renumber
    registers compactly and rebuild the resource metadata.  Results
    stay bitwise identical (every rewrite is value-preserving); only
    the instruction stream and the register footprint change.
    ``REPRO_IR_PASSES`` (comma list) selects a subset of passes.  A
    final pressure gate keeps the optimized stream only when its
    liveness-based register footprint is no worse than the input's,
    so ``opt`` can never *raise* a kernel's register count.

Per-pass statistics accumulate into an :class:`IRStats` (hung off
``ctx.stats.ir``) and surface in ``repro.lint --json`` schema 5.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

from ..diagnostics import ir_mode
from ..ptx.builder import register_counts
from ..ptx.isa import Instruction, KernelInfo, PTXType, Register
from ..ptx.liveness import max_live_registers
from ..ptx.module import PTXModule
from .passes import PASSES, _rewrite
from .ssa import SSAFunction
from .verify import assert_ssa

DEFAULT_PIPELINE = tuple(PASSES)

_warned_pass_values: set[str] = set()


def selected_passes() -> tuple[str, ...]:
    """The pass list, honoring the ``REPRO_IR_PASSES`` selection knob.

    A comma-separated subset of :data:`DEFAULT_PIPELINE`; order is
    always pipeline order regardless of how the list is written.
    Unknown names warn once and are dropped.
    """
    raw = os.environ.get("REPRO_IR_PASSES")
    if raw is None:
        return DEFAULT_PIPELINE
    wanted = {p.strip().lower() for p in raw.split(",") if p.strip()}
    unknown = wanted - set(PASSES)
    if unknown and raw not in _warned_pass_values:
        _warned_pass_values.add(raw)
        warnings.warn(
            f"ignoring unknown REPRO_IR_PASSES entr"
            f"{'ies' if len(unknown) > 1 else 'y'} "
            f"{', '.join(sorted(unknown))}: accepted values are "
            f"{', '.join(PASSES)}", RuntimeWarning, stacklevel=3)
    return tuple(name for name in PASSES if name in wanted)


@dataclass
class IRStats:
    """Counters for the IR layer, accumulated across kernel builds."""

    mode: str = ""                  # last REPRO_IR mode a build saw
    modules_verified: int = 0       # SSA views built and checked
    modules_optimized: int = 0      # modules rewritten under ``opt``
    pressure_reverts: int = 0       # optimized streams the gate refused
    instructions_before: int = 0    # totals over optimized modules
    instructions_after: int = 0
    live_regs_before: int = 0       # liveness-based 32-bit slots
    live_regs_after: int = 0
    #: per-pass counters, e.g. ``{"gvn": {"eliminated": 12, ...}}``
    passes: dict = field(default_factory=dict)

    def record_pass(self, name: str, pass_stats: dict,
                    regs_saved: int) -> None:
        bucket = self.passes.setdefault(name, {})
        for k, v in pass_stats.items():
            bucket[k] = bucket.get(k, 0) + v
        bucket["registers_saved"] = (bucket.get("registers_saved", 0)
                                     + regs_saved)

    @property
    def instructions_eliminated(self) -> int:
        return self.instructions_before - self.instructions_after

    @property
    def live_regs_saved(self) -> int:
        return self.live_regs_before - self.live_regs_after

    def as_json(self) -> dict:
        return {
            "mode": self.mode,
            "modules_verified": self.modules_verified,
            "modules_optimized": self.modules_optimized,
            "pressure_reverts": self.pressure_reverts,
            "instructions_before": self.instructions_before,
            "instructions_after": self.instructions_after,
            "live_regs_before": self.live_regs_before,
            "live_regs_after": self.live_regs_after,
            "passes": {name: dict(counters)
                       for name, counters in self.passes.items()},
        }


def _renumber(instructions: list[Instruction]) -> list[Instruction]:
    """Compact per-type register indices in first-definition order.

    After DCE the surviving registers are sparse in the builder's
    numbering; renumbering keeps the rendered declarations (and the
    parser's register tables) sized to what the kernel actually uses.
    """
    mapping: dict = {}
    counters: dict[PTXType, int] = {}
    for inst in instructions:
        if inst.dst is None:
            continue
        key = inst.dst.key
        if key in mapping:
            continue
        idx = counters.get(inst.dst.type, 0)
        counters[inst.dst.type] = idx + 1
        mapping[key] = Register(type=inst.dst.type, index=idx)
    out = []
    for inst in instructions:
        inst = _rewrite(inst, mapping)
        if inst.dst is not None and inst.dst.key in mapping:
            new_dst = mapping[inst.dst.key]
            if new_dst != inst.dst:
                inst = Instruction(inst.opcode, inst.type, new_dst,
                                   inst.srcs, cmp=inst.cmp,
                                   src_type=inst.src_type,
                                   label=inst.label, guard=inst.guard,
                                   guard_negated=inst.guard_negated)
        out.append(inst)
    return out


def _rebuild_info(old: KernelInfo, instructions: list[Instruction],
                  name: str) -> KernelInfo:
    """Resource metadata for the optimized stream.

    Register declarations are recomputed from the surviving names;
    the flop/byte accounting is carried over *unchanged* — the
    modeled per-site work stays that of the source expression, so the
    performance model is conservative and modeled results do not
    shift under ``opt`` (the register footprint, which the occupancy
    model derives from liveness over the actual stream, does).
    """
    return KernelInfo(
        name=name,
        params=list(old.params),
        n_instructions=len(instructions),
        regs_per_thread=register_counts(instructions),
        flops_per_site=old.flops_per_site,
        bytes_loaded_per_site=old.bytes_loaded_per_site,
        bytes_stored_per_site=old.bytes_stored_per_site,
    )


def prepare_module(module: PTXModule, stats: IRStats | None = None,
                   mode: str | None = None) -> PTXModule:
    """Run the IR layer over a freshly built module (see module doc)."""
    if mode is None:
        mode = ir_mode()
    if stats is not None:
        stats.mode = mode
    if mode == "off":
        return module

    fn = SSAFunction.from_module(module)
    assert_ssa(fn, obj=module.name)
    if stats is not None:
        stats.modules_verified += 1
    if mode != "opt":
        return module

    live_before = max_live_registers(fn.instructions, cfg=fn.cfg)
    live = live_before
    for name in selected_passes():
        instructions, pass_stats = PASSES[name](fn)
        fn = SSAFunction.from_instructions(module.name, module.info.params,
                                           instructions)
        assert_ssa(fn, obj=f"{module.name} (after {name})")
        live_after_pass = max_live_registers(fn.instructions, cfg=fn.cfg)
        if stats is not None:
            stats.record_pass(name, pass_stats, live - live_after_pass)
        live = live_after_pass

    instructions = _renumber(fn.instructions)
    fn = SSAFunction.from_instructions(module.name, module.info.params,
                                       instructions)
    assert_ssa(fn, obj=f"{module.name} (after renumber)")

    # Pressure gate: every pass is individually pressure-bounded, but
    # their composition is guaranteed never to regress a kernel's
    # register footprint here, where it is cheap to check.
    if live > live_before:
        if stats is not None:
            stats.pressure_reverts += 1
        return module

    if stats is not None:
        stats.modules_optimized += 1
        stats.instructions_before += len(module.instructions)
        stats.instructions_after += len(instructions)
        stats.live_regs_before += live_before
        stats.live_regs_after += live
    return PTXModule(info=_rebuild_info(module.info, instructions,
                                        module.name),
                     instructions=instructions)
