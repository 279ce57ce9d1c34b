"""Static verification of PTX instruction streams.

The driver JIT rejects malformed programs; running the verifier at
build time catches code-generator bugs early, with errors that point
at the offending instruction.  The verifier is a *pass pipeline* over
the kernel's control-flow graph (:mod:`repro.ptx.cfg`): each pass
collects every violation it can find as a structured
:class:`~repro.diagnostics.Diagnostic` rather than stopping at the
first, so one run reports the complete state of a kernel.

Passes:

``operands``
    Per-instruction structural and type checks: operand kinds, guard
    predicates, branch targets, ``ld.param`` against the declared
    parameter list (existence *and* type), load/store address and
    value types, ``cvt``/``setp``/``selp`` shapes.
``ssa-structure``
    The SSA structural invariants the code generators guarantee:
    single definition per register, defs dominate uses, no dangling
    operands.  Together they say every read is of a register written
    on **every** path to it — branch-aware, unlike a linear scan,
    which both misses one-armed definitions and falsely accepts defs
    that textually precede but do not dominate a use.  A malformed
    stream fails here with a named diagnostic instead of a deep
    translator traceback.  The build path (:mod:`repro.ir`) runs this
    pass alone.
``unreachable-code``
    Blocks that no path from the entry reaches.
``return-paths``
    Every path from the entry ends in an unguarded ``ret``.
``proven-bounds``
    Memory safety by abstract interpretation
    (:mod:`repro.ptx.absint`): every ``ld.global``/``st.global``
    address is recovered as ``region + affine offset`` and checked
    against the bound region's size.  Proven out-of-bounds accesses
    are errors; accesses the engine cannot settle are ``unproven``
    warnings.
``coalescing``
    Warns on accesses with a known ``%tid.x`` stride whose 32-thread
    warp span costs more memory transactions than the stride-1 SoA
    layout.
``divergence``
    Warns on branches over thread-varying predicates (the warp
    executes both sides serially); the generators' bounds early-exit
    is recognized as benign.

:func:`run_passes` returns the full diagnostics list;
:func:`verify` raises :class:`PTXVerificationError` if any
error-severity diagnostic is present (the strict API used by the
kernel build paths).
"""

from __future__ import annotations

import math

from ..diagnostics import Diagnostic, Severity, errors
from .cfg import CFG, build_cfg
from .isa import Immediate, Instruction, PTXType, Register, Special
from .module import PTXModule


class PTXVerificationError(Exception):
    """A PTX program failed static verification.

    Carries the full diagnostics list (``.diagnostics``) so callers
    can report every violation, not just the first.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


# --- pass: operands -------------------------------------------------------

def _check_operands(module: PTXModule, cfg: CFG) -> list[Diagnostic]:
    out: list[Diagnostic] = []

    def err(message: str, inst: Instruction) -> None:
        out.append(Diagnostic(Severity.ERROR, "operands", message,
                              obj=module.name, location=inst.render()))

    labels = {i.label for i in module.instructions if i.opcode == "label"}
    params = {p.name: p for p in module.info.params}

    def check_src(inst: Instruction, op, pos: int) -> None:
        # a ParamRef is an operand of ld.param only, checked below
        # against the declared parameters
        if not isinstance(op, (Register, Immediate, Special)):
            err(f"bad operand at position {pos}", inst)

    for inst in module.instructions:
        if inst.guard is not None and inst.guard.type != PTXType.PRED:
            err("guard is not a predicate", inst)
        if inst.opcode == "label":
            continue
        if inst.opcode == "bra":
            if inst.label not in labels:
                err(f"branch to undefined label {inst.label}", inst)
            continue
        if inst.opcode == "ret":
            continue
        if inst.opcode == "ld.param":
            (pref,) = inst.srcs
            pname = getattr(pref, "pname", None)
            param = params.get(pname)
            if param is None:
                err(f"ld.param of undeclared parameter "
                    f"'{inst.render()}'", inst)
            elif param.type != inst.type:
                err(f"ld.param type mismatch: parameter {pname!r} is "
                    f"declared .{param.type.value} but loaded as "
                    f".{inst.type.value}", inst)
        else:
            for i, op in enumerate(inst.srcs):
                check_src(inst, op, i)
        # type checks
        if inst.opcode in ("ld.global", "st.global") \
                and inst.type == PTXType.PRED:
            err("global access of type .pred: device memory has no "
                "view of that type", inst)
        if inst.opcode == "st.global":
            addr, val = inst.srcs
            if isinstance(addr, Register) and addr.type != PTXType.U64:
                err("store address must be u64", inst)
            if isinstance(val, Register) and val.type != inst.type:
                err(f"store value type {val.type.value} != "
                    f"instruction type {inst.type.value}", inst)
        elif inst.opcode == "ld.global":
            (addr,) = inst.srcs
            if isinstance(addr, Register) and addr.type != PTXType.U64:
                err("load address must be u64", inst)
        elif inst.opcode == "cvt":
            if inst.src_type is None:
                err("cvt without source type", inst)
            else:
                (src,) = inst.srcs
                if isinstance(src, Register) and src.type != inst.src_type:
                    err("cvt source register type mismatch", inst)
        elif inst.opcode == "setp":
            if inst.dst is not None and inst.dst.type != PTXType.PRED:
                err("setp destination must be a predicate", inst)
            for op in inst.srcs:
                if isinstance(op, Register) and op.type != inst.type:
                    err("setp operand type mismatch", inst)
        elif inst.opcode == "selp":
            a, b, p = inst.srcs
            if isinstance(p, Register) and p.type != PTXType.PRED:
                err("selp selector must be a predicate", inst)
            for op in (a, b):
                if isinstance(op, Register) and op.type != inst.type:
                    err("selp operand type mismatch", inst)
        elif inst.opcode != "ld.param":
            # plain arithmetic: all register operands match inst.type
            for op in inst.srcs:
                if isinstance(op, Register) and op.type != inst.type:
                    err(f"operand type {op.type.value} != "
                        f"{inst.type.value}", inst)
        if inst.dst is not None:
            want = PTXType.PRED if inst.opcode == "setp" else inst.type
            if inst.dst.type != want:
                err("destination type mismatch", inst)
    return out


# --- pass: SSA structure ---------------------------------------------------

def _check_ssa_structure(module: PTXModule, cfg: CFG) -> list[Diagnostic]:
    """Single definition per register, defs dominate uses (same block
    or an unreachable one and textually earlier, or in a dominating
    block), no dangling operands — over def/use positions gathered in
    one walk.  Findings come out per invariant in that order, sorted by
    register."""
    instructions = cfg.instructions
    defs: dict[tuple[str, int], int] = {}          # first write
    again: list[tuple[tuple[str, int], int]] = []  # every further write
    uses: dict[tuple[str, int], list[int]] = {}    # every read, guards too
    for pos, inst in enumerate(instructions):
        for op in inst.srcs:
            if isinstance(op, Register):
                uses.setdefault(op.key, []).append(pos)
        if inst.guard is not None:
            uses.setdefault(inst.guard.key, []).append(pos)
        if inst.dst is not None:
            if inst.dst.key in defs:
                again.append((inst.dst.key, pos))
            else:
                defs[inst.dst.key] = pos

    block = [0] * len(instructions)
    for blk in cfg.blocks:
        block[blk.start:blk.stop] = [blk.index] * (blk.stop - blk.start)
    dom = cfg.dominators()
    late = []
    for key, reads in uses.items():
        d = defs.get(key)
        if d is None:
            continue
        db = block[d]
        for p in reads:
            pb = block[p]
            # nothing dominates an unreachable read: its definition
            # must come first in the text, as in one block
            if not (d < p if db == pb or pb not in dom else db in dom[pb]):
                late.append((key, p))

    out: list[Diagnostic] = []

    def err(message: str, pos: int) -> None:
        out.append(Diagnostic(Severity.ERROR, "ssa-structure", message,
                              obj=module.name,
                              location=instructions[pos].render()))

    def name(key: tuple[str, int]) -> str:
        return f"{PTXType(key[0]).reg_prefix}{key[1]}"

    for key, pos in sorted(again):
        err(f"register {name(key)} redefined (first definition at "
            f"instruction {defs[key]})", pos)
    # a dangling register is reported once, not once per use
    for key in sorted(k for k in uses if k not in defs):
        err(f"use of register {name(key)} with no definition", uses[key][0])
    for key, pos in sorted(set(late)):      # once per location
        err(f"definition of {name(key)} does not dominate its use", pos)
    return out


# --- pass: unreachable code ------------------------------------------------

def _check_unreachable(module: PTXModule, cfg: CFG) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    reachable = cfg.reachable()
    for blk in cfg.blocks:
        if blk.index in reachable:
            continue
        body = [i for i in blk.instructions(cfg.instructions)
                if i.opcode != "label"]
        if body:
            out.append(Diagnostic(
                Severity.WARNING, "unreachable-code",
                f"{len(body)} unreachable instruction(s)",
                obj=module.name, location=body[0].render()))
    return out


# --- pass: return paths ----------------------------------------------------

def _check_return_paths(module: PTXModule, cfg: CFG) -> list[Diagnostic]:
    """Every block without successors ends in an unguarded ``ret`` (a
    graph has no back edge, so every path reaches such a block)."""
    out: list[Diagnostic] = []
    reachable = cfg.reachable()
    for blk in cfg.blocks:
        if blk.index not in reachable or blk.successors:
            continue
        insts = blk.instructions(cfg.instructions)
        last = insts[-1] if insts else None
        if last is None or last.opcode != "ret" or last.guard is not None:
            out.append(Diagnostic(
                Severity.ERROR, "return-paths",
                "kernel does not return on every path "
                "(block falls off the end without ret)",
                obj=module.name,
                location=last.render() if last is not None else ""))
    return out


# --- passes over the abstract-interpretation facts --------------------------

def _fmt_off(x: float) -> str:
    if math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return str(int(x))


def _check_proven_bounds(module: PTXModule, cfg: CFG,
                         analysis) -> list[Diagnostic]:
    """Memory safety by abstract interpretation.

    Every ``ld.global``/``st.global`` address is recovered as
    ``region + affine offset`` and its interval compared against the
    bound region's size (:mod:`repro.ptx.absint`).  A proven
    out-of-bounds access is an *error*; an access the affine engine
    cannot settle is ``unproven`` and warns (hand-written kernels may
    establish safety by launch-geometry contract; a guard without
    region sizes is not a proof).
    """
    out: list[Diagnostic] = []
    for a in analysis.accesses:
        inst = cfg.instructions[a.pos]
        if a.verdict == "oob":
            region = analysis.env.regions.get(a.region)
            out.append(Diagnostic(
                Severity.ERROR, "proven-bounds",
                f"proven out-of-bounds {a.opcode}: byte offset range "
                f"[{_fmt_off(a.offset[0])}, {_fmt_off(a.offset[1])}] "
                f"escapes region '{a.region}' of "
                f"{region.size_bytes} bytes",
                obj=module.name, location=inst.render()))
        elif a.verdict == "unproven":
            out.append(Diagnostic(
                Severity.WARNING, "proven-bounds",
                f"{a.opcode} is not proven in bounds "
                f"(out-of-range threads may access out of bounds)",
                obj=module.name, location=inst.render()))
    return out


def _check_coalescing(module: PTXModule, cfg: CFG,
                      analysis) -> list[Diagnostic]:
    """Warn on accesses proven *uncoalesced*: a known ``%tid.x``
    stride whose warp span needs more memory transactions than the
    stride-1 SoA layout would (unknown strides stay silent — they are
    reported as facts by ``repro.lint``, not guessed at here)."""
    out: list[Diagnostic] = []
    for a in analysis.accesses:
        if a.coalesced is False and not a.uniform:
            stride = a.stride_bytes
            s = int(stride) if float(stride).is_integer() else stride
            out.append(Diagnostic(
                Severity.WARNING, "coalescing",
                f"uncoalesced {a.opcode}: %tid.x stride {s} bytes over "
                f"{a.width}-byte elements costs "
                f"{a.transactions:.0f} transactions/warp "
                f"(ideal {a.ideal_transactions})",
                obj=module.name, location=inst_render_safe(cfg, a.pos)))
    return out


def _check_divergence(module: PTXModule, cfg: CFG,
                      analysis) -> list[Diagnostic]:
    """Warn on branches whose predicate is thread-varying (the warp
    serializes both sides).  The generators' bounds early-exit —
    varying only in the last warp, with an empty taken side — is
    recognized as benign and not flagged."""
    out: list[Diagnostic] = []
    for b in analysis.divergent_branches:
        out.append(Diagnostic(
            Severity.WARNING, "divergence",
            "branch on thread-varying predicate diverges the warp "
            "(both sides execute serially)",
            obj=module.name, location=inst_render_safe(cfg, b.pos)))
    return out


def inst_render_safe(cfg: CFG, pos: int) -> str:
    try:
        return cfg.instructions[pos].render()
    except Exception:
        return f"@{pos}"


# --- pipeline ---------------------------------------------------------------

#: Ordered registry of verifier passes (name -> function).  Every pass
#: takes ``(module, cfg, analysis)``; ``analysis`` is the kernel's
#: :class:`~repro.ptx.absint.KernelAnalysis` and is only computed when
#: a pass in ``ANALYSIS_PASSES`` is requested.
PASSES = {
    "operands": lambda m, c, a: _check_operands(m, c),
    "ssa-structure": lambda m, c, a: _check_ssa_structure(m, c),
    "unreachable-code": lambda m, c, a: _check_unreachable(m, c),
    "return-paths": lambda m, c, a: _check_return_paths(m, c),
    "proven-bounds": _check_proven_bounds,
    "coalescing": _check_coalescing,
    "divergence": _check_divergence,
}

#: Passes that need the abstract interpretation to have run.
ANALYSIS_PASSES = frozenset({"proven-bounds", "coalescing", "divergence"})


def run_passes(module: PTXModule, passes=None, env=None,
               analysis=None, cfg: CFG | None = None) -> list[Diagnostic]:
    """Run the verification pipeline; return *all* diagnostics found.

    ``env`` is an optional :class:`~repro.ptx.absint.KernelEnv` with
    launch-time facts (scalar parameter values, bound region sizes);
    without it the analysis passes run under a generic env and only
    claim what is provable for *any* launch.  A caller that already
    holds the module's :class:`~repro.ptx.absint.KernelAnalysis` or
    its control-flow graph may pass them as ``analysis``/``cfg`` to
    skip recomputation.
    """
    from .absint import analyze_module

    if cfg is None:
        cfg = build_cfg(list(module.instructions))
    names = list(passes if passes is not None else PASSES)
    if analysis is None and any(n in ANALYSIS_PASSES for n in names):
        analysis = analyze_module(module, env=env, cfg=cfg)
    out: list[Diagnostic] = []
    for name in names:
        out.extend(PASSES[name](module, cfg, analysis))
    return out


def verify(module: PTXModule, env=None) -> None:
    """Verify ``module``; raise :class:`PTXVerificationError` listing
    every error-severity violation, return ``None`` if well-formed."""
    diagnostics = run_passes(module, env=env)
    errs = errors(diagnostics)
    if errs:
        summary = "\n".join(f"{module.name}: {d.message}" for d in errs)
        raise PTXVerificationError(summary, diagnostics)
