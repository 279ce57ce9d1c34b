"""The QDP-JIT context: one device's worth of framework state.

Bundles the simulated device, the driver's compiled-kernel cache, the
generated-PTX module cache, the field software-cache and the
auto-tuner.  A default global context (the single-GPU case) is created
lazily by :func:`qdp_init`; multi-rank runs (the virtual machine in
:mod:`repro.comm`) create one context per rank.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..device.autotune import Autotuner
from ..device.gpu import Device
from ..device.specs import DeviceSpec, K20X_ECC_OFF
from ..diagnostics import warn_unknown_knobs
from ..driver.cache import KernelCache, generated_module
from ..ir.pipeline import prepare_module
from ..memory.cache import CacheStats, FieldCache
from ..ptx.absint import KernelEnv, merge_envs


@dataclass
class ContextStats:
    """High-level counters for one context."""

    expressions_evaluated: int = 0
    kernels_generated: int = 0
    reductions: int = 0
    #: multi-statement fused launches / statements they covered
    fusion_groups: int = 0
    fused_statements: int = 0
    #: generated-module cache outcomes (:meth:`Context.lookup_kernel`)
    module_cache_hits: int = 0
    module_cache_misses: int = 0
    #: module-cache misses through the SSA check
    #: (:func:`repro.ir.prepare_module`), whichever context ran it
    modules_verified: int = 0
    #: backrefs wired by :class:`Context` so timeline/cache figures
    #: read live through ``ctx.stats`` (not copied counters)
    _runtime: object = field(default=None, repr=False, compare=False)
    _field_cache: object = field(default=None, repr=False, compare=False)
    _kernel_cache: object = field(default=None, repr=False, compare=False)

    @property
    def backend(self):
        """The kernel cache's backend accounting: the resolved
        ``REPRO_BACKEND`` mode and its fallbacks
        (:class:`repro.driver.backends.BackendStats`)."""
        return self._kernel_cache.backend

    @property
    def overlap_fraction(self) -> float:
        """Fraction of serial modeled time hidden by lane overlap."""
        return self._runtime.timeline.overlap_fraction if self._runtime else 0.0

    @property
    def lane_busy_s(self) -> dict:
        """Busy seconds per timeline lane (compute/h2d/d2h/...)."""
        return self._runtime.timeline.lane_busy() if self._runtime else {}

    @property
    def critical_path_s(self) -> float:
        """Duration of the longest dependent chain on the timeline."""
        return self._runtime.timeline.critical_path_s if self._runtime else 0.0

    @property
    def cache(self) -> CacheStats:
        """The field software-cache counters (hits, spills, HWM...)."""
        return self._field_cache.stats if self._field_cache else CacheStats()


@dataclass
class ModuleEntry:
    """One generated kernel in :attr:`Context.module_cache`."""

    module: object      # the PTXModule as built (shared process-wide)
    compiled: object    # the store's CompiledKernel
    #: launch env covering every binding seen so far (widened across
    #: launches); what the verifier passes and ``repro.lint`` analyze
    #: the kernel under
    env: KernelEnv


class Context:
    """Framework state for one (simulated) GPU.

    A context owns its :class:`Device` and its :class:`KernelCache`
    view.  Two contexts in one process share their build work without
    being wired together: the kernel store and the module table behind
    the views are process-wide, so a second context builds nothing.

    Contexts also support *scoped activation*::

        with ctx:
            ...   # default_context() resolves to ctx in this block

    which is how a program driving several contexts avoids leaking
    state through the lazily-created module-level default context:
    activation nests like a stack and always restores the previous
    resolution on exit.
    """

    def __init__(self, spec: DeviceSpec = K20X_ECC_OFF,
                 pool_capacity: int | None = None,
                 autotune: bool = True,
                 default_block_size: int = 128,
                 fusion: bool | None = None):
        from .fusion import FusionQueue

        warn_unknown_knobs()
        self.device = Device(spec, pool_capacity=pool_capacity)
        self.kernel_cache = KernelCache()
        self.field_cache = FieldCache(self.device)
        self.autotuner = Autotuner(self.device) if autotune else None
        self.default_block_size = default_block_size
        self.stats = ContextStats(_runtime=self.device.runtime,
                                  _field_cache=self.field_cache,
                                  _kernel_cache=self.kernel_cache)
        #: structural statement signature -> :class:`ModuleEntry`
        #: (insertion ordered; filled by :meth:`lookup_kernel` only)
        self.module_cache: dict[str, ModuleEntry] = {}
        #: statement plans (:class:`repro.core.evaluator.StatementPlan`)
        #: and launch plans (:class:`repro.core.fusion.LaunchPlan`),
        #: keyed by type and aliasing pattern, never by field identity
        self.plans: dict = {}
        #: deferred-evaluation queue (``fusion=None`` consults the
        #: ``REPRO_FUSION`` knob; an explicit bool overrides it)
        self.fusion = FusionQueue(self, enabled=fusion)
        #: host access to any cached field drains the queue first
        self.field_cache.flush_hook = self.fusion.flush
        #: uploaded int32 tables (shift maps, subset site lists):
        #: key -> (addr, length)
        self._tables: dict[object, tuple[int, int]] = {}
        #: grow-only reduction-partials buffer, ``(addr, nbytes)``
        self._scratch: tuple[int, int] | None = None

    def flush(self) -> None:
        """Launch every pending (deferred) statement now."""
        self.fusion.flush()

    def lookup_kernel(self, key: str, prefix: str, build, binding,
                      launch_env) -> tuple[ModuleEntry, dict]:
        """The one generated-kernel lookup, for every statement path.

        ``key`` is the statement's structural signature; on a miss the
        kernel is named ``prefix + sha256(key)[:12]``, generated by
        ``build(name)`` (unless another context already did) and built
        through :meth:`build_kernel` under the env ``launch_env()``.
        ``binding`` — ``(lattice, subset, shifts)``, the ``(mu, sign)``
        of each shift slot — is the rest of what the launch binds: a
        hit widens the entry's env by ``launch_env()`` (a no-op when it
        covers it already), and the table parameters returned with the
        entry (``p_lo``, ``p_n``, ``p_stab``, ``p_sh<i>``; a table
        uploads on first use) are the caller's to keep — the one
        caller, a launch plan miss in :mod:`repro.core.fusion`, keeps
        them in its :class:`~repro.core.fusion.LaunchPlan`.  Hits and
        misses are counted in ``stats.module_cache_hits/misses`` — the
        "kernels are compiled once, launched thousands of times" claim
        of the paper, made measurable (``repro.lint --json`` reports
        it).
        """
        lattice, subset, shifts = binding
        entry = self.module_cache.get(key)
        if entry is None:
            self.stats.module_cache_misses += 1
            entry = self.module_cache[key] = self.build_kernel(
                key, lambda: build(
                    prefix + hashlib.sha256(key.encode()).hexdigest()[:12]),
                launch_env())
        else:
            self.stats.module_cache_hits += 1
            entry.env = merge_envs(entry.env, launch_env())
        tables = {"p_lo": lattice.nsites, "p_n": len(subset)}
        if not subset.is_full:
            tables["p_stab"] = self.upload_table(
                ("subset", lattice.dims, subset.name), subset.sites)
        for i, (mu, sign) in enumerate(shifts):
            tables[f"p_sh{i}"] = self.upload_table(
                ("shift", lattice.dims, mu, sign),
                lattice.shift_map(mu, sign))
        return entry, tables

    def build_kernel(self, key: str, generate, env=None,
                     charge_jit: bool = True) -> ModuleEntry:
        """The one kernel build path, for a module-cache miss.

        ``generate()`` -> IR layer -> PTX module and text, once per
        ``key`` per process -> this context's driver JIT view, handed
        both: the text names the kernel, the module's stream is what
        it compiles and verifies under the launch ``env`` as
        ``REPRO_VERIFY`` says.  On a view miss it charges the modeled
        JIT cost (``charge_jit=False``: halo face copies never were
        charged).  Counted as if built here.
        """
        module, text = generated_module(
            key, lambda: prepare_module(generate()))
        self.stats.modules_verified += 1
        compiled, was_cached = self.kernel_cache.get_or_compile(
            text, env=env, module=module)
        if charge_jit and not was_cached:
            self.device.charge_jit(compiled.modeled_compile_seconds)
            self.stats.kernels_generated += 1
        return ModuleEntry(module, compiled, env)

    # -- scoped activation ----------------------------------------------

    def __enter__(self) -> "Context":
        """Activate this context: :func:`default_context` resolves to
        it until the matching exit.  Activations nest (a stack)."""
        _active_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _active_stack or _active_stack[-1] is not self:
            raise RuntimeError(
                "context activation stack out of order: exiting a "
                "context that is not the innermost active one")
        _active_stack.pop()

    # -- device-resident int32 tables -----------------------------------

    def upload_table(self, key, values) -> int:
        """Upload (once) an int32 table; returns its device address.

        Used for shift gather maps and subset site lists.  Tables are
        immutable and never spilled (they are small compared to
        fields and regeneration would thrash).
        """
        import numpy as np

        entry = self._tables.get(key)
        if entry is not None:
            return entry[0]
        arr = np.ascontiguousarray(values, dtype=np.int32)
        # through the cache's spill-and-retry path: an OOM here
        # evicts LRU fields instead of failing the run
        addr = self.field_cache._allocate_with_spill(arr.nbytes, set())
        self.device.memcpy_htod(addr, arr)
        self._tables[key] = (addr, arr.size)
        return addr

    def scratch(self, nbytes: int) -> int:
        """Address of the grow-only scratch allocation, at least
        ``nbytes`` long (reduction partials land here)."""
        cur = self._scratch
        if cur is not None and cur[1] >= nbytes:
            return cur[0]
        if cur is not None:
            self.device.mem_free(cur[0])
        addr = self.field_cache._allocate_with_spill(nbytes, set())
        self._scratch = (addr, nbytes)
        return addr


_default_context: Context | None = None

#: scoped-activation stack (``with ctx: ...``); the innermost active
#: context shadows the module-level default so several contexts in
#: one program never leak state through the lazily-created singleton
_active_stack: list[Context] = []


def qdp_init(spec: DeviceSpec = K20X_ECC_OFF, **kwargs) -> Context:
    """(Re)initialize the default global context, QDP++-style."""
    global _default_context
    _default_context = Context(spec, **kwargs)
    return _default_context


def default_context() -> Context:
    """The context unqualified operations run against.

    An explicitly activated context (``with ctx:`` — innermost wins)
    takes precedence; otherwise the module-level default, created
    lazily on first use.  Existing single-context callers never
    activate anything and see the unchanged singleton behavior.
    """
    if _active_stack:
        return _active_stack[-1]
    global _default_context
    if _default_context is None:
        _default_context = Context()
    return _default_context


def set_default_context(ctx: Context | None) -> None:
    global _default_context
    _default_context = ctx
