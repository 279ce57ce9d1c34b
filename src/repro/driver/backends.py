"""The execution-backend registry: per-kernel dispatch.

A kernel artifact (:class:`~repro.driver.jitcompiler.KernelArtifact`)
carries one lazily built callable per backend; the registry decides
which one a launch actually runs, per kernel, from the
``REPRO_BACKEND`` knob (resolved through the shared ``_env_mode``
machinery, so bad values warn once and fall back to the default like
every other ``REPRO_*`` knob), and builds it on first dispatch:

``sim`` (default)
    The PTX translator of :mod:`repro.driver.jitcompiler` — the
    reference execution semantics everything else is validated
    against.
``cpu``
    The compiled NumPy backend of :mod:`repro.llvm.cputarget` — the
    same parsed PTX walked by a subclass of the ``sim`` translator
    that folds integer address arithmetic, bitwise identical to
    ``sim``.

Only the selected backend is built.  Kernels outside a backend's
supported subset *fall back to* ``sim`` (translated then, not before)
with a one-time warning naming the kernel and the unsupported
construct — never an error: a run must complete on any knob setting.
Fallbacks, per-backend kernel counts, compile seconds and launch
counts accumulate in :class:`BackendStats`, surfaced as
``ctx.stats.backend`` and in the ``repro.lint --json`` report; they
count what *this* kernel cache dispatched, whether or not the
process-wide store already held the callable.

The registry is the permanent seam for additional backends: register
a :class:`Backend` subclass under a new name and the knob accepts it
(``register_backend``); every launch path — eager, fused, reduction
partials, halo faces — routes through here because they all compile
through :class:`~repro.driver.cache.KernelCache`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from ..diagnostics import backend_mode
from .jitcompiler import build_sim_kernel


class BackendBuildError(Exception):
    """A backend cannot build this kernel (triggers sim fallback)."""


@dataclass
class BackendStats:
    """Per-backend accounting for one kernel cache (one context)."""

    #: the knob value the most recent compile resolved to
    mode: str = "sim"
    #: backend name -> kernels this cache dispatched to it
    kernels: dict = field(default_factory=dict)
    #: backend name -> wall-clock seconds this cache spent building them
    compile_seconds: dict = field(default_factory=dict)
    #: backend name -> launches executed through it
    launches: dict = field(default_factory=dict)
    #: kernels that requested a non-sim backend but fell back
    fallbacks: int = 0
    #: kernel name -> the unsupported construct that forced fallback
    fallback_kernels: dict = field(default_factory=dict)

    def note_launch(self, backend: str) -> None:
        self.launches[backend] = self.launches.get(backend, 0) + 1


class Backend:
    """One execution backend: builds a launchable callable per kernel.

    ``build`` receives the
    :class:`~repro.driver.jitcompiler.KernelArtifact` (which carries
    the PTX text and the parsed form) and returns a callable with the
    launch signature ``(views, params, grid_dim, block_dim)``.  Raise
    :class:`BackendBuildError` (``TranspileError`` is one) for kernels
    outside the backend's supported subset.
    """

    name = "backend"

    def build(self, artifact):
        raise NotImplementedError


class SimBackend(Backend):
    """The driver JIT's own translation — always available."""

    name = "sim"

    def build(self, artifact):
        return build_sim_kernel(artifact.parsed)


class CpuBackend(Backend):
    """The compiled vectorized-NumPy backend (:mod:`repro.llvm`)."""

    name = "cpu"

    def build(self, artifact):
        from ..llvm.cputarget import compile_cpu_kernel

        return compile_cpu_kernel(artifact.ptx_text, artifact.parsed)


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register (or replace) a backend; the knob accepts its name."""
    _REGISTRY[backend.name] = backend


def unregister_backend(name: str) -> None:
    if name in ("sim", "cpu"):
        raise ValueError(f"built-in backend {name!r} cannot be removed")
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> Backend:
    return _REGISTRY[name]


def backend_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


register_backend(SimBackend())
register_backend(CpuBackend())


def resolve_backend_mode() -> str:
    """The active ``REPRO_BACKEND`` value against the live registry."""
    return backend_mode(accepted=backend_names())


@dataclass
class BuildStats:
    """Process-wide counters of one backend's builds in the kernel
    store: ``misses`` built a callable, ``hits`` found one another
    cache had built."""

    hits: int = 0
    misses: int = 0
    total_compile_seconds: float = 0.0

    @property
    def n_kernels(self) -> int:
        return self.misses


_build_stats: dict[str, BuildStats] = {}


def build_stats(name: str) -> BuildStats:
    """The live store-wide build counters of backend ``name``."""
    return _build_stats.setdefault(name, BuildStats())


def select_backend(kernel, stats: BackendStats) -> None:
    """Point ``kernel`` at the active backend's callable (idempotent).

    Called by the kernel cache on every compile *and* cache hit, so a
    mid-process knob change re-dispatches already-compiled kernels.
    Build failures degrade to ``sim`` with a one-time warning and are
    counted in ``stats`` — they never propagate.
    """
    mode = resolve_backend_mode()
    stats.mode = mode
    if kernel.backend == mode:
        return
    funcs = kernel.backend_funcs
    for name in (mode, "sim"):      # "sim": what a failed build falls back to
        if name not in funcs:
            funcs[name] = _callable_for(kernel.artifact, name, stats)
        if funcs[name] is not None:
            kernel.backend, kernel.func = name, funcs[name]
            return


def _callable_for(artifact, mode: str, stats: BackendStats):
    """The artifact's ``mode`` callable (``None``: outside the backend's
    subset), built here unless another cache already has; ``stats``
    accounts this cache's first dispatch either way."""
    func = artifact.callables.get(mode)
    elapsed = 0.0
    if func is not None:
        build_stats(mode).hits += 1
    elif mode not in artifact.build_errors:
        t0 = time.perf_counter()
        try:
            func = _REGISTRY[mode].build(artifact)
        except BackendBuildError as exc:
            artifact.build_errors[mode] = str(exc)
            warnings.warn(
                f"backend {mode!r} cannot build kernel "
                f"{artifact.name!r} ({exc}); falling back to 'sim' "
                f"for this kernel", RuntimeWarning, stacklevel=5)
        else:
            elapsed = time.perf_counter() - t0
            artifact.callables[mode] = func
            built = build_stats(mode)
            built.misses += 1
            built.total_compile_seconds += elapsed
    if func is None:
        stats.fallbacks += 1
        stats.fallback_kernels[artifact.name] = artifact.build_errors[mode]
        return None
    stats.kernels[mode] = stats.kernels.get(mode, 0) + 1
    stats.compile_seconds[mode] = (
        stats.compile_seconds.get(mode, 0.0) + elapsed)
    return func
