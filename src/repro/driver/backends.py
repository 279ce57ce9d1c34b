"""Execution backends: one build table, per-kernel dispatch.

A kernel artifact (:class:`~repro.driver.jitcompiler.KernelArtifact`)
carries one lazily built callable per backend; which one a launch runs
is the ``REPRO_BACKEND`` value the owning
:class:`~repro.driver.cache.KernelCache` resolved when it was created
(through the shared ``_env_mode`` machinery, so a bad value warns once
and falls back to the default like every other ``REPRO_*`` knob):

``sim`` (default) and ``cpu`` build the same callable: the one
PTX -> NumPy generator of :mod:`repro.driver.jitcompiler`, which folds
integer address arithmetic.  ``cpu`` is a dispatch name with its own
store entry and build counters (:mod:`repro.llvm.cputarget`).

Only the selected backend is built, the first time a cache sees the
kernel.  Kernels outside a backend's supported subset *fall back to*
``sim`` (translated then, not before) with a one-time warning naming
the kernel and the unsupported construct — never an error: a run must
complete on any knob setting.  Fallbacks, per-backend kernel counts,
compile seconds and launch counts accumulate in :class:`BackendStats`,
surfaced as ``ctx.stats.backend`` and in the ``repro.lint --json``
report; they count what *this* kernel cache dispatched, whether or not
the process-wide store already held the callable.

Every launch path — eager, fused, reduction partials, halo faces —
routes through here because they all compile through
:class:`~repro.driver.cache.KernelCache`.  A further backend is one
more row of :data:`BUILDERS` and one more accepted knob value.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from .jitcompiler import build_sim_kernel


class BackendBuildError(Exception):
    """A backend cannot build this kernel (triggers sim fallback)."""


@dataclass
class BackendStats:
    """Per-backend accounting for one kernel cache (one context)."""

    #: the knob value the owning cache resolved at construction
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


def _build_sim(artifact):
    return build_sim_kernel(artifact.parsed)


def _build_cpu(artifact):
    from ..llvm.cputarget import compile_cpu_kernel

    return compile_cpu_kernel(artifact.ptx_text, artifact.parsed)


#: backend name -> builder: takes the
#: :class:`~repro.driver.jitcompiler.KernelArtifact` (PTX text and
#: parsed form) and returns a callable with the launch signature
#: ``(views, params, grid_dim, block_dim)``, or raises
#: :class:`BackendBuildError` for a kernel outside the backend's
#: subset.  ``sim`` is what a failed build falls back to.
BUILDERS = {"sim": _build_sim, "cpu": _build_cpu}


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
    """Point ``kernel`` at the callable of the cache's backend.

    Called by the kernel cache once per kernel, the first time it sees
    the digest; ``stats.mode`` is the backend the cache resolved at
    construction.  Build failures degrade to ``sim`` with a one-time
    warning and are counted in ``stats`` — they never propagate.
    """
    for name in (stats.mode, "sim"):
        func = _callable_for(kernel.artifact, name, stats)
        if func is not None:
            kernel.backend, kernel.func = name, func
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
            func = BUILDERS[mode](artifact)
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
