"""The execution-backend registry: per-kernel dispatch.

The driver JIT always builds the ``sim`` function for a kernel — the
reference execution semantics everything else is validated against,
and what the verifier/liveness/occupancy analyses are attached to.
The registry decides which *callable* a launch actually runs, per
kernel, from the ``REPRO_BACKEND`` knob (resolved through the shared
``_env_mode`` machinery, so bad values warn once and fall back to the
default like every other ``REPRO_*`` knob):

``sim`` (default)
    The PTX translator of :mod:`repro.driver.jitcompiler`.
``cpu``
    The compiled NumPy backend of :mod:`repro.llvm.cputarget` — the
    same parsed PTX (post-``REPRO_IR`` pipeline) walked by a subclass
    of the ``sim`` translator that folds integer address arithmetic,
    bitwise identical to ``sim``.

Kernels outside a backend's supported subset *fall back to* ``sim``
with a one-time warning naming the kernel and the unsupported
construct — never an error: a run must complete on any knob setting.
Fallbacks, per-backend kernel counts, compile seconds and launch
counts accumulate in :class:`BackendStats`, surfaced as
``ctx.stats.backend`` and in the ``repro.lint --json`` report.

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


class BackendBuildError(Exception):
    """A backend cannot build this kernel (triggers sim fallback)."""


@dataclass
class BackendStats:
    """Per-backend accounting for one kernel cache (one context)."""

    #: the knob value the most recent compile resolved to
    mode: str = "sim"
    #: backend name -> kernels built for it
    kernels: dict = field(default_factory=dict)
    #: backend name -> wall-clock seconds spent building its kernels
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

    ``build`` receives the driver's
    :class:`~repro.driver.jitcompiler.CompiledKernel` (which carries
    the PTX text and the parsed form) and returns a callable with the
    launch signature ``(views, params, grid_dim, block_dim)``.  Raise
    :class:`BackendBuildError` (``TranspileError`` is one) for kernels
    outside the backend's supported subset.
    """

    name = "backend"

    def build(self, kernel):
        raise NotImplementedError


class SimBackend(Backend):
    """The driver JIT's own translation — always available."""

    name = "sim"

    def build(self, kernel):
        return kernel.func


class CpuBackend(Backend):
    """The compiled vectorized-NumPy backend (:mod:`repro.llvm`)."""

    name = "cpu"

    def build(self, kernel):
        from ..llvm.cputarget import compile_cpu_kernel

        return compile_cpu_kernel(kernel.ptx_text, kernel.parsed)


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


#: kernels already warned about, keyed by (kernel name, backend) —
#: fall back once per kernel, not once per launch
_warned_fallbacks: set[tuple[str, str]] = set()


def select_backend(kernel, stats: BackendStats) -> None:
    """Attach the active backend's callable to ``kernel`` (idempotent).

    Called by the kernel cache on every compile *and* cache hit, so a
    mid-process knob change re-dispatches already-compiled kernels.
    Build failures degrade to ``sim`` with a one-time warning and are
    counted in ``stats`` — they never propagate.
    """
    mode = resolve_backend_mode()
    stats.mode = mode
    if "sim" not in kernel.backend_funcs:
        # first selection for this kernel: account the sim build the
        # driver JIT already performed
        kernel.backend_funcs["sim"] = kernel.func
        stats.kernels["sim"] = stats.kernels.get("sim", 0) + 1
        stats.compile_seconds["sim"] = (
            stats.compile_seconds.get("sim", 0.0) + kernel.compile_seconds)
    if kernel.backend == mode:
        return
    if mode in kernel.backend_funcs:
        kernel.backend = mode
        return
    if mode in kernel.backend_errors:
        # already tried and fell back; don't rebuild (or recount) it
        kernel.backend = "sim"
        return
    backend = _REGISTRY[mode]
    t0 = time.perf_counter()
    try:
        func = backend.build(kernel)
    except BackendBuildError as exc:
        kernel.backend_errors[mode] = str(exc)
        stats.fallbacks += 1
        stats.fallback_kernels[kernel.name] = str(exc)
        key = (kernel.name, mode)
        if key not in _warned_fallbacks:
            _warned_fallbacks.add(key)
            warnings.warn(
                f"backend {mode!r} cannot build kernel "
                f"{kernel.name!r} ({exc}); falling back to 'sim' "
                f"for this kernel", RuntimeWarning, stacklevel=4)
        kernel.backend_funcs["sim"] = kernel.func
        kernel.backend = "sim"
        return
    elapsed = time.perf_counter() - t0
    kernel.backend_funcs[mode] = func
    kernel.backend = mode
    stats.kernels[mode] = stats.kernels.get(mode, 0) + 1
    stats.compile_seconds[mode] = (
        stats.compile_seconds.get(mode, 0.0) + elapsed)
