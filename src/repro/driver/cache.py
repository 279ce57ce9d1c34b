"""The kernel store and its per-context views.

The driver JIT analyses each distinct PTX module exactly once per
*process*: one store maps the text's sha256 to its
:class:`~repro.driver.jitcompiler.KernelArtifact` (parsed stream,
register footprint, modeled JIT cost, per-env diagnostics, per-backend
callables).  The paper measures the translation cost at 0.05-0.22 s
per kernel and ~200 distinct kernels per HMC trajectory, the same ones
on every rank — the store is what makes the total overhead the "10-30
seconds, negligible" of Sec. VIII-D for every context after the first.

A :class:`KernelCache` is one context's (or one server's) *accounting
view* of the store.  Every counter and every modeled charge follows
the view's own history: ``get_or_compile`` reports ``was_cached=False``
the first time *this view* sees a digest whether or not the store
already holds the artifact, so the modeled JIT clock, ``stats`` and
``backend`` do not depend on what ran earlier in the process — only
measured seconds do.

A view resolves ``REPRO_BACKEND`` once, when it is created; the first
time it sees a digest it runs the per-kernel dispatch
(:func:`repro.driver.backends.select_backend`), which builds that
backend's callable on the artifact if no view has yet.  A hit returns
the handle as dispatched, without consulting the knob.

One step earlier, the module table maps a structural key to the
module generated for it and its text, so a context's module-cache miss
runs codegen, the SSA check and ``render`` once per key per process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..diagnostics import backend_mode
from .backends import BackendStats, BuildStats, select_backend
from .jitcompiler import (CompiledKernel, KernelArtifact, compile_ptx,
                          verify_artifact)

#: PTX sha256 -> artifact, shared by every view in the process
_STORE: dict[str, KernelArtifact] = {}

#: structural key -> (module, PTX text); a built module is immutable
_MODULES: dict[str, tuple[object, str]] = {}


def clear_kernel_store() -> None:
    """Forget every artifact and every generated module (tests that
    need a cold process).  Views keep the handles they already hold."""
    _STORE.clear()
    _MODULES.clear()


def generated_module(key: str, generate) -> tuple[object, str]:
    """``(module, text)`` for structural ``key``: ``generate()`` and
    ``render`` run only the first time anyone in the process asks."""
    hit = _MODULES.get(key)
    if hit is None:
        module = generate()
        hit = _MODULES[key] = (module, module.render())
    return hit


@dataclass
class CacheStats(BuildStats):
    """One view's lookups; seconds are of the artifacts *it* built."""

    total_modeled_compile_seconds: float = 0.0


class KernelCache:
    """One context's view of the kernel store, keyed by PTX digest."""

    def __init__(self):
        self._kernels: dict[str, CompiledKernel] = {}
        self.stats = CacheStats()
        #: per-backend dispatch accounting (``ctx.stats.backend``); its
        #: ``mode`` is this view's backend, read from the knob here only
        self.backend = BackendStats(mode=backend_mode())

    @staticmethod
    def key_for(ptx_text: str) -> str:
        return hashlib.sha256(ptx_text.encode()).hexdigest()

    def get_or_compile(self, ptx_text: str,
                       env=None) -> tuple[CompiledKernel, bool]:
        """Return ``(kernel, was_cached)`` for the given PTX text.

        ``env`` is the launch :class:`~repro.ptx.absint.KernelEnv` the
        caller will bind; the artifact is verified under it unless it
        already was (by any view).
        """
        key = self.key_for(ptx_text)
        kernel = self._kernels.get(key)
        if kernel is not None:
            self.stats.hits += 1
            verify_artifact(kernel.artifact, env, replay=False)
            return kernel, True
        artifact = _STORE.get(key)
        if artifact is None:
            kernel = compile_ptx(ptx_text, env)
            artifact = _STORE[key] = kernel.artifact
            self.stats.total_compile_seconds += artifact.compile_seconds
        else:
            verify_artifact(artifact, env)
            kernel = CompiledKernel(artifact)
        kernel.backend_stats = self.backend
        select_backend(kernel, self.backend)
        self._kernels[key] = kernel
        self.stats.misses += 1
        self.stats.total_modeled_compile_seconds += (
            artifact.modeled_compile_seconds)
        return kernel, False

    def __len__(self) -> int:
        return len(self._kernels)

    def clear(self) -> None:
        """Forget this view's handles and nothing else: the store keeps
        the artifacts, so the next lookup is a view miss (counted and
        charged as one) that builds nothing."""
        self._kernels.clear()
