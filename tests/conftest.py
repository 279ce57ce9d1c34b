"""Shared fixtures.

Most tests share one default context; tests that exercise memory
pressure, spilling or device statistics build private contexts.  The
module table and the kernel store are process-wide
(:mod:`repro.driver.cache`), so private contexts start warm too: a
kernel any earlier test built is generated, rendered, parsed, verified
and translated no more — while every counter and modeled clock of a
context still follows that context's own history, whatever ran before
it.  Nothing here clears them; a test that needs a cold process (one
that spies on the code generator or the driver) calls
``repro.driver.clear_kernel_store()`` itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import Context, qdp_init, set_default_context
from repro.qdp.lattice import Lattice


@pytest.fixture(scope="session")
def ctx() -> Context:
    """A session-wide default context (shared kernel caches)."""
    return qdp_init()


@pytest.fixture()
def fresh_ctx():
    """A private context; restores the previous default afterwards."""
    from repro.core import context as context_mod

    old = context_mod._default_context
    c = qdp_init()
    yield c
    set_default_context(old)


@pytest.fixture(scope="session")
def lat4(ctx) -> Lattice:
    """The workhorse 4^4 lattice."""
    return Lattice((4, 4, 4, 4))


@pytest.fixture(scope="session")
def lat_small(ctx) -> Lattice:
    """A tiny lattice for expensive flows (HMC trajectories)."""
    return Lattice((2, 2, 2, 4))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def launch_spy(monkeypatch):
    """``launch_spy(ctx)`` records every ``Device.launch`` on ``ctx``'s
    device as ``(kernel name, params, live)`` — the binding the
    launcher really made, and ``{addr: nbytes}`` of the field-cache
    entries alive at that moment — so no test re-creates the
    parameter layout by hand."""

    def install(ctx):
        calls = []
        real = ctx.device.launch

        def spy(kernel, info, params, *args, **kwargs):
            live = {e.addr: e.nbytes
                    for e in ctx.field_cache.entries.values()}
            calls.append((kernel.name, dict(params), live))
            return real(kernel, info, params, *args, **kwargs)

        monkeypatch.setattr(ctx.device, "launch", spy)
        return calls

    return install
