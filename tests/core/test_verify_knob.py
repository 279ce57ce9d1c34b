"""``REPRO_VERIFY`` is honoured the same way on every kernel build path.

There is one verification point (the driver JIT, under the caller's
launch env), so eager statements, fused groups, reduction partials and
halo face copies all follow the knob: ``off`` analyses nothing,
``warn`` reports and launches, ``error`` raises a typed error naming
the kernel before anything launches.
"""

import numpy as np
import pytest

from repro.comm.faces import FaceKernels
from repro.core.context import Context
from repro.core.reduction import norm2
from repro.diagnostics import Diagnostic, Severity
from repro.driver import JITCompileError, clear_kernel_store, jitcompiler
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice


def _eager(ctx, a, b):
    b.assign(2.0 * a)
    return b.to_numpy(), 2.0 * a.to_numpy()


def _fused(ctx, a, b):
    c = latt_fermion(a.lattice, context=ctx)
    b.assign(2.0 * a)
    c.assign(b + a)
    ctx.flush()
    assert ctx.stats.fusion_groups == 1
    return c.to_numpy(), 3.0 * a.to_numpy()


def _reduction(ctx, a, b):
    return norm2(a, context=ctx), np.sum(np.abs(a.to_numpy()) ** 2)


def _faces(ctx, a, b):
    lat = a.lattice
    FaceKernels(ctx).get("gather", 24, "f64", lat.nsites,
                         lat.face_sites(0, +1))
    return 0.0, 0.0


#: path -> (fusion on?, prefix of the kernel it builds, driver)
PATHS = {"eager": (False, "eval_", _eager),
         "fused": (True, "fus_", _fused),
         "reduction": (False, "red_", _reduction),
         "faces": (False, "gather_", _faces)}


@pytest.fixture()
def flagged(monkeypatch):
    """A cold store and a verifier that finds one error in every kernel;
    returns the list of kernel names it was run on."""
    clear_kernel_store()
    seen = []
    real = jitcompiler.run_passes

    def run_passes(module, **kwargs):
        seen.append(module.name)
        return real(module, **kwargs) + [Diagnostic(
            Severity.ERROR, "injected", "flagged by the test",
            obj=module.name)]

    monkeypatch.setattr(jitcompiler, "run_passes", run_passes)
    yield seen
    clear_kernel_store()    # leave no flagged artifact behind


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("mode", ["off", "warn", "error"])
def test_every_build_path_follows_the_knob(monkeypatch, flagged, path, mode):
    monkeypatch.setenv("REPRO_VERIFY", mode)
    fusion, prefix, drive = PATHS[path]
    ctx = Context(fusion=fusion)
    lat = Lattice((2, 2, 2, 4))
    a = latt_fermion(lat, context=ctx)
    b = latt_fermion(lat, context=ctx)
    a.gaussian(np.random.default_rng(5))
    if mode == "error":
        with pytest.raises(JITCompileError, match=f"kernel '{prefix}"):
            drive(ctx, a, b)
        assert ctx.device.stats.kernel_launches == 0
        return
    if mode == "warn":
        with pytest.warns(RuntimeWarning, match="flagged by the test"):
            got, want = drive(ctx, a, b)
    else:
        got, want = drive(ctx, a, b)
    assert np.allclose(got, want)
    assert bool(flagged) == (mode == "warn")
    assert all(name.startswith(prefix) for name in flagged)
