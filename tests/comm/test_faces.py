"""Unit tests for the face gather/scatter kernels (paper Sec. V)."""

import numpy as np
import pytest

from repro.comm.faces import FaceKernels, build_gather_kernel, build_scatter_kernel
from repro.core.context import Context
from repro.ptx.verifier import verify
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice


@pytest.fixture()
def env():
    ctx = Context()
    lat = Lattice((4, 4, 4, 4))
    psi = latt_fermion(lat, context=ctx)
    psi.gaussian(np.random.default_rng(0))
    fk = FaceKernels(ctx)
    return ctx, lat, psi, fk


def _launch(ctx, module, compiled, params, n):
    return ctx.device.launch(compiled, module.info, params, n,
                             block_size=128, precision="f64")


class TestKernels:
    def test_modules_verify(self):
        verify(build_gather_kernel(24, "f64"))
        verify(build_scatter_kernel(24, "f64"))
        verify(build_gather_kernel(12, "f32"))

    def test_gather_packs_faces(self, env):
        ctx, lat, psi, fk = env
        face = lat.face_sites(3, +1)
        nface = face.size
        kernel = fk.get("gather", 24, "f64", lat.nsites, face)
        module, compiled = kernel.module, kernel.compiled
        addrs = ctx.field_cache.make_available([psi])
        buf = ctx.device.mem_alloc(24 * 8 * nface)
        params = {
            "p_lo": lat.nsites, "p_n": nface,
            "p_sites": ctx.upload_table(("t", lat.dims, 3, +1), face),
            "p_dst": buf, "p_src": addrs[psi.uid],
        }
        _launch(ctx, module, compiled, params, nface)
        got = ctx.device.memcpy_dtoh(buf, 24 * 8 * nface, np.float64)
        # buffer layout: word-major, face-slot fastest
        host = psi.host.reshape(24, lat.nsites)
        expected = host[:, face].reshape(-1)
        assert np.array_equal(got[:24 * nface], expected)

    def test_gather_scatter_roundtrip(self, env):
        ctx, lat, psi, fk = env
        face = lat.face_sites(1, -1)
        nface = face.size
        gather = fk.get("gather", 24, "f64", lat.nsites, face)
        scatter = fk.get("scatter", 24, "f64", lat.nsites, face)
        gmod, gk = gather.module, gather.compiled
        smod, sk = scatter.module, scatter.compiled
        addrs = ctx.field_cache.make_available([psi])
        buf = ctx.device.mem_alloc(24 * 8 * nface)
        table = ctx.upload_table(("t2", lat.dims, 1, -1), face)
        base = {"p_lo": lat.nsites, "p_n": nface, "p_sites": table}
        _launch(ctx, gmod, gk, {**base, "p_dst": buf,
                                "p_src": addrs[psi.uid]}, nface)
        # wipe the faces, scatter them back, field must be restored
        original = psi.to_numpy().copy()
        dest = latt_fermion(lat, context=ctx)
        daddrs = ctx.field_cache.make_available([dest])
        _launch(ctx, smod, sk, {**base, "p_dst": daddrs[dest.uid],
                                "p_src": buf}, nface)
        ctx.field_cache.mark_device_dirty(dest)
        out = dest.to_numpy()
        assert np.array_equal(out[face], original[face])
        others = np.setdiff1d(np.arange(lat.nsites), face)
        assert np.all(out[others] == 0)

    def test_kernels_cached_per_shape(self, env):
        ctx, lat, psi, fk = env
        face = lat.face_sites(3, +1)
        a = fk.get("gather", 24, "f64", lat.nsites, face)
        b = fk.get("gather", 24, "f64", lat.nsites, lat.face_sites(0, -1))
        c = fk.get("gather", 18, "f64", lat.nsites, face)
        assert a is b       # one kernel per copy shape, whatever the face
        assert a.compiled is not c.compiled

    def test_built_and_verified_under_the_launch_env(self, env):
        """Like every statement kernel: absint knows the region sizes
        and the site table's content, so each access is proven."""
        from repro.driver.jitcompiler import _env_key
        from repro.ptx.absint import analyze_module

        ctx, lat, psi, fk = env
        for mu in (0, 3):
            face = lat.face_sites(mu, +1)
            kernel = FaceKernels(ctx).get("scatter", 24, "f64", lat.nsites,
                                          face)
            assert kernel.env.scalars == {"p_lo": lat.nsites,
                                          "p_n": face.size}
            assert _env_key(kernel.env) in kernel.compiled.checked
            bound = analyze_module(kernel.module, env=kernel.env)
            assert bound.bounds_proven
            # a guard without region sizes is not a proof
            bare = analyze_module(kernel.module)
            assert [a.verdict for a in bare.accesses] == ["unproven"] * 49
