"""Tests for the packed clover term (paper Sec. VI-A)."""

import numpy as np
import pytest

from repro.core.reduction import innerProduct
from repro.qcd.clover import CloverTerm
from repro.qcd.gauge import unit_gauge, weak_gauge
from repro.qdp.fields import latt_fermion


@pytest.fixture()
def clover(ctx, lat4, rng):
    u = weak_gauge(lat4, rng, eps=0.4)
    return CloverTerm(u, coeff=0.8)


class TestConstruction:
    def test_blocks_hermitian(self, clover):
        b = clover.blocks
        assert np.allclose(b, np.conj(np.swapaxes(b, -1, -2)), atol=1e-12)

    def test_unit_gauge_is_identity(self, ctx, lat4):
        a = CloverTerm(unit_gauge(lat4), coeff=0.8)
        assert np.allclose(a.blocks, np.eye(6), atol=1e-13)

    def test_packing_roundtrip(self, clover, lat4):
        """diag/tri packed fields must encode exactly the dense blocks."""
        from repro.qdp.typesys import tri_index

        d = clover.diag.to_numpy()     # (n, 2, 6) real
        t = clover.tri.to_numpy()      # (n, 2, 15) complex
        b = clover.blocks
        for blk in range(2):
            assert np.allclose(d[:, blk],
                               np.einsum("nii->ni", b[:, blk]).real)
            for i in range(6):
                for j in range(i):
                    assert np.allclose(t[:, blk, tri_index(i, j)],
                                       b[:, blk, i, j])


class TestApply:
    def test_matches_dense(self, ctx, lat4, clover, rng):
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        chi = latt_fermion(lat4)
        clover.apply(chi, psi)
        ref = clover.dense_apply_numpy(psi.to_numpy())
        assert np.allclose(chi.to_numpy(), ref, rtol=1e-12, atol=1e-13)

    def test_hermitian(self, ctx, lat4, clover, rng):
        a = latt_fermion(lat4)
        b = latt_fermion(lat4)
        a.gaussian(rng)
        b.gaussian(rng)
        aa, ab = latt_fermion(lat4), latt_fermion(lat4)
        clover.apply(aa, a)
        clover.apply(ab, b)
        assert innerProduct(aa, b) == pytest.approx(innerProduct(a, ab),
                                                    rel=1e-11)

    def test_subset_apply(self, ctx, lat4, clover, rng):
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        chi = latt_fermion(lat4)
        clover.apply(chi, psi, subset=lat4.odd)
        ref = clover.dense_apply_numpy(psi.to_numpy())
        out = chi.to_numpy()
        assert np.allclose(out[lat4.odd.sites], ref[lat4.odd.sites],
                           rtol=1e-12)
        assert np.all(out[lat4.even.sites] == 0)

    def test_inverse_roundtrip(self, ctx, lat4, clover, rng):
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        chi = latt_fermion(lat4)
        back = latt_fermion(lat4)
        clover.apply(chi, psi)
        clover.apply_inverse(back, chi)
        assert np.allclose(back.to_numpy(), psi.to_numpy(), atol=1e-9)

    def test_arithmetic_intensity(self, ctx, lat4, clover, rng):
        """Paper Table II: the clover apply runs at 0.525 flop/byte."""
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        chi = latt_fermion(lat4)
        cost = chi.assign(clover.apply_expr(psi))
        assert cost.flops == 504 * lat4.nsites
        assert cost.bytes_moved == 960 * lat4.nsites


class TestExtensionMechanism:
    """The clover term is the reference user of CustomOpNode — the
    paper's user-defined-operation support for mixing spin and color spaces."""

    def test_composes_with_expressions(self, ctx, lat4, clover, rng):
        psi = latt_fermion(lat4)
        phi = latt_fermion(lat4)
        psi.gaussian(rng)
        phi.gaussian(rng)
        out = latt_fermion(lat4)
        out.assign(clover.apply_expr(psi) - 2.0 * phi)
        ref = (clover.dense_apply_numpy(psi.to_numpy())
               - 2.0 * phi.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-12)

    def test_kernel_cached_across_applications(self, ctx, lat4, clover,
                                               rng):
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        chi = latt_fermion(lat4)
        clover.apply(chi, psi)
        ctx.flush()
        n0 = ctx.kernel_cache.stats.n_kernels
        clover.apply(chi, psi)
        clover.apply(chi, psi)
        ctx.flush()
        assert ctx.kernel_cache.stats.n_kernels == n0
