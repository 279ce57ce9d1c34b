"""Tests for device-side reductions (norm2, innerProduct, sum)."""

import numpy as np
import pytest

from repro.core.expr import shift, trace
from repro.core.reduction import (
    ReductionError,
    innerProduct,
    innerProductReal,
    norm2,
    sum_sites,
)
from repro.qdp.fields import latt_color_matrix, latt_complex, latt_fermion, latt_real


class TestNorm2:
    def test_matches_numpy(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        a.gaussian(rng)
        ref = float(np.sum(np.abs(a.to_numpy()) ** 2))
        assert norm2(a) == pytest.approx(ref, rel=1e-13)

    def test_real_field(self, ctx, lat4, rng):
        r = latt_real(lat4)
        r.uniform(rng)
        assert norm2(r) == pytest.approx(float(np.sum(r.to_numpy() ** 2)),
                                         rel=1e-13)

    def test_of_expression(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        b = latt_fermion(lat4)
        a.gaussian(rng)
        b.gaussian(rng)
        ref = float(np.sum(np.abs(a.to_numpy() - b.to_numpy()) ** 2))
        assert norm2(a - b) == pytest.approx(ref, rel=1e-12)

    def test_subset(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        a.gaussian(rng)
        e = float(np.sum(np.abs(a.to_numpy()[lat4.even.sites]) ** 2))
        o = float(np.sum(np.abs(a.to_numpy()[lat4.odd.sites]) ** 2))
        assert norm2(a, subset=lat4.even) == pytest.approx(e, rel=1e-13)
        assert norm2(a, subset=lat4.odd) == pytest.approx(o, rel=1e-13)
        assert norm2(a, subset=lat4.even) + norm2(a, subset=lat4.odd) \
            == pytest.approx(norm2(a), rel=1e-13)

    def test_zero_field(self, ctx, lat4):
        assert norm2(latt_fermion(lat4)) == 0.0

    def test_sp_field_accumulates_in_dp(self, ctx, rng):
        """Reductions accumulate in f64 even for f32 fields."""
        from repro.qdp.lattice import Lattice

        lat = Lattice((8, 8, 8, 8))
        a = latt_fermion(lat, precision="f32")
        a.gaussian(rng)
        ref = float(np.sum(np.abs(a.to_numpy().astype(complex)) ** 2))
        assert norm2(a) == pytest.approx(ref, rel=1e-6)


class TestInnerProduct:
    def test_matches_numpy(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        b = latt_fermion(lat4)
        a.gaussian(rng)
        b.gaussian(rng)
        ref = complex(np.sum(a.to_numpy().conj() * b.to_numpy()))
        got = innerProduct(a, b)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_conjugate_on_left(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        b = latt_fermion(lat4)
        a.gaussian(rng)
        b.gaussian(rng)
        assert innerProduct(a, b) == pytest.approx(
            np.conj(innerProduct(b, a)), rel=1e-12)

    def test_self_inner_is_norm(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        a.gaussian(rng)
        ip = innerProduct(a, a)
        assert ip.imag == pytest.approx(0.0, abs=1e-10)
        assert ip.real == pytest.approx(norm2(a), rel=1e-12)

    def test_real_part_helper(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        b = latt_fermion(lat4)
        a.gaussian(rng)
        b.gaussian(rng)
        assert innerProductReal(a, b) == pytest.approx(
            innerProduct(a, b).real, rel=1e-12)

    def test_shape_mismatch_rejected(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        u = latt_color_matrix(lat4)
        from repro.core.expr import ExprTypeError

        with pytest.raises(ExprTypeError):
            innerProduct(a, u)


class TestSum:
    def test_complex_sum(self, ctx, lat4, rng):
        c = latt_complex(lat4)
        c.gaussian(rng)
        assert sum_sites(c.ref()) == pytest.approx(
            complex(np.sum(c.to_numpy())), rel=1e-12)

    def test_trace_sum(self, ctx, lat4, rng):
        u = latt_color_matrix(lat4)
        u.gaussian(rng)
        ref = complex(np.einsum("naa->", u.to_numpy()))
        assert sum_sites(trace(u.ref())) == pytest.approx(ref, rel=1e-12)

    def test_matrix_sum_rejected(self, ctx, lat4, rng):
        u = latt_color_matrix(lat4)
        u.gaussian(rng)
        with pytest.raises(ReductionError):
            sum_sites(u.ref())

    def test_no_field_rejected(self, ctx):
        from repro.core.expr import ScalarParam

        with pytest.raises(ReductionError):
            sum_sites(ScalarParam(1.0))

    def test_reduction_kernels_cached(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        a.gaussian(rng)
        norm2(a)
        n0 = ctx.kernel_cache.stats.n_kernels
        norm2(a)
        norm2(a)
        assert ctx.kernel_cache.stats.n_kernels == n0

    def test_shifted_reduction(self, ctx, lat4, rng):
        """Reductions support shifts (plaquette-style sums)."""
        a = latt_complex(lat4)
        a.gaussian(rng)
        b = latt_complex(lat4)
        b.gaussian(rng)
        got = sum_sites(a * shift(b, +1, 2))
        t = lat4.shift_map(2, +1)
        ref = complex(np.sum(a.to_numpy() * b.to_numpy()[t]))
        assert got == pytest.approx(ref, rel=1e-12)


class TestLookup:
    """The standalone partials path goes through the context's one
    kernel lookup: counted, and its launch env recorded on the entry."""

    @pytest.mark.parametrize("reduce, outs", [
        (lambda a, b: norm2(a), {"p_out_re"}),
        (lambda a, b: innerProduct(a, b), {"p_out_re", "p_out_im"}),
    ], ids=["norm2", "innerProduct"])
    def test_one_miss_then_hits(self, lat4, rng, reduce, outs):
        from repro.core.context import Context

        ctx = Context(fusion=False)
        a = latt_fermion(lat4, context=ctx)
        b = latt_fermion(lat4, context=ctx)
        a.gaussian(rng)
        b.gaussian(rng)
        first = reduce(a, b)
        assert (ctx.stats.module_cache_misses,
                ctx.stats.module_cache_hits) == (1, 0)
        assert reduce(a, b) == first
        assert reduce(a, b) == first
        assert (ctx.stats.module_cache_misses,
                ctx.stats.module_cache_hits) == (1, 2)

        (key, entry), = ctx.module_cache.items()
        assert key.startswith("red:")
        assert entry.module.name.startswith("red_")
        regions = entry.env.regions
        assert {p for p in regions if p.startswith("p_out")} == outs
        assert "p_dst" not in regions
        for p in outs:
            assert regions[p].size_bytes == lat4.nsites * 8
        assert entry.env.scalars["p_n"] == lat4.nsites
