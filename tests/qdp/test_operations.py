"""Tests for the extended QDP operations: local reductions, outer
products, math functions."""

import numpy as np
import pytest

from repro.core.expr import ExprTypeError, exp, fabs, log, pow_const, sqrt
from repro.core.reduction import norm2, sum_sites
from repro.qdp.fields import (
    latt_color_vector,
    latt_fermion,
    latt_real,
)
from repro.qdp.operations import (
    localInnerProduct,
    localNorm2,
    outerProduct,
)


class TestLocalReductions:
    def test_local_norm2(self, ctx, lat4, rng):
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        out = latt_real(lat4)
        out.assign(localNorm2(psi))
        ref = np.sum(np.abs(psi.to_numpy()) ** 2, axis=(1, 2))
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_local_norm2_sums_to_global(self, ctx, lat4, rng):
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        out = latt_real(lat4)
        out.assign(localNorm2(psi))
        assert sum_sites(out + 0.0 * out).real == pytest.approx(
            norm2(psi), rel=1e-12)

    def test_local_inner_product(self, ctx, lat4, rng):
        from repro.qdp.fields import latt_complex

        a = latt_fermion(lat4)
        b = latt_fermion(lat4)
        a.gaussian(rng)
        b.gaussian(rng)
        out = latt_complex(lat4)
        out.assign(localInnerProduct(a, b))
        ref = np.sum(a.to_numpy().conj() * b.to_numpy(), axis=(1, 2))
        assert np.allclose(out.to_numpy(), ref, rtol=1e-12)

    def test_local_inner_shape_checked(self, ctx, lat4):
        from repro.qdp.fields import latt_color_matrix

        with pytest.raises(ExprTypeError):
            localInnerProduct(latt_fermion(lat4),
                              latt_color_matrix(lat4))


class TestOuterProduct:
    def test_matches_numpy(self, ctx, lat4, rng):
        from repro.qdp.fields import latt_color_matrix

        a = latt_color_vector(lat4)
        b = latt_color_vector(lat4)
        a.gaussian(rng)
        b.gaussian(rng)
        out = latt_color_matrix(lat4)
        out.assign(outerProduct(a, b))
        ref = np.einsum("ni,nj->nij", a.to_numpy(), b.to_numpy().conj())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_requires_color_vectors(self, ctx, lat4):
        with pytest.raises(ExprTypeError):
            outerProduct(latt_fermion(lat4), latt_fermion(lat4))


class TestMathFunctions:
    def test_exp_log_roundtrip(self, ctx, lat4, rng):
        r = latt_real(lat4)
        r.from_numpy(rng.uniform(0.2, 5.0, lat4.nsites))
        out = latt_real(lat4)
        out.assign(exp(log(r)))
        assert np.allclose(out.to_numpy(), r.to_numpy(), rtol=1e-13)

    def test_sqrt_vs_pow_half(self, ctx, lat4, rng):
        r = latt_real(lat4)
        r.from_numpy(rng.uniform(0.2, 5.0, lat4.nsites))
        a = latt_real(lat4)
        b = latt_real(lat4)
        a.assign(sqrt(r))
        b.assign(pow_const(r, 0.5))
        assert np.allclose(a.to_numpy(), b.to_numpy(), rtol=1e-12)

    def test_integer_pow_unrolled_exact(self, ctx, lat4, rng):
        r = latt_real(lat4)
        r.from_numpy(rng.normal(size=lat4.nsites))
        out = latt_real(lat4)
        out.assign(pow_const(r, 3))
        rn = r.to_numpy()
        # the unrolled form is (r*r)*r — compare bit-exactly to that
        assert np.array_equal(out.to_numpy(), (rn * rn) * rn)
        # negative bases work (no log involved)
        assert (out.to_numpy() < 0).any()

    def test_math_on_complex_rejected(self, ctx, lat4):
        psi = latt_fermion(lat4)
        with pytest.raises(ExprTypeError):
            exp(psi)

    def test_fabs(self, ctx, lat4, rng):
        r = latt_real(lat4)
        r.from_numpy(rng.normal(size=lat4.nsites))
        out = latt_real(lat4)
        out.assign(fabs(r))
        assert np.array_equal(out.to_numpy(), np.abs(r.to_numpy()))

    def test_trig_identity(self, ctx, lat4, rng):
        from repro.core.expr import cos, sin

        r = latt_real(lat4)
        r.from_numpy(rng.uniform(-3, 3, lat4.nsites))
        out = latt_real(lat4)
        out.assign(sin(r) * sin(r) + cos(r) * cos(r))
        assert np.allclose(out.to_numpy(), 1.0, rtol=1e-13)
