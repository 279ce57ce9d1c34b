"""Tests for the Wilson-clover operator (the production action: the
Wilson operator with the clover site term)."""

import numpy as np
import pytest

from repro.core.reduction import innerProduct, norm2
from repro.qcd.gauge import unit_gauge, weak_gauge
from repro.qcd.solver import cg
from repro.qcd.wilson import (EvenOddWilsonOperator, WilsonOperator,
                              WilsonParams)
from repro.qdp.fields import latt_fermion


@pytest.fixture()
def setup(ctx, lat4, rng):
    u = weak_gauge(lat4, rng, eps=0.25)
    params = WilsonParams(kappa=0.11, clover_coeff=0.3)
    psi = latt_fermion(lat4)
    psi.gaussian(rng)
    return u, params, psi


class TestWilsonClover:
    def test_reduces_to_wilson_at_zero_coeff(self, ctx, lat4, setup):
        u, _, psi = setup
        clov = WilsonOperator(u, WilsonParams(kappa=0.11,
                                              clover_coeff=0.0))
        assert clov.clover is not None
        wil = WilsonOperator(u, WilsonParams(kappa=0.11))
        assert wil.clover is None
        a, b = clov.new_fermion(), wil.new_fermion()
        clov.apply(a, psi)
        wil.apply(b, psi)
        assert np.array_equal(a.to_numpy(), b.to_numpy())

    def test_matches_components(self, ctx, lat4, setup):
        """M psi = A psi - kappa D psi assembled independently."""
        u, params, psi = setup
        m = WilsonOperator(u, params)
        out = m.new_fermion()
        m.apply(out, psi)
        a_psi = m.new_fermion()
        m.clover.apply(a_psi, psi)
        from repro.qcd.dslash import WilsonDslash

        d_psi = m.new_fermion()
        WilsonDslash(u)(d_psi, psi)
        ref = a_psi.to_numpy() - params.kappa * d_psi.to_numpy()
        assert np.allclose(out.to_numpy(), ref, rtol=1e-12)

    def test_gamma5_hermiticity(self, ctx, lat4, setup, rng):
        u, params, psi = setup
        m = WilsonOperator(u, params)
        chi = latt_fermion(lat4)
        chi.gaussian(rng)
        mpsi, mdchi = m.new_fermion(), m.new_fermion()
        m.apply(mpsi, psi)
        m.apply_dagger(mdchi, chi)
        assert innerProduct(mpsi, chi) == pytest.approx(
            innerProduct(psi, mdchi), rel=1e-11)

    def test_anisotropic(self, ctx, lat4, setup, rng):
        u, _, psi = setup
        params = WilsonParams(kappa=0.10, clover_coeff=0.3,
                              anisotropy=2.0)
        m = WilsonOperator(u, params)
        chi = latt_fermion(lat4)
        chi.gaussian(rng)
        mpsi, mdchi = m.new_fermion(), m.new_fermion()
        m.apply(mpsi, psi)
        m.apply_dagger(mdchi, chi)
        assert innerProduct(mpsi, chi) == pytest.approx(
            innerProduct(psi, mdchi), rel=1e-11)


class TestEvenOddClover:
    def test_schur_equivalence(self, ctx, lat4, setup, rng):
        u, params, _ = setup
        m_full = WilsonOperator(u, params)
        m_eo = EvenOddWilsonOperator(u, params)
        chi = latt_fermion(lat4)
        chi.gaussian(rng)
        b = m_eo.prepare_source(chi)
        rhs = m_eo.new_fermion()
        m_eo.apply_dagger(rhs, b)
        x = m_eo.new_fermion()
        res = cg(lambda d, s: m_eo.apply_mdagm(d, s), x, rhs,
                 tol=1e-11, max_iter=800, subset=lat4.even)
        assert res.converged
        psi = m_eo.reconstruct(x, chi)
        check = m_full.new_fermion()
        m_full.apply(check, psi)
        err = (norm2(check - chi) / norm2(chi)) ** 0.5
        assert err < 1e-8

    def test_gamma5_hermiticity(self, ctx, lat4, setup, rng):
        u, params, psi = setup
        m = EvenOddWilsonOperator(u, params)
        chi = latt_fermion(lat4)
        chi.gaussian(rng)
        a, b = m.new_fermion(), m.new_fermion()
        m.apply(a, psi)
        m.apply_dagger(b, chi)
        assert innerProduct(a, chi, subset=lat4.even) == pytest.approx(
            innerProduct(psi, b, subset=lat4.even), rel=1e-11)

    def test_unit_gauge_zero_coeff_is_schur_identity(self, ctx, lat4,
                                                     rng):
        """On U=1 with c=0, A=1 and M_hat = 1 - kappa^2 D_eo D_oe."""
        u = unit_gauge(lat4)
        params = WilsonParams(kappa=0.1, clover_coeff=0.0)
        m = EvenOddWilsonOperator(u, params)
        assert m.clover is not None
        w = EvenOddWilsonOperator(u, WilsonParams(kappa=0.1))
        assert w.clover is None
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        a, b = m.new_fermion(), w.new_fermion()
        m.apply(a, psi)
        w.apply(b, psi)
        assert np.array_equal(a.to_numpy(), b.to_numpy())

