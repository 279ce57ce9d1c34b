"""Tests for gauge observables: plaquette, staples, field strength."""

import numpy as np
import pytest

from repro.qcd import su3
from repro.qcd.gauge import (
    field_strength_numpy,
    gauge_transform,
    plaquette,
    staple,
    unit_gauge,
    weak_gauge,
)
from repro.qdp.fields import latt_color_matrix


class TestPlaquette:
    def test_unit_gauge_is_one(self, ctx, lat4):
        assert plaquette(unit_gauge(lat4)) == pytest.approx(1.0, abs=1e-13)

    def test_weak_gauge_near_one(self, ctx, lat4, rng):
        p = plaquette(weak_gauge(lat4, rng, eps=0.05))
        assert 0.98 < p < 1.0

    def test_gauge_invariance(self, ctx, lat4, rng):
        """The fundamental check: the plaquette must not move under
        U -> g U g+ with random g(x)."""
        u = weak_gauge(lat4, rng, eps=0.4)
        g = latt_color_matrix(lat4)
        g.from_numpy(su3.random_su3(rng, lat4.nsites))
        assert plaquette(gauge_transform(u, g)) == pytest.approx(
            plaquette(u), abs=1e-12)

    def test_matches_numpy(self, ctx, lat4, rng):
        u = weak_gauge(lat4, rng, eps=0.3)
        un = [f.to_numpy() for f in u]
        tot, n = 0.0, 0
        for mu in range(4):
            for nu in range(mu + 1, 4):
                tf, tg = lat4.shift_map(mu, +1), lat4.shift_map(nu, +1)
                p = np.einsum("nab,nbc,ndc,ned->nae", un[mu],
                              un[nu][tf], un[mu][tg].conj(),
                              un[nu].conj())
                tot += np.einsum("naa->", p).real
                n += 1
        ref = tot / (3 * n * lat4.nsites)
        assert plaquette(u) == pytest.approx(ref, rel=1e-12)


class TestStaple:
    def test_unit_gauge_staple(self, ctx, lat4):
        """On U = 1 every staple is the identity: sum = 2(Nd-1)."""
        u = unit_gauge(lat4)
        s = staple(u, 0).to_numpy()
        assert np.allclose(s, 6.0 * np.eye(3))

    def test_action_derivative_consistency(self, ctx, lat4, rng):
        """Re tr(U_mu V_mu) summed over one link direction counts each
        plaquette touching that direction twice (upper + lower)."""
        u = weak_gauge(lat4, rng, eps=0.3)
        total = 0.0
        for mu in range(4):
            w = np.einsum("nab,nbc->nac", u[mu].to_numpy(),
                          staple(u, mu).to_numpy())
            total += np.einsum("naa->", w).real
        from repro.qcd.gauge import plaquette_site_sum

        plaq_sum = sum(plaquette_site_sum(u, mu, nu)
                       for mu in range(4) for nu in range(mu + 1, 4))
        assert total == pytest.approx(4 * plaq_sum, rel=1e-10)


class TestFieldStrength:
    def test_antisymmetric(self, ctx, lat4, rng):
        u = weak_gauge(lat4, rng, eps=0.3)
        f01 = field_strength_numpy(u, 0, 1)
        f10 = field_strength_numpy(u, 1, 0)
        assert np.allclose(f01, -f10, atol=1e-12)

    def test_hermitian_traceless(self, ctx, lat4, rng):
        u = weak_gauge(lat4, rng, eps=0.3)
        f = field_strength_numpy(u, 1, 2)
        assert np.allclose(f, np.conj(np.swapaxes(f, -1, -2)), atol=1e-12)
        assert np.abs(np.einsum("nii->n", f)).max() < 1e-12

    def test_vanishes_on_unit_gauge(self, ctx, lat4):
        u = unit_gauge(lat4)
        assert np.abs(field_strength_numpy(u, 0, 3)).max() < 1e-14

    def test_continuum_limit_scaling(self, ctx, lat4, rng):
        """For U = exp(i eps H), F scales linearly in eps as eps->0."""
        f_eps = {}
        for eps in (0.02, 0.01):
            rng_local = np.random.default_rng(99)
            u = weak_gauge(lat4, rng_local, eps=eps)
            f_eps[eps] = np.abs(field_strength_numpy(u, 0, 1)).mean()
        ratio = f_eps[0.02] / f_eps[0.01]
        assert 1.7 < ratio < 2.3
