"""Tests for the analysis phase: sources, propagators, correlators."""

import numpy as np
import pytest

from repro.qcd.analysis import (
    compute_propagator,
    effective_mass,
    pion_correlator,
    point_source,
)
from repro.qcd.gauge import unit_gauge, weak_gauge
from repro.qcd.wilson import WilsonOperator, WilsonParams


class TestSources:
    def test_point_source_single_entry(self, ctx, lat4):
        src = point_source(lat4, (1, 2, 3, 0), spin=2, color=1)
        arr = src.to_numpy()
        assert arr[lat4.site_index((1, 2, 3, 0)), 2, 1] == 1.0
        assert np.count_nonzero(arr) == 1


@pytest.fixture(scope="module")
def propagator_setup():
    from repro.core.context import Context
    from repro.qdp.lattice import Lattice

    ctx = Context()
    lat = Lattice((2, 2, 2, 8))
    rng = np.random.default_rng(17)
    u = weak_gauge(lat, rng, eps=0.15, context=ctx)
    params = WilsonParams(kappa=0.11)
    prop = compute_propagator(
        u, params,
        lambda s, c: point_source(lat, (0, 0, 0, 0), s, c,
                                  context=ctx),
        tol=1e-10)
    return ctx, lat, u, params, prop


class TestPropagator:
    def test_columns_solve_the_dirac_equation(self, propagator_setup):
        ctx, lat, u, params, prop = propagator_setup
        from repro.core.reduction import norm2
        from repro.qdp.fields import latt_fermion

        m = WilsonOperator(u, params)
        psi = latt_fermion(lat, context=ctx)
        psi.from_numpy(np.ascontiguousarray(prop[:, :, :, 1, 2]))
        out = m.new_fermion()
        m.apply(out, psi)
        src = point_source(lat, (0, 0, 0, 0), 1, 2, context=ctx)
        resid = (norm2(out - src, context=ctx)
                 / norm2(src, context=ctx)) ** 0.5
        assert resid < 1e-8

    def test_pion_correlator_positive(self, propagator_setup):
        ctx, lat, u, params, prop = propagator_setup
        corr = pion_correlator(prop, lat)
        assert corr.shape == (8,)
        assert np.all(corr > 0)

    def test_pion_correlator_decays_and_is_symmetric(self,
                                                     propagator_setup):
        """Periodic lattice: C(t) falls away from the source and turns
        back up past the midpoint (cosh shape)."""
        ctx, lat, u, params, prop = propagator_setup
        corr = pion_correlator(prop, lat)
        assert corr[0] == corr.max()
        assert corr[1] < corr[0]
        mid = len(corr) // 2
        assert corr[mid] == corr.min() or corr[mid] <= 1.05 * corr.min()
        # approximate time-reflection symmetry
        for t in range(1, mid):
            assert corr[t] == pytest.approx(corr[-t], rel=0.2)

    def test_effective_mass_positive_before_midpoint(self,
                                                     propagator_setup):
        ctx, lat, u, params, prop = propagator_setup
        meff = effective_mass(pion_correlator(prop, lat))
        assert np.all(meff[:3] > 0)


class TestFreeField:
    def test_free_propagator_translation_invariant(self, ctx, rng):
        """On U = 1 the correlator depends only on t - t_src."""
        from repro.qdp.lattice import Lattice

        lat = Lattice((2, 2, 2, 6))
        u = unit_gauge(lat)
        params = WilsonParams(kappa=0.10)
        c0 = pion_correlator(compute_propagator(
            u, params, lambda s, c: point_source(lat, (0, 0, 0, 0),
                                                 s, c)), lat)
        c2 = pion_correlator(compute_propagator(
            u, params, lambda s, c: point_source(lat, (0, 0, 0, 2),
                                                 s, c)), lat)
        assert np.allclose(np.roll(c2, -2), c0, rtol=1e-7)
