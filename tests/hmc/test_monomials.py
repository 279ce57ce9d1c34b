"""Tests for the action monomials beyond force correctness."""

import numpy as np
import pytest

from repro.core.reduction import norm2
from repro.hmc import (
    HMC,
    GaugeMonomial,
    HasenbuschRatioMonomial,
    Level,
    MultiTimescaleIntegrator,
    OneFlavorRationalMonomial,
    TwoFlavorWilsonMonomial,
    fourth_root,
    inv_sqrt,
)
from repro.hmc.monomials import CloverForceError
from repro.qcd.gauge import weak_gauge
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import latt_fermion


class TestRationalMonomial:
    def test_action_matches_eigendecomposition(self, ctx, lat_small, rng):
        """S = phi+ (M+M)^{-1/2} phi computed via the rational
        approximation must match the exact dense answer."""
        u = weak_gauge(lat_small, rng, eps=0.2)
        params = WilsonParams(kappa=0.08)
        pf_a = inv_sqrt(0.05, 4.0, degree=16)
        pf_h = fourth_root(0.05, 4.0, degree=16)
        mono = OneFlavorRationalMonomial(params, pf_a, pf_h, tol=1e-12)
        phi = latt_fermion(lat_small)
        phi.gaussian(rng)
        mono.phi = phi
        s = mono.action(u)
        # dense reference
        n = lat_small.nsites
        m = WilsonOperator(u, params)
        dim = n * 12
        a = np.zeros((dim, dim), dtype=complex)
        basis = latt_fermion(lat_small)
        out = latt_fermion(lat_small)
        for k in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[k] = 1.0
            basis.from_numpy(e.reshape(n, 4, 3))
            m.apply_mdagm(out, basis)
            a[:, k] = out.to_numpy().reshape(-1)
        w, v = np.linalg.eigh(a)
        assert w.min() > pf_a.lo and w.max() < pf_a.hi, \
            "test spectral window misconfigured"
        pvec = phi.to_numpy().reshape(-1)
        coeff = v.conj().T @ pvec
        ref = float(np.sum(np.abs(coeff) ** 2 / np.sqrt(w)))
        assert s == pytest.approx(ref, rel=1e-6)

    def test_heatbath_consistency(self, ctx, lat_small, rng):
        """After phi = r4(A) eta, S ~ eta+ r4 r(A) r4 eta ~ |eta|^2."""
        u = weak_gauge(lat_small, rng, eps=0.2)
        params = WilsonParams(kappa=0.08)
        pf_a = inv_sqrt(0.05, 4.0, degree=16)
        pf_h = fourth_root(0.05, 4.0, degree=16)
        mono = OneFlavorRationalMonomial(params, pf_a, pf_h, tol=1e-12)
        vals = []
        for _ in range(3):
            mono.refresh(u, rng)
            vals.append(mono.action(u) / (12 * lat_small.nsites))
        assert 0.6 < np.mean(vals) < 1.4


class TestHasenbusch:
    def test_equal_masses_is_identity_ratio(self, ctx, lat_small, rng):
        """With M1 = M2 the ratio action is |phi|^2 exactly."""
        u = weak_gauge(lat_small, rng, eps=0.2)
        p = WilsonParams(kappa=0.09)
        mono = HasenbuschRatioMonomial(p, p, tol=1e-12)
        mono.refresh(u, rng)
        assert mono.action(u) == pytest.approx(norm2(mono.phi), rel=1e-8)

    def test_ratio_force_softer_than_direct(self, ctx, lat_small, rng):
        """The point of mass preconditioning: the ratio's force is
        smaller than the light quark's direct force."""
        u = weak_gauge(lat_small, rng, eps=0.2)
        light = WilsonParams(kappa=0.118)
        heavy = WilsonParams(kappa=0.10)
        direct = TwoFlavorWilsonMonomial(light, tol=1e-10)
        direct.refresh(u, rng)
        ratio = HasenbuschRatioMonomial(light, heavy, tol=1e-10)
        ratio.phi = direct.phi
        f_direct = np.abs(direct.force(u)).max()
        f_ratio = np.abs(ratio.force(u)).max()
        assert f_ratio < f_direct


class TestWilsonOnly:
    """The fermion forces are the hopping term's alone, so clover
    params are refused when a monomial is built."""

    CLOVER = WilsonParams(kappa=0.1, clover_coeff=0.3)

    @pytest.mark.parametrize("build", [
        lambda p: TwoFlavorWilsonMonomial(p),
        lambda p: HasenbuschRatioMonomial(WilsonParams(kappa=0.1), p),
        lambda p: HasenbuschRatioMonomial(p, WilsonParams(kappa=0.1)),
        lambda p: OneFlavorRationalMonomial(
            p, inv_sqrt(0.05, 4.0, degree=4),
            fourth_root(0.05, 4.0, degree=4)),
    ], ids=["two_flavor", "hasenbusch_heavy", "hasenbusch_light",
            "rational"])
    def test_clover_params_rejected(self, build):
        with pytest.raises(CloverForceError, match=r"4\(f\)"):
            build(self.CLOVER)


class TestFullRHMC:
    def test_two_plus_one_trajectory(self, ctx, lat_small):
        """The paper's production composition in miniature: 2+1
        flavors = Hasenbusch ratio + heavy 2-flavor + rational strange
        on a multi-timescale integrator; dH must be small and the
        trajectory bookkeeping complete."""
        rng = np.random.default_rng(42)
        u = weak_gauge(lat_small, rng, eps=0.2)
        light = WilsonParams(kappa=0.115)
        heavy = WilsonParams(kappa=0.10)
        strange = WilsonParams(kappa=0.105)
        pf_a = inv_sqrt(0.05, 6.0, degree=12)
        pf_h = fourth_root(0.05, 6.0, degree=12)
        levels = [
            Level([HasenbuschRatioMonomial(light, heavy, tol=1e-10),
                   OneFlavorRationalMonomial(strange, pf_a, pf_h,
                                             tol=1e-10)], n_steps=2),
            Level([TwoFlavorWilsonMonomial(heavy, tol=1e-10)], n_steps=2),
            Level([GaugeMonomial(beta=5.6)], n_steps=4,
                  scheme="omelyan"),
        ]
        hmc = HMC(u, MultiTimescaleIntegrator(levels), rng)
        r = hmc.trajectory(tau=0.1)
        assert abs(r.delta_h) < 0.1
        assert r.solver_iterations > 0
        assert r.kernels_launched > 100
        assert r.force_calls  # per-level force accounting populated
