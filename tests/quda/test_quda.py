"""Tests for the QUDA comparator: optimized Dslash, mixed-precision
CG, and the device interface."""

import numpy as np
import pytest

from repro.core.reduction import norm2
from repro.device import K20M_ECC_ON
from repro.qcd.dslash import WilsonDslash
from repro.qcd.gauge import weak_gauge
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import latt_fermion
from repro.quda import (
    OptimizedDslash,
    QudaInvertParam,
    QudaSolver,
    mixed_precision_cg,
    quda_dslash_gflops,
)


@pytest.fixture()
def system(ctx, lat4, rng):
    u = weak_gauge(lat4, rng, eps=0.3)
    psi = latt_fermion(lat4)
    psi.gaussian(rng)
    return u, psi


class TestOptimizedDslash:
    def test_cross_validates_generated_dslash(self, ctx, lat4, system):
        """Two independent implementations (spin-projected hand code
        vs expression-generated kernels) must agree."""
        u, psi = system
        dest = latt_fermion(lat4)
        WilsonDslash(u)(dest, psi)
        opt = OptimizedDslash(u)
        assert np.allclose(dest.to_numpy(), opt.apply(psi.to_numpy()),
                           rtol=1e-12, atol=1e-13)

    def test_dagger(self, ctx, lat4, system):
        u, psi = system
        dest = latt_fermion(lat4)
        WilsonDslash(u)(dest, psi, sign=-1)
        opt = OptimizedDslash(u)
        assert np.allclose(dest.to_numpy(),
                           opt.apply(psi.to_numpy(), sign=-1),
                           rtol=1e-12, atol=1e-13)

    def test_gauge_refresh(self, ctx, lat4, system, rng):
        u, psi = system
        opt = OptimizedDslash(u)
        before = opt.apply(psi.to_numpy())
        u[0].from_numpy(u[0].to_numpy() * np.exp(0.3j))
        opt.refresh_gauge(u)
        after = opt.apply(psi.to_numpy())
        assert not np.allclose(before, after)


class TestMixedPrecisionCG:
    def _ops(self, u, kappa):
        opt = OptimizedDslash(u)

        def mdagm(v):
            m = v - kappa * opt.apply(v, +1)
            return m - kappa * opt.apply(m, -1)

        def mdagm_sp(v):
            return mdagm(v.astype(np.complex128)).astype(np.complex64)

        return mdagm, mdagm_sp

    def test_converges_beyond_single_precision(self, ctx, lat4, system,
                                               rng):
        """Reliable updates let the solve reach 1e-10 even though the
        iteration runs in f32 — the mixed-precision headline."""
        u, _ = system
        mdagm, mdagm_sp = self._ops(u, 0.12)
        b = (rng.normal(size=(lat4.nsites, 4, 3))
             + 1j * rng.normal(size=(lat4.nsites, 4, 3)))
        x, res = mixed_precision_cg(mdagm, mdagm_sp, b, tol=1e-10,
                                    max_iter=1000)
        assert res.converged
        assert res.reliable_updates >= 1
        r = b - mdagm(x)
        assert (np.vdot(r, r).real / np.vdot(b, b).real) ** 0.5 < 1e-9

    def test_zero_rhs(self, ctx, lat4, system):
        u, _ = system
        mdagm, mdagm_sp = self._ops(u, 0.12)
        x, res = mixed_precision_cg(
            mdagm, mdagm_sp, np.zeros((lat4.nsites, 4, 3), complex))
        assert res.converged and np.all(x == 0)


class TestQudaSolverInterface:
    def test_solution_verified_by_qdpjit_operator(self, ctx, lat4,
                                                  system, rng):
        """QUDA solves it, the QDP-JIT operator checks it — the
        cross-library loop Chroma runs in production."""
        u, _ = system
        params = WilsonParams(kappa=0.12)
        b = latt_fermion(lat4)
        b.gaussian(rng)
        x = latt_fermion(lat4)
        solver = QudaSolver(u, params, QudaInvertParam(tol=1e-10))
        res = solver.solve(x, b)
        assert res.converged
        m = WilsonOperator(u, params)
        tmp = m.new_fermion()
        m.apply_mdagm(tmp, x)
        tmp.assign(b - tmp)
        assert (norm2(tmp) / norm2(b)) ** 0.5 < 1e-8

    def test_single_precision_operator_runs_in_complex64(
            self, ctx, lat4, system, rng, monkeypatch):
        """The inner solve's M+ M applies complex64 links to complex64
        spinors: no double-precision pass rounded afterwards."""
        u, _ = system
        solver = QudaSolver(u, WilsonParams(kappa=0.12))
        d, seen = solver._dslash, []
        real = d.apply

        def spy(psi, sign=+1):
            out = real(psi, sign)
            seen.append((psi.dtype, out.dtype))
            return out

        monkeypatch.setattr(d, "apply", spy)
        v = (rng.normal(size=(lat4.nsites, 4, 3))
             + 1j * rng.normal(size=(lat4.nsites, 4, 3)))
        out = solver._mdagm(v.astype(np.complex64), sp=True)
        c64 = np.dtype(np.complex64)
        assert out.dtype == c64 and seen == [(c64, c64)] * 2
        assert {x.dtype for x in d.u_sp} == {c64}
        assert np.allclose(out, solver._mdagm(v), rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("params", [
        WilsonParams(kappa=0.10, anisotropy=2.0),
        WilsonParams(kappa=0.10, clover_coeff=0.3),
    ], ids=["anisotropic", "clover"])
    def test_rejects_params_it_does_not_model(self, ctx, system, params):
        """The optimized Dslash is the isotropic Wilson hop: solving
        another operator with it would converge to the wrong answer."""
        u, _ = system
        with pytest.raises(ValueError, match="isotropic Wilson"):
            QudaSolver(u, params)

    def test_device_interface_free_of_transfers(self, ctx, lat4, system,
                                                rng):
        """Paper Sec. VIII-D: the device interface eliminates the
        copy/re-layout; the non-device path pays it."""
        u, _ = system
        params = WilsonParams(kappa=0.12)
        b = latt_fermion(lat4)
        b.gaussian(rng)
        x = latt_fermion(lat4)
        dev = QudaSolver(u, params,
                         QudaInvertParam(tol=1e-8, device_interface=True))
        dev.solve(x, b)
        assert dev.transfer_seconds_charged == 0.0
        staged = QudaSolver(u, params,
                            QudaInvertParam(tol=1e-8,
                                            device_interface=False))
        staged.solve(x, b)
        assert staged.transfer_seconds_charged > 0.0


class TestQudaPerfModel:
    def test_paper_anchor_sp(self):
        """346 GFLOPS, SP, V = 40^4, K20m ECC on (Sec. VIII-C)."""
        g = quda_dslash_gflops(K20M_ECC_ON, 40 ** 4, "f32")
        assert g == pytest.approx(346, rel=0.03)

    def test_paper_anchor_dp(self):
        """171 GFLOPS, DP, V = 32^4."""
        g = quda_dslash_gflops(K20M_ECC_ON, 32 ** 4, "f64")
        assert g == pytest.approx(171, rel=0.03)

    def test_compression_helps(self):
        g18 = quda_dslash_gflops(K20M_ECC_ON, 32 ** 4, "f32",
                                 gauge_compression=18)
        g12 = quda_dslash_gflops(K20M_ECC_ON, 32 ** 4, "f32",
                                 gauge_compression=12)
        assert g12 > g18
