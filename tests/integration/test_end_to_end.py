"""End-to-end integration tests: the paper's central claims exercised
through the whole stack in one place."""

import numpy as np
import pytest

from repro.core.context import Context
from repro.core.reduction import norm2
from repro.qcd.gauge import plaquette, weak_gauge
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice


class TestUnalteredApplicationClaim:
    """Paper abstract: 'applications can be run unaltered' — the same
    high-level code runs against differently configured backends."""

    def _workload(self, ctx, seed=3):
        lat = Lattice((4, 4, 4, 4))
        rng = np.random.default_rng(seed)
        u = weak_gauge(lat, rng, context=ctx)
        m = WilsonOperator(u, WilsonParams(kappa=0.12))
        psi = latt_fermion(lat, context=ctx)
        psi.gaussian(rng)
        out = latt_fermion(lat, context=ctx)
        m.apply(out, psi)
        return plaquette(u, lat), norm2(out, context=ctx)

    def test_same_results_across_device_configs(self):
        from repro.device.specs import K20M_ECC_ON, K20X_ECC_OFF

        results = []
        for spec in (K20X_ECC_OFF, K20M_ECC_ON):
            for autotune in (True, False):
                ctx = Context(spec, autotune=autotune)
                results.append(self._workload(ctx))
        ref = results[0]
        for r in results[1:]:
            assert r[0] == pytest.approx(ref[0], rel=1e-14)
            assert r[1] == pytest.approx(ref[1], rel=1e-14)

    def test_same_results_under_memory_pressure(self):
        """The software cache must be transparent: a pool that can
        barely hold the working set yields identical physics."""
        big = Context()
        small = Context(pool_capacity=14 * 24 * 256 * 8 + (1 << 17))
        assert self._workload(big) == pytest.approx(
            self._workload(small), rel=1e-14)


class TestGeneratedCodeQuality:
    def test_all_generated_ptx_verifies(self, ctx, lat4, rng):
        """Every kernel the expression layer generates must pass the
        static verifier and recompile from its own text under the env
        it launched with.  The workload makes its own kernels (M, M^+
        and a norm), so the count holds run alone or after others."""
        from repro.driver import compile_ptx
        from repro.ptx.verifier import verify

        u = weak_gauge(lat4, rng)
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        out = latt_fermion(lat4)
        m = WilsonOperator(u, WilsonParams(kappa=0.1))
        m.apply(out, psi)
        m.apply_dagger(psi, out)
        norm2(out)
        checked = 0
        for entry in ctx.module_cache.values():
            module = entry.module
            verify(module)
            k = compile_ptx(module.render(), entry.env)
            assert k.name == module.name
            checked += 1
        assert checked >= 3

    def test_kernel_population_scale(self):
        """A full application pass generates tens of distinct kernels
        (paper: ~200 for a production trajectory); each compiles in
        the 0.05-0.22 s modeled band."""
        ctx = Context()
        lat = Lattice((2, 2, 2, 4))
        rng = np.random.default_rng(9)
        from repro.hmc import GaugeMonomial, Level, MultiTimescaleIntegrator, HMC, TwoFlavorWilsonMonomial

        u = weak_gauge(lat, rng, context=ctx)
        mono = TwoFlavorWilsonMonomial(WilsonParams(kappa=0.08), tol=1e-8)
        integ = MultiTimescaleIntegrator([
            Level([mono], n_steps=1),
            Level([GaugeMonomial(beta=5.5)], n_steps=2),
        ])
        hmc = HMC(u, integ, rng)
        hmc.trajectory(tau=0.1)
        n = ctx.kernel_cache.stats.n_kernels
        assert 10 <= n <= 200
        per_kernel = (ctx.kernel_cache.stats.total_modeled_compile_seconds
                      / n)
        assert 0.05 <= per_kernel <= 0.25

    def test_wall_clock_compile_is_fast(self):
        """Our driver JIT's real compile times stay tiny (the paper's
        point: JIT-from-PTX is quick, unlike calling nvcc)."""
        ctx = Context()
        lat = Lattice((4, 4, 4, 4))
        rng = np.random.default_rng(1)
        a = latt_fermion(lat, context=ctx)
        a.gaussian(rng)
        b = latt_fermion(lat, context=ctx)
        b.assign(2.0 * a + a)
        assert ctx.kernel_cache.stats.total_compile_seconds < 1.0


class TestPrecisionPaths:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_full_operator_in_both_precisions(self, ctx, rng, precision):
        lat = Lattice((4, 4, 4, 4))
        u = weak_gauge(lat, rng, precision=precision)
        m = WilsonOperator(u, WilsonParams(kappa=0.12),
                           precision=precision)
        psi = latt_fermion(lat, precision=precision)
        psi.gaussian(rng)
        out = latt_fermion(lat, precision=precision)
        m.apply(out, psi)
        # compare against an f64 recomputation of the same data
        u64 = [f.astype("f64") for f in u]
        from repro.qdp.fields import multi1d

        m64 = WilsonOperator(multi1d(u64), WilsonParams(kappa=0.12))
        psi64 = psi.astype("f64")
        out64 = latt_fermion(lat)
        m64.apply(out64, psi64)
        tol = 1e-5 if precision == "f32" else 1e-13
        assert np.allclose(out.to_numpy(), out64.to_numpy(), atol=tol,
                           rtol=tol)
