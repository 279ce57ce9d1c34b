"""Tests for the half-spinor (spin projection) machinery and the Wilson
Dslash built from it."""

import numpy as np
import pytest

from repro.core import evaluator
from repro.core.context import Context
from repro.core.expr import ExprTypeError
from repro.qcd.dslash import WilsonDslash, dslash_expr
from repro.qcd.gamma import GAMMA, IDENTITY, projector
from repro.qcd.gauge import weak_gauge
from repro.qcd.halfspinor import (
    half_fermion,
    projection_matrices,
    spin_project,
    spin_reconstruct,
)
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import LatticeField, latt_fermion


class TestProjectionMatrices:
    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_reconstruct_times_project_is_projector(self, mu, sign):
        t, r = projection_matrices(mu, sign)
        assert np.array_equal(r @ t, projector(mu, sign))

    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_entries_are_exact_units(self, mu, sign):
        """Every entry folds in the code generator: a sign or a
        component swap, never a multiply."""
        for m in projection_matrices(mu, sign):
            assert set(m.ravel().tolist()) <= {0, 1, -1, 1j, -1j}

    def test_shapes(self):
        t, r = projection_matrices(0, +1)
        assert t.shape == (2, 4) and r.shape == (4, 2)

    def test_built_once_and_read_only(self):
        t, r = projection_matrices(2, -1)
        assert projection_matrices(2, -1)[1] is r
        with pytest.raises(ValueError):
            t[0, 0] = 2


class TestSpinProjectOps:
    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_project_reconstruct_equals_projector(self, ctx, lat4, rng,
                                                  mu, sign):
        psi = latt_fermion(lat4)
        psi.gaussian(rng)
        h = LatticeField(lat4, half_fermion())
        h.assign(spin_project(psi, mu, sign))
        out = latt_fermion(lat4)
        out.assign(spin_reconstruct(h, mu, sign))
        ref = np.einsum("st,ntc->nsc", projector(mu, sign),
                        psi.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-12, atol=1e-13)

    def test_half_spinor_is_half_the_data(self):
        from repro.qdp.typesys import fermion

        assert half_fermion().bytes_per_site * 2 == fermion().bytes_per_site

    def test_project_needs_full_spinor(self, ctx, lat4):
        h = LatticeField(lat4, half_fermion())
        with pytest.raises(ExprTypeError):
            spin_project(h, 0, +1)
        psi = latt_fermion(lat4)
        with pytest.raises(ExprTypeError):
            spin_reconstruct(psi, 0, +1)

    def test_one_generator_per_matrix(self, ctx, lat4):
        psi = latt_fermion(lat4)
        a, b = spin_project(psi, 1, -1), spin_project(psi, 1, -1)
        assert a.gen is b.gen
        assert spin_project(psi, 1, +1).gen is not a.gen


def _dslash_reference(lat, u, psi, sign, coeffs):
    """The hopping term in its textbook (pre-projection) form, in
    complex128: ``sum_mu c_mu [(1 - sign g_mu) U_mu psi(x+mu)
    + (1 + sign g_mu) (U_mu^+ psi)(x-mu)]``."""
    un = [f.to_numpy().astype(np.complex128) for f in u]
    pn = psi.to_numpy().astype(np.complex128)
    out = np.zeros_like(pn)
    for mu in range(lat.nd):
        fwd = np.einsum("st,nab,ntb->nsa", IDENTITY - sign * GAMMA[mu],
                        un[mu], pn[lat.shift_map(mu, +1)])
        bwd = np.einsum("st,nba,ntb->nsa", IDENTITY + sign * GAMMA[mu],
                        un[mu].conj(), pn)[lat.shift_map(mu, -1)]
        out += coeffs[mu] * (fwd + bwd)
    return out


class TestSpinProjectedDslash:
    """``dslash_expr`` projects before the link multiply (Chroma's
    ``spinReconstructDir(u * shift(spinProjectDir(psi)))``), which
    reassociates ``P (U psi)`` into ``R (U (T psi))``: the result is
    no longer bitwise the textbook form, but within a few ulp of it."""

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("coeffs", [None, (1.0, 0.75, 1.0, 2.5)])
    def test_matches_the_unprojected_form(self, ctx, lat4, precision,
                                          sign, coeffs):
        rng = np.random.default_rng(21)
        u = weak_gauge(lat4, rng, eps=0.3, precision=precision)
        psi = latt_fermion(lat4, precision)
        psi.gaussian(rng)
        dest = latt_fermion(lat4, precision)
        WilsonDslash(u, coeffs=coeffs, precision=precision)(dest, psi,
                                                              sign=sign)
        ref = _dslash_reference(lat4, u, psi, sign, coeffs or (1.0,) * 4)
        eps = np.finfo(np.float64 if precision == "f64" else np.float32).eps
        err = np.abs(dest.to_numpy() - ref).max()
        assert err <= 4 * eps * np.abs(ref).max()

    def test_a_lone_dslash_materializes_half_fermions(self, lat4,
                                                      monkeypatch):
        """The backward hops shift ``adj(U) * (T psi)``: each
        temporary is 12 words a site, not the 24 of ``adj(U) * psi``."""
        specs = []
        new_temp = evaluator._new_temp

        def spy(lattice, spec, ctx):
            specs.append(spec)
            return new_temp(lattice, spec, ctx)

        monkeypatch.setattr(evaluator, "_new_temp", spy)
        ctx = Context(fusion=False, autotune=False)
        rng = np.random.default_rng(3)
        u = weak_gauge(lat4, rng, eps=0.3, context=ctx)
        psi = latt_fermion(lat4, context=ctx)
        psi.gaussian(rng)
        WilsonDslash(u)(latt_fermion(lat4, context=ctx), psi)
        ctx.flush()
        assert len(specs) == lat4.nd
        for spec in specs:
            assert spec.spin == (2,) and spec.bytes_per_site == 96

    def test_generated_cost_of_a_lone_dslash(self, lat4):
        """Four backward-hop kernels (one per direction: the projector
        constants fold differently per ``mu``) and the main kernel;
        the standard count of a spin-projected Dslash is 1320."""
        ctx = Context(fusion=False, autotune=False)
        rng = np.random.default_rng(3)
        u = weak_gauge(lat4, rng, eps=0.3, context=ctx)
        psi = latt_fermion(lat4, context=ctx)
        psi.gaussian(rng)
        WilsonDslash(u)(latt_fermion(lat4, context=ctx), psi)
        ctx.flush()
        flops = sorted(e.module.info.flops_per_site
                       for e in ctx.module_cache.values())
        assert len(flops) == 5
        assert sum(flops) <= 1500


def _run(lat, fusion: bool, backend: str, monkeypatch):
    """D psi and M^+M psi on a fresh context: the raw result arrays."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    ctx = Context(fusion=fusion, autotune=False)
    rng = np.random.default_rng(17)
    u = weak_gauge(lat, rng, eps=0.3, context=ctx)
    psi = latt_fermion(lat, context=ctx)
    psi.gaussian(rng)
    d_psi = latt_fermion(lat, context=ctx)
    d_psi.assign(dslash_expr(u, psi))
    mdagm = latt_fermion(lat, context=ctx)
    WilsonOperator(u, WilsonParams(kappa=0.12)).apply_mdagm(mdagm, psi)
    ctx.flush()
    assert ctx.stats.backend.mode == backend
    return d_psi.to_numpy(), mdagm.to_numpy()


class TestPipelineContracts:
    """Pipeline against pipeline stays bitwise: fusion on and off, and
    the ``sim`` and ``cpu`` dispatch names."""

    def test_fusion_and_backend_are_bitwise(self, lat4, monkeypatch):
        ref = _run(lat4, True, "sim", monkeypatch)
        for fusion, backend in ((False, "sim"), (True, "cpu"),
                                (False, "cpu")):
            got = _run(lat4, fusion, backend, monkeypatch)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b), (fusion, backend)
