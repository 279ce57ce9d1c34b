"""Tests for the evaluator: kernel caching, memory integration,
subsets, JIT accounting."""

import numpy as np
import pytest

from repro.core.context import Context
from repro.core.evaluator import _normalize
from repro.core.expr import adj, conj, shift, trace, transpose
from repro.core.reduction import sum_sites
from repro.qcd.gamma import gamma5_const, projector, projector_const
from repro.qdp.fields import latt_color_matrix, latt_fermion
from repro.qdp.lattice import Lattice


class TestKernelCaching:
    def test_structural_reuse(self, rng):
        """Different fields, same structure: one compiled kernel."""
        ctx = Context()
        lat = Lattice((4, 4, 4, 4))
        n0 = ctx.kernel_cache.stats.n_kernels
        for _ in range(5):
            a = latt_fermion(lat, context=ctx)
            a.gaussian(rng)
            b = latt_fermion(lat, context=ctx)
            b.assign(2.0 * a)
        ctx.flush()
        assert ctx.kernel_cache.stats.n_kernels == n0 + 1
        # generated once, evaluated five times
        assert ctx.stats.kernels_generated == 1
        assert ctx.stats.expressions_evaluated == 5

    def test_volume_parametric_kernels(self, rng):
        """The same kernel text serves different lattice sizes."""
        ctx = Context()
        for dims in ((4, 4, 4, 4), (4, 4, 4, 8), (6, 6, 6, 6)):
            lat = Lattice(dims)
            a = latt_fermion(lat, context=ctx)
            a.gaussian(rng)
            b = latt_fermion(lat, context=ctx)
            b.assign(2.0 * a)
            assert np.allclose(b.to_numpy(), 2.0 * a.to_numpy())
        assert ctx.kernel_cache.stats.n_kernels == 1

    def test_one_kernel_for_all_shift_directions(self, rng):
        ctx = Context()
        lat = Lattice((4, 4, 4, 4))
        a = latt_fermion(lat, context=ctx)
        a.gaussian(rng)
        b = latt_fermion(lat, context=ctx)
        n0 = ctx.kernel_cache.stats.n_kernels
        for mu in range(4):
            for sign in (+1, -1):
                b.assign(shift(a.ref(), sign, mu))
                t = lat.shift_map(mu, sign)
                assert np.array_equal(b.to_numpy(), a.to_numpy()[t])
        assert ctx.kernel_cache.stats.n_kernels == n0 + 1

    def test_subset_gets_own_kernel(self, rng):
        ctx = Context()
        lat = Lattice((4, 4, 4, 4))
        a = latt_fermion(lat, context=ctx)
        a.gaussian(rng)
        b = latt_fermion(lat, context=ctx)
        b.assign(2.0 * a)
        ctx.flush()
        n_full = ctx.kernel_cache.stats.n_kernels
        b.assign(2.0 * a, subset=lat.even)
        ctx.flush()
        assert ctx.kernel_cache.stats.n_kernels == n_full + 1
        b.assign(2.0 * a, subset=lat.odd)   # reuses the subset kernel
        ctx.flush()
        assert ctx.kernel_cache.stats.n_kernels == n_full + 1

    def test_jit_time_charged_once(self, rng):
        ctx = Context()
        lat = Lattice((4, 4, 4, 4))
        a = latt_fermion(lat, context=ctx)
        a.gaussian(rng)
        b = latt_fermion(lat, context=ctx)
        b.assign(3.0 * a)
        ctx.flush()
        jit_t = ctx.device.stats.modeled_s["jit"]
        assert 0.05 <= jit_t <= 0.25     # paper's per-kernel band
        b.assign(4.0 * a)
        ctx.flush()
        assert ctx.device.stats.modeled_s["jit"] == jit_t


class TestSubsetEvaluation:
    def test_even_odd_partition_complete(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        a.gaussian(rng)
        b = latt_fermion(lat4)
        b.assign(2.0 * a, subset=lat4.even)
        b.assign(3.0 * a, subset=lat4.odd)
        arr = b.to_numpy()
        an = a.to_numpy()
        assert np.allclose(arr[lat4.even.sites], 2 * an[lat4.even.sites])
        assert np.allclose(arr[lat4.odd.sites], 3 * an[lat4.odd.sites])

    def test_subset_shift_reads_other_parity(self, ctx, lat4, rng):
        """The D_eo pattern: evaluate on even, sources odd."""
        a = latt_fermion(lat4)
        a.gaussian(rng)
        b = latt_fermion(lat4)
        b.assign(shift(a.ref(), +1, 3), subset=lat4.even)
        t = lat4.shift_map(3, +1)
        arr = b.to_numpy()
        an = a.to_numpy()
        e = lat4.even.sites
        assert np.array_equal(arr[e], an[t[e]])
        assert np.all(arr[lat4.odd.sites] == 0)

    def test_subset_preserves_other_sites(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        a.gaussian(rng)
        b = latt_fermion(lat4)
        b.gaussian(rng)
        before_odd = b.to_numpy()[lat4.odd.sites].copy()
        b.assign(2.0 * a, subset=lat4.even)
        assert np.array_equal(b.to_numpy()[lat4.odd.sites], before_odd)


class TestStatsAndAccounting:
    def test_expression_counter(self, rng):
        ctx = Context()
        lat = Lattice((4, 4, 4, 4))
        a = latt_fermion(lat, context=ctx)
        a.gaussian(rng)
        b = latt_fermion(lat, context=ctx)
        n0 = ctx.stats.expressions_evaluated
        b.assign(a + a)
        b.assign(a + a)
        assert ctx.stats.expressions_evaluated == n0 + 2

    def test_cost_returned(self, ctx, lat4, rng):
        a = latt_fermion(lat4)
        a.gaussian(rng)
        b = latt_fermion(lat4)
        cost = b.assign(2.0 * a)
        assert cost.time_s > 0
        assert cost.bytes_moved == (24 + 24) * 8 * lat4.nsites

    def test_autotuner_drives_block_size(self, rng):
        ctx = Context(autotune=True)
        lat = Lattice((8, 8, 8, 8))
        a = latt_fermion(lat, context=ctx)
        a.gaussian(rng)
        b = latt_fermion(lat, context=ctx)
        for _ in range(10):
            b.assign(2.0 * a)
        ctx.flush()
        states = list(ctx.autotuner.states.values())
        assert states and states[0].launches >= 10


def _dag(m):
    return m.conj().swapaxes(-1, -2)


#: ``dest = expr`` shapes that read the destination, with their NumPy
#: reference and whether the evaluator copies the destination first.
#: A kernel stores component (i, j) before it generates (j, i): a read
#: under ``adj``/``transpose`` would otherwise see words the statement
#: has already overwritten.
DEST_READS = {
    "adj(u)": (lambda u, v: adj(u), lambda un, vn: _dag(un), True),
    "transpose(u)": (lambda u, v: transpose(u),
                     lambda un, vn: un.swapaxes(1, 2), True),
    "adj(u)*v": (lambda u, v: adj(u) * v, lambda un, vn: _dag(un) @ vn,
                 True),
    "u*adj(u)": (lambda u, v: u * adj(u), lambda un, vn: un @ _dag(un),
                 True),
    "v*u": (lambda u, v: v * u, lambda un, vn: vn @ un, False),
    "conj(u)": (lambda u, v: conj(u), lambda un, vn: un.conj(), False),
    "gamma5*psi": (lambda u, v: gamma5_const() * u,
                   lambda un, vn: np.einsum("st,ntc->nsc",
                                            gamma5_const().matrix, un),
                   False),
    "projector*psi": (lambda u, v: projector_const(2, +1) * u,
                      lambda un, vn: np.einsum("st,ntc->nsc",
                                               projector(2, +1), un), False),
}


class TestDestinationReadOrder:
    @pytest.mark.parametrize("backend", ["sim", "cpu"])
    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("shape", list(DEST_READS))
    def test_matches_numpy(self, shape, fusion, backend, monkeypatch):
        expr, ref, copies = DEST_READS[shape]
        monkeypatch.setenv("REPRO_BACKEND", backend)
        ctx = Context(fusion=fusion, autotune=False)
        lat = Lattice((2, 2, 2, 2))
        new = latt_fermion if "psi" in shape else latt_color_matrix
        u, v = new(lat, context=ctx), new(lat, context=ctx)
        rng = np.random.default_rng(11)
        u.gaussian(rng)
        v.gaussian(rng)
        un, vn = u.to_numpy(), v.to_numpy()
        u.assign(expr(u, v))
        ctx.flush()
        np.testing.assert_allclose(u.to_numpy(), ref(un, vn), rtol=1e-13,
                                   atol=1e-14)
        # one copy exactly when the destination is read under a flip
        assert ctx.stats.expressions_evaluated == 1 + copies

    def test_a_reduction_makes_no_copy(self, rng):
        """A reduction stores nothing: its first field under ``adj`` is
        read in place."""
        ctx = Context(autotune=False)
        lat = Lattice((2, 2, 2, 2))
        u, v = (latt_color_matrix(lat, context=ctx) for _ in range(2))
        u.gaussian(rng)
        v.gaussian(rng)
        got = sum_sites(trace(adj(u) * v))
        want = np.einsum("nba,nba->", u.to_numpy().conj(), v.to_numpy())
        assert got == pytest.approx(want, rel=1e-12)
        assert ctx.stats.expressions_evaluated == 0


class TestNormalize:
    def _fields(self):
        ctx = Context()
        lat = Lattice((4, 4, 4, 4))
        u = latt_color_matrix(lat, context=ctx)
        psi, chi, phi = (latt_fermion(lat, context=ctx) for _ in range(3))
        return ctx, u, psi, chi, phi

    def test_untouched_shifts_return_the_same_object(self, monkeypatch):
        ctx, u, psi, chi, phi = self._fields()
        expr = u * shift(phi.ref(), +1, 0) + adj(u) * shift(chi.ref(), -1, 3)
        queued = []
        monkeypatch.setattr(ctx.fusion, "enqueue",
                            lambda dest, e, subset, temps, *rest:
                            queued.append((e, temps)))
        psi.assign(expr)
        assert queued[0][0] is expr
        assert queued[0][1] == []

    def test_read_sets_of_the_normalized_tree(self):
        ctx, u, psi, chi, phi = self._fields()
        expr = u * shift(phi.ref(), +1, 0) + psi.ref()
        out = _normalize(expr, psi, ctx, [])
        assert out is expr
        assert (out.reads, out.shift_reads) == ({u.uid, psi.uid}, {phi.uid})
        temps = []
        out = _normalize(shift(psi.ref(), +1, 0) + chi.ref(), psi, ctx,
                         temps)
        (temp,) = temps
        assert out.children()[0].child.field is temp
        assert (out.reads, out.shift_reads) == ({chi.uid}, {temp.uid})
