"""Tests for the deferred-evaluation queue and kernel-fusion engine.

Covers the hazard model (forwarding, shift barriers, WAW, subsets),
the flush barriers (host access, reductions, explicit flush, cost
proxies), bitwise on/off transparency, the modeled-traffic savings,
and the absint-verifier integration for fused kernels.
"""

import numpy as np
import pytest

from repro.core.context import Context
from repro.core.expr import shift
from repro.core.fusion import MAX_GROUP_STATEMENTS, PendingCost
from repro.core.reduction import innerProduct, norm2
from repro.qdp.fields import latt_fermion, latt_real
from repro.qdp.lattice import Lattice


def _launches(ctx):
    """Generated-kernel launches (excluding partial-buffer folds)."""
    st = ctx.device.stats
    return st.kernel_launches - st.fold_launches


@pytest.fixture
def fctx():
    return Context(fusion=True)


@pytest.fixture
def lat():
    return Lattice((4, 4, 4, 4))


def _fermions(lat, ctx, n, rng=None):
    out = []
    for i in range(n):
        f = latt_fermion(lat, context=ctx)
        if rng is not None:
            f.gaussian(rng)
        out.append(f)
    return out


class TestScheduling:
    def test_axpy_chain_fuses_to_one_kernel(self, fctx, lat, rng):
        x, y, a, b = _fermions(lat, fctx, 4, rng)
        n0 = _launches(fctx)
        a.assign(2.0 * x + y)
        b.assign(x - 3.0 * y)
        fctx.flush()
        assert _launches(fctx) == n0 + 1
        assert fctx.stats.fusion_groups == 1
        assert fctx.stats.fused_statements == 2
        assert np.allclose(a.to_numpy(), 2 * x.to_numpy() + y.to_numpy())
        assert np.allclose(b.to_numpy(), x.to_numpy() - 3 * y.to_numpy())

    def test_dest_read_later_joins_and_forwards(self, fctx, lat, rng):
        """b reads a's fresh value: fused, forwarded through registers."""
        x, y, a, b = _fermions(lat, fctx, 4, rng)
        a.assign(2.0 * x)
        cost = b.assign(a.ref() + y)
        fctx.flush()
        assert fctx.stats.fusion_groups == 1
        assert np.allclose(b.to_numpy(), 2 * x.to_numpy() + y.to_numpy())
        # traffic: the fused kernel loads x,y and stores a,b — a's
        # store/re-load round trip collapses to one store
        words = 24 * 8 * lat.nsites
        assert cost.bytes_moved == 4 * words

    def test_shift_after_write_is_a_barrier(self, fctx, lat, rng):
        """b = shift(a) after writing a: different thread reads the
        write — must be two launches (the PR-1 shift-alias race)."""
        x, a, b = _fermions(lat, fctx, 3, rng)
        n0 = _launches(fctx)
        a.assign(2.0 * x)
        b.assign(shift(a.ref(), +1, 0))
        fctx.flush()
        assert _launches(fctx) == n0 + 2
        assert fctx.stats.fusion_groups == 0   # two singleton groups
        t = lat.shift_map(0, +1)
        assert np.allclose(b.to_numpy(), 2 * x.to_numpy()[t])

    def test_write_after_write_stays_separate(self, fctx, lat, rng):
        (x, a) = _fermions(lat, fctx, 2, rng)
        n0 = _launches(fctx)
        a.assign(2.0 * x)
        a.assign(3.0 * x)
        fctx.flush()
        assert _launches(fctx) == n0 + 2
        assert np.allclose(a.to_numpy(), 3 * x.to_numpy())

    def test_write_after_shift_read_stays_separate(self, fctx, lat, rng):
        """a = shift(x); x = 2x — rewriting x must not overtake the
        shifted read of its old value."""
        x, a = _fermions(lat, fctx, 2, rng)
        x0 = x.to_numpy().copy()
        a.assign(shift(x.ref(), +1, 0))
        x.assign(2.0 * x.ref())
        fctx.flush()
        t = lat.shift_map(0, +1)
        assert np.allclose(a.to_numpy(), x0[t])
        assert np.allclose(x.to_numpy(), 2 * x0)

    def test_subset_and_full_do_not_fuse(self, fctx, lat, rng):
        (x,) = _fermions(lat, fctx, 1, rng)
        a, b = _fermions(lat, fctx, 2)
        n0 = _launches(fctx)
        a.assign(2.0 * x)
        b.assign(3.0 * x, subset=lat.even)
        fctx.flush()
        assert _launches(fctx) == n0 + 2
        arr = b.to_numpy()
        assert np.allclose(arr[lat.even.sites],
                           3 * x.to_numpy()[lat.even.sites])
        assert np.all(arr[lat.odd.sites] == 0)

    def test_same_subset_fuses(self, fctx, lat, rng):
        x, a, b = _fermions(lat, fctx, 3, rng)
        n0 = _launches(fctx)
        a.assign(2.0 * x, subset=lat.even)
        b.assign(3.0 * x, subset=lat.even)
        fctx.flush()
        assert _launches(fctx) == n0 + 1
        assert fctx.stats.fusion_groups == 1

    def test_mixed_precision_does_not_fuse(self, fctx, lat, rng):
        x64 = latt_fermion(lat, context=fctx)
        x64.gaussian(rng)
        x32 = latt_fermion(lat, "f32", context=fctx)
        x32.gaussian(rng)
        a = latt_fermion(lat, context=fctx)
        b = latt_fermion(lat, "f32", context=fctx)
        n0 = _launches(fctx)
        a.assign(2.0 * x64)
        b.assign(2.0 * x32)
        fctx.flush()
        assert _launches(fctx) == n0 + 2

    def test_group_size_cap(self, fctx, lat, rng):
        src = _fermions(lat, fctx, MAX_GROUP_STATEMENTS + 2, rng)
        dsts = _fermions(lat, fctx, MAX_GROUP_STATEMENTS + 2)
        n0 = _launches(fctx)
        for d, s in zip(dsts, src):
            d.assign(2.0 * s)
        fctx.flush()
        assert _launches(fctx) == n0 + 2   # one full group + overflow


class TestBarriers:
    def test_host_read_flushes(self, fctx, lat, rng):
        x, a = _fermions(lat, fctx, 2, rng)
        a.assign(2.0 * x)
        # no explicit flush: to_numpy() must observe the assignment
        assert np.allclose(a.to_numpy(), 2 * x.to_numpy())

    def test_host_write_flushes_pending_reader(self, fctx, lat, rng):
        """x is overwritten from the host while a = 2x is pending: the
        pending statement must consume x's *old* value."""
        x, a = _fermions(lat, fctx, 2, rng)
        x0 = x.to_numpy().copy()
        a.assign(2.0 * x)
        x.gaussian(rng)            # host write -> flush barrier
        assert np.allclose(a.to_numpy(), 2 * x0)

    def test_pending_cost_attribute_flushes(self, fctx, lat, rng):
        x, a = _fermions(lat, fctx, 2, rng)
        cost = a.assign(2.0 * x)
        assert isinstance(cost, PendingCost)
        assert cost.time_s > 0                 # resolves via a flush
        assert not fctx.fusion.groups

    def test_members_share_the_group_cost(self, fctx, lat, rng):
        x, a, b = _fermions(lat, fctx, 3, rng)
        c1 = a.assign(2.0 * x)
        c2 = b.assign(3.0 * x)
        assert c1.bytes_moved == c2.bytes_moved
        assert c1.time_s == c2.time_s

    def test_reduction_flushes_pending_writes(self, fctx, lat, rng):
        x, a = _fermions(lat, fctx, 2, rng)
        a.assign(2.0 * x)
        assert norm2(a) == pytest.approx(4 * norm2(x))

    def test_explicit_context_flush(self, fctx, lat, rng):
        x, a = _fermions(lat, fctx, 2, rng)
        a.assign(2.0 * x)
        assert fctx.fusion.groups
        fctx.flush()
        assert not fctx.fusion.groups


class TestReductionAbsorption:
    def test_reduction_absorbed_into_tail_group(self, fctx, lat, rng):
        """r = <a|a> right after a = 2x: the group's kernel writes the
        partials too — no separate partials launch."""
        x, a = _fermions(lat, fctx, 2, rng)
        n0 = _launches(fctx)
        a.assign(2.0 * x)
        r = norm2(a)
        assert _launches(fctx) == n0 + 1
        assert r == pytest.approx(4 * norm2(x))

    def test_inner_product_absorbed(self, fctx, lat, rng):
        x, y, a = _fermions(lat, fctx, 3, rng)
        n0 = _launches(fctx)
        a.assign(x.ref() + y)
        r = innerProduct(x, a)
        assert _launches(fctx) == n0 + 1
        eager = Context(fusion=False)
        xn, yn = x.to_numpy(), y.to_numpy()
        want = complex(np.vdot(xn, xn + yn))
        assert r == pytest.approx(want)

    def test_shifted_reduction_not_absorbed(self, fctx, lat, rng):
        """norm2(shift(a)) after writing a: the partials pass reads a
        through a shift — separate launch required."""
        x, a = _fermions(lat, fctx, 2, rng)
        n0 = _launches(fctx)
        a.assign(2.0 * x)
        r = norm2(shift(a.ref(), +1, 0))
        assert _launches(fctx) == n0 + 2
        assert r == pytest.approx(4 * norm2(x))


class TestScratchBeforePaging:
    """A scratch grow under memory pressure spills; the launcher must
    let it do so *before* the group's fields are paged in.  At
    ``05a3afc`` the fused path grew scratch afterwards with nothing
    pinned: the launch ran with the address of a field the grow had
    just evicted, and the partials inside that field's freed slot."""

    FIELD = 49152      # one 4^4 f64 fermion

    def _chain(self, lat, rng, pool_capacity):
        ctx = Context(pool_capacity=pool_capacity, autotune=False,
                      fusion=True)
        a, b, c = _fermions(lat, ctx, 3, rng)
        d, e = _fermions(lat, ctx, 2)
        return ctx, (a, b, c, d, e)

    def test_absorbed_reduction_binds_no_freed_address(self, lat, rng,
                                                       launch_spy):
        # pool: base page + five fields + two partials columns + 1 KiB.
        # Two resident bystanders and a one-column scratch behind them
        # make the two-column grow need a spill whichever way round.
        ctx, (a, b, c, d, e) = self._chain(
            lat, rng, 256 + 5 * self.FIELD + 4096 + 1024)
        z, z2 = _fermions(lat, ctx, 2, rng)
        z2.assign(2.0 * z)
        ctx.flush()
        norm2(z2)
        d.assign(a + b)
        e.assign(d + c)
        calls = launch_spy(ctx)
        got = innerProduct(e, e)
        assert [name[:4] for name, _, _ in calls] == ["fus_"]
        for name, params, live in calls:
            fields = {p: v for p, v in params.items() if p.startswith("p_f")}
            assert len(fields) == 5 and set(fields.values()) <= set(live)
            for p, out in params.items():
                if p.startswith("p_out"):
                    assert not any(
                        addr < out + params["p_n"] * 8 and out < addr + nb
                        for addr, nb in live.items()), (name, p)
        want = a.to_numpy() + b.to_numpy() + c.to_numpy()
        assert got.real == pytest.approx(float(np.sum(np.abs(want) ** 2)))

    def test_a_working_set_that_cannot_fit_is_a_typed_error(self, lat, rng):
        """The issue's original shape: five fields and 2 KiB of
        partials in a pool of five fields and 1 KiB.  It used to
        "work" by reading a freed field; now it says so."""
        from repro.memory.cache import SpillImpossible

        ctx, (a, b, c, d, e) = self._chain(lat, rng, 5 * self.FIELD + 1024)
        d.assign(a + b)
        e.assign(d + c)
        with pytest.raises(SpillImpossible):
            norm2(e)


class TestGroupOfOne:
    """A statement is a group of one and a standalone reduction a
    group with only a tail: with nothing to fuse, ``fusion=True`` and
    ``fusion=False`` run the same kernels."""

    @staticmethod
    def _run(fusion, program):
        rng = np.random.default_rng(7)
        lat = Lattice((4, 4, 4, 4))
        ctx = Context(fusion=fusion, autotune=False)
        x, y = _fermions(lat, ctx, 2, rng)
        a = latt_fermion(lat, context=ctx)
        out = program(ctx, lat, x, y, a)
        ctx.flush()
        # slots, not uids: kernel text and names are structural
        mods = [(e.module.name, e.module.render())
                for e in ctx.module_cache.values()]
        return ctx, mods, a.to_numpy().copy(), out

    @pytest.mark.parametrize("program", [
        lambda ctx, lat, x, y, a: a.assign(2.0 * x + y),
        lambda ctx, lat, x, y, a: a.assign(x + shift(y.ref(), +1, 0),
                                           subset=lat.even),
        lambda ctx, lat, x, y, a: norm2(x),
        lambda ctx, lat, x, y, a: innerProduct(x, y, subset=lat.even),
    ], ids=["assign", "shift_subset", "norm2", "inner_even"])
    def test_on_and_off_build_the_same_kernel(self, program):
        on, mods_on, a_on, out_on = self._run(True, program)
        off, mods_off, a_off, out_off = self._run(False, program)
        assert len(mods_on) == 1 and mods_on == mods_off
        assert np.array_equal(a_on, a_off)
        if not isinstance(out_on, PendingCost):
            assert out_on == out_off          # the reduction's scalar
        for ctx in (on, off):
            assert ctx.stats.fusion_groups == 0
            assert ctx.stats.fused_statements == 0

    def test_fusion_off_returns_a_plain_kernel_cost(self, lat, rng):
        from repro.device.memmodel import KernelCost

        ctx = Context(fusion=False)
        x, a = _fermions(lat, ctx, 2, rng)
        cost = a.assign(2.0 * x)
        assert isinstance(cost, KernelCost) and cost.time_s > 0.0
        assert not ctx.fusion.groups


class TestBitwiseTransparency:
    def _chain(self, fusion, seed=11):
        ctx = Context(fusion=fusion)
        lat = Lattice((4, 4, 4, 4))
        rng = np.random.default_rng(seed)
        x = latt_fermion(lat, context=ctx)
        x.gaussian(rng)
        p = latt_fermion(lat, context=ctx)
        p.gaussian(rng)
        r = latt_fermion(lat, context=ctx)
        ap = latt_fermion(lat, context=ctx)
        # a CG-iteration-shaped statement chain
        ap.assign(0.7 * p + 0.1 * x)
        pap = innerProduct(p, ap).real
        alpha = 1.0 / pap
        x.assign(x.ref() + alpha * p)
        r.assign(x.ref() - alpha * ap)
        rr = norm2(r)
        p.assign(r.ref() + 0.5 * p.ref())
        return (x.to_numpy(), r.to_numpy(), p.to_numpy(), pap, rr)

    def test_cg_chain_bitwise_identical(self):
        on = self._chain(True)
        off = self._chain(False)
        for a, b in zip(on[:3], off[:3]):
            assert np.array_equal(a, b)      # bitwise, not approx
        assert on[3] == off[3]
        assert on[4] == off[4]

    def test_subset_chain_bitwise_identical(self):
        def run(fusion):
            ctx = Context(fusion=fusion)
            lat = Lattice((4, 4, 4, 4))
            rng = np.random.default_rng(3)
            x = latt_fermion(lat, context=ctx)
            x.gaussian(rng)
            a = latt_fermion(lat, context=ctx)
            b = latt_fermion(lat, context=ctx)
            a.assign(2.0 * x, subset=lat.even)
            b.assign(a.ref() + x, subset=lat.even)
            a.assign(3.0 * x, subset=lat.odd)
            return a.to_numpy(), b.to_numpy()

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want)

    def test_self_aliasing_statement_in_group(self):
        """p = r + beta*p both reads and writes p; within the
        statement, reads must see the old p even when fused."""
        def run(fusion):
            ctx = Context(fusion=fusion)
            lat = Lattice((4, 4, 4, 4))
            rng = np.random.default_rng(5)
            r = latt_fermion(lat, context=ctx)
            r.gaussian(rng)
            p = latt_fermion(lat, context=ctx)
            p.gaussian(rng)
            q = latt_fermion(lat, context=ctx)
            q.assign(2.0 * r)
            p.assign(q.ref() + 0.25 * p.ref())
            return p.to_numpy()

        assert np.array_equal(run(True), run(False))


class TestTrafficModel:
    def test_cse_across_statements_saves_loads(self, fctx, lat, rng):
        """a = x+y; b = (x+y)*2 — the shared subexpression is computed
        once; b's kernel contribution is store-only."""
        x, y, a, b = _fermions(lat, fctx, 4, rng)
        a.assign(x.ref() + y)
        cost = b.assign(2.0 * (x.ref() + y.ref()))
        fctx.flush()
        words = 24 * 8 * lat.nsites
        # loads x,y once + stores a,b = 4 field transfers (unfused: 6)
        assert cost.bytes_moved == 4 * words
        assert np.allclose(b.to_numpy(), 2 * a.to_numpy())

    def test_fused_bytes_less_than_eager(self, lat):
        def run(fusion):
            ctx = Context(fusion=fusion)
            rng = np.random.default_rng(9)
            x, y, a, b = _fermions(lat, ctx, 2, rng) + _fermions(lat, ctx, 2)
            a.assign(2.0 * x + y)
            b.assign(a.ref() - y.ref())
            ctx.flush()
            return ctx.device.stats.modeled_kernel_bytes

        assert run(True) < 0.75 * run(False)


class TestIntegration:
    def test_fused_kernel_bounds_proven(self, fctx, lat, rng):
        from repro.ptx.absint import analyze_module

        x, y, a, b = _fermions(lat, fctx, 4, rng)
        a.assign(2.0 * x + y)
        b.assign(a.ref() + shift(x.ref(), +1, 2))
        fctx.flush()
        fused = [(key, entry) for key, entry in fctx.module_cache.items()
                 if key.startswith("fus:")]
        assert fused
        for _, entry in fused:
            analysis = analyze_module(entry.module, env=entry.env)
            assert analysis.bounds_proven, entry.module.name

    def test_fused_group_module_cache_hit(self, fctx, lat, rng):
        x, a, b = _fermions(lat, fctx, 3, rng)
        a.assign(2.0 * x)
        b.assign(3.0 * x)
        fctx.flush()
        misses = fctx.stats.module_cache_misses
        hits = fctx.stats.module_cache_hits
        a.assign(2.0 * x)
        b.assign(3.0 * x)
        fctx.flush()
        assert fctx.stats.module_cache_misses == misses
        assert fctx.stats.module_cache_hits == hits + 1

    def test_temporaries_released_after_flush(self, fctx, lat, rng):
        """Shift-of-expression temporaries die with the launch — they
        must not linger in the field cache as spill candidates."""
        x, a = _fermions(lat, fctx, 2, rng)
        a.assign(shift(2.0 * x.ref(), +1, 0))
        fctx.flush()
        n_temp = sum(1 for e in fctx.field_cache.entries.values()
                     if (f := e.ref()) is not None and f.name == "__temp")
        assert n_temp == 0

    def test_fusion_off_env_knob(self, lat, rng, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION", "off")
        ctx = Context()
        assert not ctx.fusion.enabled
        x = latt_fermion(lat, context=ctx)
        x.gaussian(rng)
        a = latt_fermion(lat, context=ctx)
        cost = a.assign(2.0 * x)
        # eager: a real KernelCost, nothing pending
        assert not isinstance(cost, PendingCost)
        assert not ctx.fusion.groups

    def test_real_weight_operator_chain(self, fctx, lat, rng):
        """An elementwise weighted operator (the bench_fusion shape):
        w * p with a real weight field fuses with the axpy updates."""
        w = latt_real(lat, context=fctx)
        w.uniform(rng)
        p, ap = _fermions(lat, fctx, 2)
        p.gaussian(rng)
        n0 = _launches(fctx)
        ap.assign(w.ref() * p.ref())
        pap = innerProduct(p, ap).real
        assert _launches(fctx) == n0 + 1   # absorbed
        assert pap == pytest.approx(
            float(np.sum(w.to_numpy()[:, None, None]
                         * np.abs(p.to_numpy()) ** 2)))
