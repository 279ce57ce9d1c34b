"""Tests for the virtual machine: scatter/gather, halo exchange,
distributed shift, distributed reductions."""

import numpy as np
import pytest

from repro.comm import HaloMismatchError, VirtualMachine
from repro.qdp.typesys import color_matrix, fermion


@pytest.fixture()
def vm2():
    return VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2))


@pytest.fixture()
def vm8():
    return VirtualMachine((4, 4, 4, 8), (2, 2, 1, 2))


DIMS = (4, 4, 4, 8)
GRID = (1, 1, 1, 2)


class TestGlobalScatterGather:
    def test_roundtrip(self, vm2, rng):
        f = vm2.field(fermion())
        data = (rng.normal(size=(512, 4, 3))
                + 1j * rng.normal(size=(512, 4, 3)))
        f.from_global(data)
        assert np.array_equal(f.to_global(), data)

    def test_shape_validated(self, vm2):
        f = vm2.field(fermion())
        with pytest.raises(ValueError):
            f.from_global(np.zeros((100, 4, 3), dtype=complex))

    def test_shards_partition_data(self, vm2, rng):
        f = vm2.field(fermion())
        data = (rng.normal(size=(512, 4, 3))
                + 1j * rng.normal(size=(512, 4, 3)))
        f.from_global(data)
        n_local = vm2.local_lattice.nsites
        assert all(s.nsites == n_local for s in f.shards)


class TestDistributedShift:
    @pytest.mark.parametrize("grid", [(1, 1, 1, 2), (2, 1, 1, 2)])
    @pytest.mark.parametrize("mu,sign", [(3, +1), (3, -1), (0, +1),
                                         (1, -1)])
    def test_matches_global_shift(self, grid, mu, sign, rng):
        vm = VirtualMachine((4, 4, 4, 8), grid)
        glat = vm.global_lattice
        src = vm.field(fermion())
        data = (rng.normal(size=(glat.nsites, 4, 3))
                + 1j * rng.normal(size=(glat.nsites, 4, 3)))
        src.from_global(data)
        dst = vm.field(fermion())
        vm.shift_into(dst, src, mu, sign)
        t = glat.shift_map(mu, sign)
        assert np.array_equal(dst.to_global(), data[t])

    def test_self_wrap_direction(self, vm2, rng):
        """A direction with grid extent 1 wraps through the exchange
        machinery onto the same rank — must still be exact."""
        glat = vm2.global_lattice
        src = vm2.field(fermion())
        data = (rng.normal(size=(glat.nsites, 4, 3))
                + 1j * rng.normal(size=(glat.nsites, 4, 3)))
        src.from_global(data)
        dst = vm2.field(fermion())
        vm2.shift_into(dst, src, 0, +1)   # grid dim 0 has extent 1
        assert np.array_equal(dst.to_global(), data[glat.shift_map(0, +1)])

    def test_timeline_accumulates(self, vm2, rng):
        src = vm2.field(fermion())
        src.gaussian(rng)
        dst = vm2.field(fermion())
        vm2.shift_into(dst, src, 3, +1)
        by_cat = vm2.timeline.cat_busy()
        assert by_cat.get("gather", 0) > 0
        assert by_cat.get("scatter", 0) > 0
        assert by_cat.get("comm", 0) > 0
        assert by_cat.get("kernel", 0) > 0
        # gather and scatter run on the compute lane, the message on
        # the comm lane
        lanes = vm2.timeline.lane_busy()
        assert lanes["comm"] == pytest.approx(by_cat["comm"])

    def test_scatter_ordered_after_message(self, vm2, rng):
        """The scatter span must start no earlier than the halo
        message it consumes finishes (the event dependency)."""
        src = vm2.field(fermion())
        src.gaussian(rng)
        dst = vm2.field(fermion())
        ex = vm2.exchange(src, 3, +1)
        vm2.fill_shift_interior(dst, src, 3, +1)
        vm2.scatter_halo(dst, ex)
        spans = {s.name: s for s in vm2.timeline.spans}
        halo = next(s for n, s in spans.items() if n.startswith("halo:"))
        scat = next(s for n, s in spans.items() if n.startswith("scatter:"))
        assert scat.t0 >= halo.t1
        assert halo.sid in scat.deps


class TestLocalEvaluation:
    def test_assign_local(self, vm2, rng):
        glat = vm2.global_lattice
        u = vm2.field(color_matrix())
        psi = vm2.field(fermion())
        udata = (rng.normal(size=(glat.nsites, 3, 3))
                 + 1j * rng.normal(size=(glat.nsites, 3, 3)))
        pdata = (rng.normal(size=(glat.nsites, 4, 3))
                 + 1j * rng.normal(size=(glat.nsites, 4, 3)))
        u.from_global(udata)
        psi.from_global(pdata)
        out = vm2.field(fermion())
        vm2.assign_local(out, lambda r: u.shards[r] * psi.shards[r])
        ref = np.einsum("nab,nsb->nsa", udata, pdata)
        assert np.allclose(out.to_global(), ref, rtol=1e-12)


class TestDistributedReductions:
    def test_norm2_matches_single_rank(self, vm2, rng):
        glat = vm2.global_lattice
        f = vm2.field(fermion())
        data = (rng.normal(size=(glat.nsites, 4, 3))
                + 1j * rng.normal(size=(glat.nsites, 4, 3)))
        f.from_global(data)
        assert vm2.norm2(f) == pytest.approx(
            float(np.sum(np.abs(data) ** 2)), rel=1e-12)

    def test_inner_product(self, vm8, rng):
        glat = vm8.global_lattice
        a = vm8.field(fermion())
        b = vm8.field(fermion())
        da = (rng.normal(size=(glat.nsites, 4, 3))
              + 1j * rng.normal(size=(glat.nsites, 4, 3)))
        db = (rng.normal(size=(glat.nsites, 4, 3))
              + 1j * rng.normal(size=(glat.nsites, 4, 3)))
        a.from_global(da)
        b.from_global(db)
        assert vm8.innerProduct(a, b) == pytest.approx(
            complex(np.sum(da.conj() * db)), rel=1e-12)

    def test_allreduce_time_charged(self, vm8, rng):
        f = vm8.field(fermion())
        f.gaussian(rng)
        before = vm8.timeline.cat_busy().get("reduce", 0.0)
        vm8.norm2(f)
        after = vm8.timeline.cat_busy().get("reduce", 0.0)
        assert after > before
        # the allreduce is a sync point: it lives on the comm lane and
        # nothing enqueued later may start before it completes
        spans = vm8.timeline.spans
        red = next(s for s in spans if s.cat == "reduce")
        assert red.lane == "comm"
        assert vm8.runtime.compute.clock >= red.t1


class TestHaloMismatch:
    def test_foreign_field_exchange_rejected(self):
        vm_a = VirtualMachine(DIMS, GRID)
        vm_b = VirtualMachine(DIMS, GRID)
        f = vm_b.field(fermion(), "psi")
        with pytest.raises(HaloMismatchError) as exc:
            vm_a.exchange(f, 3, +1)
        assert exc.value.mu == 3
        assert exc.value.diagnostic.pass_name == "halo-exchange"

    def test_foreign_field_scatter_rejected(self):
        vm_a = VirtualMachine(DIMS, GRID)
        vm_b = VirtualMachine(DIMS, GRID)
        g = vm_a.global_lattice
        f = vm_a.field(fermion(), "psi")
        f.from_global(np.zeros((g.nsites, 4, 3), dtype=complex))
        ex = vm_a.exchange(f, 3, +1)
        other = vm_b.field(fermion(), "chi")
        with pytest.raises(HaloMismatchError):
            vm_a.scatter_halo(other, ex)

    def test_exchange_from_another_grid_rejected(self):
        """An ExchangeResult from a machine with a different processor
        grid must be refused with a typed, diagnosable error — its
        buffers describe ranks this machine does not have."""
        vm_a = VirtualMachine(DIMS, GRID)
        vm_b = VirtualMachine(DIMS, (1, 1, 2, 2))
        g = vm_b.global_lattice
        rng = np.random.default_rng(5)
        f = vm_b.field(fermion(), "psi")
        f.from_global(rng.normal(size=(g.nsites, 4, 3))
                      + 1j * rng.normal(size=(g.nsites, 4, 3)))
        ex = vm_b.exchange(f, 3, +1)
        d = vm_a.field(fermion(), "chi")
        with pytest.raises(HaloMismatchError) as exc:
            vm_a.scatter_halo(d, ex)
        assert "stale exchange result" in str(exc.value)
        assert "shrink" not in str(exc.value)
        assert exc.value.diagnostic.pass_name == "halo-exchange"
