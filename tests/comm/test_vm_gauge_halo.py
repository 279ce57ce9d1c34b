"""Distributed shifts of non-fermion types (gauge-field halos) and
context table management."""

import numpy as np

from repro.comm import VirtualMachine
from repro.core.context import Context
from repro.qdp.typesys import color_matrix, real_field


class TestGaugeHalo:
    def test_color_matrix_shift(self, rng):
        """18-word halos take a different gather kernel than the
        24-word fermion ones; both must be exact."""
        vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2))
        glat = vm.global_lattice
        u = vm.field(color_matrix())
        data = (rng.normal(size=(glat.nsites, 3, 3))
                + 1j * rng.normal(size=(glat.nsites, 3, 3)))
        u.from_global(data)
        dst = vm.field(color_matrix())
        vm.shift_into(dst, u, 3, -1)
        t = glat.shift_map(3, -1)
        assert np.array_equal(dst.to_global(), data[t])

    def test_real_field_shift(self, rng):
        vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2))
        glat = vm.global_lattice
        r = vm.field(real_field())
        data = rng.normal(size=(glat.nsites,))
        r.from_global(data)
        dst = vm.field(real_field())
        vm.shift_into(dst, r, 3, +1)
        assert np.array_equal(dst.to_global(),
                              data[glat.shift_map(3, +1)])

    def test_buffers_reused_across_exchanges(self, rng):
        vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2))
        u = vm.field(color_matrix())
        u.gaussian(rng)
        dst = vm.field(color_matrix())
        vm.shift_into(dst, u, 3, +1)
        n_allocs = sum(c.device.pool.stats.n_allocs
                       for c in vm.contexts)
        vm.shift_into(dst, u, 3, +1)
        n_allocs2 = sum(c.device.pool.stats.n_allocs
                        for c in vm.contexts)
        assert n_allocs2 == n_allocs   # persistent send/recv buffers


class TestContextTables:
    def test_upload_table_cached(self):
        ctx = Context()
        t = np.arange(64, dtype=np.int32)
        a1 = ctx.upload_table("key1", t)
        a2 = ctx.upload_table("key1", t)
        assert a1 == a2
        a3 = ctx.upload_table("key2", t)
        assert a3 != a1

    def test_table_contents_on_device(self):
        ctx = Context()
        t = np.arange(100, dtype=np.int32) * 3
        addr = ctx.upload_table("k", t)
        got = ctx.device.pool.read(addr, 400, np.int32)
        assert np.array_equal(got, t)
