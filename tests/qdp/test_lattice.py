"""Tests for lattice geometry, shift maps and subsets."""

import numpy as np
import pytest

from repro.qdp.lattice import BACKWARD, FORWARD, Lattice


class TestGeometry:
    def test_site_count(self):
        assert Lattice((4, 4, 4, 8)).nsites == 512

    def test_coords_roundtrip(self):
        lat = Lattice((4, 6, 2, 8))
        idx = lat.site_index(lat.coords)
        assert np.array_equal(idx, np.arange(lat.nsites))

    def test_dim0_fastest(self):
        lat = Lattice((4, 4, 4, 4))
        assert lat.site_index((1, 0, 0, 0)) == 1
        assert lat.site_index((0, 1, 0, 0)) == 4

    def test_periodic_coordinates(self):
        lat = Lattice((4, 4, 4, 4))
        assert lat.site_index((4, 0, 0, 0)) == 0
        assert lat.site_index((-1, 0, 0, 0)) == 3

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError):
            Lattice((4, 3, 4, 4))
        with pytest.raises(ValueError):
            Lattice((0, 4))


class TestParitySubsets:
    def test_even_odd_partition(self):
        lat = Lattice((4, 4, 4, 4))
        e, o = lat.even, lat.odd
        assert len(e) == len(o) == lat.nsites // 2
        assert set(e.sites) | set(o.sites) == set(range(lat.nsites))
        assert not set(e.sites) & set(o.sites)

    def test_parity_definition(self):
        lat = Lattice((4, 4, 4, 4))
        s = lat.site_index((1, 1, 1, 0))
        assert lat.parity[s] == 1
        s = lat.site_index((1, 1, 1, 1))
        assert lat.parity[s] == 0

    def test_full_subset_flag(self):
        lat = Lattice((4, 4, 4, 4))
        assert lat.all_sites.is_full
        assert not lat.even.is_full

    def test_subset_hash_and_eq(self):
        lat = Lattice((4, 4, 4, 4))
        assert lat.even == lat.even
        assert lat.even != lat.odd
        assert hash(lat.even) == hash(lat.checkerboard(0))


class TestShiftMaps:
    def test_forward_shift_semantics(self):
        """shift(phi, FORWARD, mu)(x) = phi(x + mu)."""
        lat = Lattice((4, 4, 4, 4))
        t = lat.shift_map(0, FORWARD)
        x = lat.site_index((1, 2, 3, 0))
        assert t[x] == lat.site_index((2, 2, 3, 0))

    def test_backward_wraps(self):
        lat = Lattice((4, 4, 4, 4))
        t = lat.shift_map(2, BACKWARD)
        x = lat.site_index((0, 0, 0, 0))
        assert t[x] == lat.site_index((0, 0, 3, 0))

    def test_shift_is_permutation(self):
        lat = Lattice((4, 6, 2, 4))
        for mu in range(4):
            for sign in (FORWARD, BACKWARD):
                t = lat.shift_map(mu, sign)
                assert sorted(t) == list(range(lat.nsites))

    def test_forward_backward_inverse(self):
        lat = Lattice((4, 4, 4, 4))
        f = lat.shift_map(1, FORWARD)
        b = lat.shift_map(1, BACKWARD)
        assert np.array_equal(f[b], np.arange(lat.nsites))

    def test_shift_flips_parity(self):
        lat = Lattice((4, 4, 4, 4))
        t = lat.shift_map(3, FORWARD)
        assert np.all(lat.parity[t] == 1 - lat.parity)

    def test_maps_cached(self):
        lat = Lattice((4, 4, 4, 4))
        assert lat.shift_map(0, FORWARD) is lat.shift_map(0, FORWARD)

    def test_site_tables_are_read_only(self):
        lat = Lattice((4, 4, 4, 4))
        with pytest.raises(ValueError):
            lat.shift_map(0, FORWARD)[0] = 1
        with pytest.raises(ValueError):
            lat.even.sites[0] = 1

    def test_comm_subsets_are_read_only(self):
        from repro.comm import DistributedWilsonDslash, VirtualMachine
        from repro.comm.vm import _interior_subset

        vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2))
        inner, face = DistributedWilsonDslash(vm, [])._partition()
        for sub in (_interior_subset(vm.local_lattice, 3, FORWARD),
                    inner, face):
            with pytest.raises(ValueError):
                sub.sites[0] = 1

    def test_table_facts_measured_once_per_table(self):
        from repro.ptx.absint import table_facts

        lat = Lattice((4, 4, 4, 4))
        facts = lat.shift_facts(1, BACKWARD)
        assert facts == table_facts(lat.shift_map(1, BACKWARD))
        assert lat.shift_facts(1, BACKWARD) is facts
        assert lat.odd.table_facts == table_facts(lat.odd.sites)
        assert lat.odd.table_facts is lat.odd.table_facts

    def test_bad_direction(self):
        lat = Lattice((4, 4, 4, 4))
        with pytest.raises(ValueError):
            lat.shift_map(4, FORWARD)
        with pytest.raises(ValueError):
            lat.shift_map(0, 2)


class TestFaces:
    def test_face_site_count(self):
        lat = Lattice((4, 4, 4, 8))
        assert lat.face_sites(3, FORWARD).size == 4 * 4 * 4
        assert lat.face_sites(0, BACKWARD).size == 4 * 4 * 8

    def test_forward_face_is_upper_boundary(self):
        lat = Lattice((4, 4, 4, 4))
        f = lat.face_sites(1, FORWARD)
        assert np.all(lat.coords[f][:, 1] == 3)

    def test_faces_sorted(self):
        lat = Lattice((4, 4, 4, 4))
        f = lat.face_sites(2, FORWARD)
        assert np.all(np.diff(f) > 0)

    def test_inner_sites_complement(self):
        lat = Lattice((4, 4, 4, 4))
        dirs = [(mu, s) for mu in range(4) for s in (FORWARD, BACKWARD)]
        inner = lat.inner_sites(dirs)
        faces = set()
        for mu, s in dirs:
            faces |= set(lat.face_sites(mu, s))
        assert set(inner) | faces == set(range(lat.nsites))
        assert not set(inner) & faces

    def test_face_exchange_slot_correspondence(self):
        """Sender plane slot k must correspond to receiver face slot k
        (same transverse coordinates) — the halo-exchange invariant."""
        lat = Lattice((4, 4, 4, 6))
        mu = 3
        send = lat.face_sites(mu, BACKWARD)   # x_mu = 0 plane
        recv = lat.face_sites(mu, FORWARD)    # x_mu = L-1 plane
        cs = lat.coords[send]
        cr = lat.coords[recv]
        other = [d for d in range(4) if d != mu]
        assert np.array_equal(cs[:, other], cr[:, other])
