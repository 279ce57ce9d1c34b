"""Tests for the overlap scheduler (paper Sec. V + Fig. 6 mechanics).

The key property: overlap ON and OFF produce byte-identical results,
only modeled time differs — overlap hides communication behind the
inner-site kernel."""

import numpy as np
import pytest

from repro.comm import DistributedWilsonDslash, VirtualMachine
from repro.qcd.dslash import WilsonDslash
from repro.qcd.gauge import weak_gauge
from repro.qcd.halfspinor import half_fermion
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice
from repro.qdp.typesys import color_matrix, fermion


def _setup(grid, seed):
    """A VM over ``grid`` holding a weak gauge field and a gaussian
    source on 4x4x4x8, plus the single-rank ``WilsonDslash`` result
    for each sign."""
    rng = np.random.default_rng(seed)
    dims = (4, 4, 4, 8)
    # single-rank reference
    from repro.core.context import Context

    ref_ctx = Context()
    glat = Lattice(dims)
    u = weak_gauge(glat, rng, context=ref_ctx)
    psi = latt_fermion(glat, context=ref_ctx)
    psi.gaussian(rng)
    ref = {}
    for sign in (+1, -1):
        dest = latt_fermion(glat, context=ref_ctx)
        WilsonDslash(u)(dest, psi, sign=sign)
        ref[sign] = dest.to_numpy()

    vm = VirtualMachine(dims, grid)
    ud = [vm.field(color_matrix()) for _ in range(4)]
    for mu in range(4):
        ud[mu].from_global(u[mu].to_numpy())
    psid = vm.field(fermion())
    psid.from_global(psi.to_numpy())
    return vm, ud, psid, ref


@pytest.fixture(scope="module")
def dslash_setup():
    return _setup((1, 1, 1, 2), 31)


@pytest.fixture(scope="module")
def split_space_setup():
    """A grid that splits a space direction as well as time."""
    return _setup((2, 1, 1, 2), 13)


class TestCorrectness:
    """The distributed operator is the single-rank one bit for bit:
    its terms are ``dslash_expr``'s hops, and a halo carries exactly
    the half spinors the single-rank kernels compute."""

    def test_nonoverlap_matches_single_rank(self, dslash_setup):
        vm, ud, psid, ref = dslash_setup
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        for sign in (+1, -1):
            d.apply(out, psid, overlap=False, sign=sign)
            assert np.array_equal(out.to_global(), ref[sign]), sign

    def test_overlap_bit_identical_to_nonoverlap(self, dslash_setup):
        vm, ud, psid, ref = dslash_setup
        d = DistributedWilsonDslash(vm, ud)
        a = vm.field(fermion())
        b = vm.field(fermion())
        d.apply(a, psid, overlap=False)
        d.apply(b, psid, overlap=True)
        assert np.array_equal(a.to_global(), b.to_global())

    def test_overlap_matches_single_rank(self, dslash_setup):
        vm, ud, psid, ref = dslash_setup
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        for sign in (+1, -1):
            d.apply(out, psid, overlap=True, sign=sign)
            assert np.array_equal(out.to_global(), ref[sign]), sign

    def test_four_rank_grid(self):
        vm, ud, psid, ref = _setup((1, 1, 2, 2), 7)
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        for sign in (+1, -1):
            d.apply(out, psid, overlap=True, sign=sign)
            assert np.array_equal(out.to_global(), ref[sign]), sign


class TestSplitDirections:
    """Only the directions the grid splits take the halo path; the
    others read their on-rank neighbours through the shift tables."""

    def test_halo_path_only_where_the_grid_is_split(self, dslash_setup):
        vm, ud, psid, _ = dslash_setup
        assert vm.grid.split_dims == {3}
        t = DistributedWilsonDslash(vm, ud).apply(
            vm.field(fermion()), psid, overlap=True)
        names = [s.name for s in t.timeline.spans]
        for kind in ("gather", "halo", "scatter"):
            tags = sorted(n.split(":")[1] for n in names
                          if n.startswith(f"{kind}:"))
            assert tags == ["3+", "3-"], kind
        assert sorted(n for n in names if n.startswith("fill:")) \
            == ["fill:hopb3", "fill:hopf3"]

    def test_space_split_matches_single_rank(self, split_space_setup):
        vm, ud, psid, ref = split_space_setup
        assert vm.grid.split_dims == {0, 3}
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        for sign in (+1, -1):
            d.apply(out, psid, overlap=True, sign=sign)
            assert np.array_equal(out.to_global(), ref[sign]), sign

    def test_halos_carry_half_spinors(self, split_space_setup):
        """A face sends the projected 12-word half spinor, not the
        24-word spinor: every message is half what it would be."""
        vm, ud, psid, _ = split_space_setup
        t = DistributedWilsonDslash(vm, ud).apply(
            vm.field(fermion()), psid, overlap=True)
        halos = [s for s in t.timeline.spans if s.name.startswith("halo:")]
        assert len(halos) == 4
        h = half_fermion()
        for span in halos:
            tag = span.name.split(":")[1]
            mu, sign = int(tag[0]), +1 if tag[1] == "+" else -1
            nface = vm.local_lattice.face_sites(mu, sign).size
            assert span.args["bytes"] \
                == nface * h.words_per_site * h.word_bytes, span.name

    def test_space_split_overlap_bit_identical_to_nonoverlap(
            self, split_space_setup):
        vm, ud, psid, _ = split_space_setup
        d = DistributedWilsonDslash(vm, ud)
        a = vm.field(fermion())
        b = vm.field(fermion())
        d.apply(a, psid, overlap=False)
        d.apply(b, psid, overlap=True)
        assert np.array_equal(a.to_global(), b.to_global())

    def test_dest_must_not_be_psi(self, dslash_setup):
        vm, ud, psid, _ = dslash_setup
        with pytest.raises(ValueError, match="dest"):
            DistributedWilsonDslash(vm, ud).apply(psid, psid)


def test_face_kernels_are_proven_under_the_env_they_launch_with():
    """What the VM launches is what was verified: after one 2-rank
    apply every face-copy artifact in the store was checked under a
    launch env (region sizes, site-table content) and every access of
    it is *proven* in bounds — not left ``unproven`` as under an
    env-less analysis."""
    from repro.driver import cache, clear_kernel_store
    from repro.driver.jitcompiler import _env_key
    from repro.ptx.absint import analyze_module

    clear_kernel_store()
    rng = np.random.default_rng(5)
    vm = VirtualMachine((2, 2, 2, 4), (1, 1, 1, 2))
    ud = [vm.field(color_matrix()) for _ in range(4)]
    for umu in ud:
        umu.from_global(rng.normal(size=(32, 3, 3)) + 0j)
    psid = vm.field(fermion())
    psid.from_global(rng.normal(size=(32, 4, 3)) + 0j)
    DistributedWilsonDslash(vm, ud).apply(vm.field(fermion()), psid)

    faces = {a.name: a for a in cache._STORE.values()
             if a.name.startswith(("gather_", "scatter_"))}
    assert {n.split("_")[0] for n in faces} == {"gather", "scatter"}
    for artifact in faces.values():
        assert artifact.checked and None not in artifact.checked
    launched = [e for fk in vm.face_kernels for e in fk._modules.values()]
    assert {e.module.name for e in launched} == set(faces)
    for entry in launched:
        assert _env_key(entry.env) in faces[entry.module.name].checked
        analysis = analyze_module(entry.module, env=entry.env)
        assert analysis.bounds_proven
        assert {a.verdict for a in analysis.accesses} == {"proven"}


class TestTiming:
    def test_overlap_hides_comm(self, dslash_setup):
        vm, ud, psid, _ = dslash_setup
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        t_ov = d.apply(out, psid, overlap=True)
        t_no = d.apply(out, psid, overlap=False)
        assert t_ov.total_s < t_no.total_s
        # the hidden portion is min(comm, inner work)
        hidden = min(t_ov.comm_s,
                     t_ov.interior_fill_s + t_ov.main_inner_s)
        assert t_no.total_s - t_ov.total_s <= hidden * 1.05

    def test_breakdown_components_positive(self, dslash_setup):
        vm, ud, psid, _ = dslash_setup
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        t = d.apply(out, psid, overlap=True)
        for name in ("prepare_s", "gather_s", "comm_s",
                     "interior_fill_s", "scatter_s", "main_inner_s",
                     "main_face_s"):
            assert getattr(t, name) > 0, name

    def test_gflops_accounting(self, dslash_setup):
        vm, ud, psid, _ = dslash_setup
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        t = d.apply(out, psid, overlap=True)
        v = vm.global_lattice.nsites
        assert t.gflops(v) == pytest.approx(
            1320 * v / t.total_s / 1e9)
