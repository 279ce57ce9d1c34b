"""Tests for the overlap scheduler (paper Sec. V + Fig. 6 mechanics).

The key property: overlap ON and OFF produce byte-identical results,
only modeled time differs — overlap hides communication behind the
inner-site kernel."""

import numpy as np
import pytest

from repro.comm import DistributedWilsonDslash, VirtualMachine
from repro.qcd.dslash import WilsonDslash
from repro.qcd.gauge import weak_gauge
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice
from repro.qdp.typesys import color_matrix, fermion


@pytest.fixture(scope="module")
def dslash_setup():
    rng = np.random.default_rng(31)
    dims = (4, 4, 4, 8)
    # single-rank reference
    from repro.core.context import Context

    ref_ctx = Context()
    glat = Lattice(dims)
    u = weak_gauge(glat, rng, context=ref_ctx)
    psi = latt_fermion(glat, context=ref_ctx)
    psi.gaussian(rng)
    dest = latt_fermion(glat, context=ref_ctx)
    WilsonDslash(u)(dest, psi)
    ref = dest.to_numpy()

    vm = VirtualMachine(dims, (1, 1, 1, 2))
    ud = [vm.field(color_matrix()) for _ in range(4)]
    for mu in range(4):
        ud[mu].from_global(u[mu].to_numpy())
    psid = vm.field(fermion())
    psid.from_global(psi.to_numpy())
    return vm, ud, psid, ref


class TestCorrectness:
    def test_nonoverlap_matches_single_rank(self, dslash_setup):
        vm, ud, psid, ref = dslash_setup
        d = DistributedWilsonDslash(vm, ud)
        out = vm.field(fermion())
        d.apply(out, psid, overlap=False)
        assert np.abs(out.to_global() - ref).max() < 1e-12

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
        d.apply(out, psid, overlap=True)
        assert np.abs(out.to_global() - ref).max() < 1e-12

    def test_four_rank_grid(self):
        rng = np.random.default_rng(7)
        dims = (4, 4, 4, 8)
        vm = VirtualMachine(dims, (1, 1, 2, 2))
        from repro.core.context import Context
        from repro.qcd.gauge import weak_gauge as wg

        ref_ctx = Context()
        u = wg(Lattice(dims), rng, context=ref_ctx)
        psi = latt_fermion(Lattice(dims), context=ref_ctx)
        psi.gaussian(rng)
        dest = latt_fermion(Lattice(dims), context=ref_ctx)
        WilsonDslash(u)(dest, psi)
        ud = [vm.field(color_matrix()) for _ in range(4)]
        for mu in range(4):
            ud[mu].from_global(u[mu].to_numpy())
        psid = vm.field(fermion())
        psid.from_global(psi.to_numpy())
        out = vm.field(fermion())
        DistributedWilsonDslash(vm, ud).apply(out, psid, overlap=True)
        assert np.abs(out.to_global() - dest.to_numpy()).max() < 1e-12


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
