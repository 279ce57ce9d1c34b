"""Tests for the LLVM backend (paper Sec. XI, Future Work).

Every kernel family the expression layer generates is compiled for the
CPU target; results must be bit-identical to the PTX driver's."""

import math

import numpy as np
import pytest

from repro.core.context import Context
from repro.llvm import TranspileError, compile_cpu_kernel
from repro.qdp.fields import latt_color_matrix, latt_fermion
from repro.qdp.lattice import Lattice

_VIEWS = ("float32", "float64", "int32", "int64", "uint32", "uint64")


def _run_llvm_and_compare(ctx, launch_spy, dest, build_expr, subset=None):
    """Evaluate via PTX, snapshot, zero, re-run via LLVM with the very
    parameter block the launcher bound, compare."""
    calls = launch_spy(ctx)
    dest.assign(build_expr(), subset=subset)
    ref = dest.to_numpy().copy()
    module = list(ctx.module_cache.values())[-1].module
    name, params, _ = calls[-1]
    assert name == module.name

    views = {n: ctx.device.pool.view(n) for n in _VIEWS}
    addr = ctx.field_cache.entries[dest.uid].addr
    assert addr in params.values()
    start = addr >> 3
    views["float64"][start:start + dest.host.size] = 0

    kernel = compile_cpu_kernel(module.render())
    kernel(views, params, math.ceil(params["p_n"] / 128), 128)
    got = ctx.device.memcpy_dtoh(addr, dest.nbytes,
                                 np.float64)[:dest.host.size]
    # compare raw SoA words against the PTX result
    ctx.field_cache.invalidate_device(dest)
    dest.from_numpy(ref)
    assert np.array_equal(got, dest.host), \
        f"LLVM/PTX mismatch: {np.abs(got - dest.host).max()}"


@pytest.fixture()
def llctx():
    return Context()


class TestCrossBackendAgreement:
    def test_axpy(self, llctx, launch_spy, rng):
        lat = Lattice((4, 4, 4, 4))
        a = latt_fermion(lat, context=llctx)
        b = latt_fermion(lat, context=llctx)
        a.gaussian(rng)
        b.gaussian(rng)
        dest = latt_fermion(lat, context=llctx)
        _run_llvm_and_compare(llctx, launch_spy, dest, lambda: 0.5 * a + b)

    def test_matvec(self, llctx, launch_spy, rng):
        lat = Lattice((4, 4, 4, 4))
        u = latt_color_matrix(lat, context=llctx)
        psi = latt_fermion(lat, context=llctx)
        u.gaussian(rng)
        psi.gaussian(rng)
        dest = latt_fermion(lat, context=llctx)
        _run_llvm_and_compare(llctx, launch_spy, dest, lambda: u * psi)

    def test_shift(self, llctx, launch_spy, rng):
        from repro.core.expr import shift

        lat = Lattice((4, 4, 4, 4))
        psi = latt_fermion(lat, context=llctx)
        psi.gaussian(rng)
        dest = latt_fermion(lat, context=llctx)
        _run_llvm_and_compare(llctx, launch_spy, dest,
                              lambda: shift(psi.ref(), +1, 2))

    def test_subset(self, llctx, launch_spy, rng):
        lat = Lattice((4, 4, 4, 4))
        a = latt_fermion(lat, context=llctx)
        a.gaussian(rng)
        dest = latt_fermion(lat, context=llctx)
        _run_llvm_and_compare(llctx, launch_spy, dest, lambda: 2.0 * a,
                              subset=lat.even)

    def test_adjoint_product(self, llctx, launch_spy, rng):
        from repro.core.expr import adj

        lat = Lattice((4, 4, 4, 4))
        u = latt_color_matrix(lat, context=llctx)
        psi = latt_fermion(lat, context=llctx)
        u.gaussian(rng)
        psi.gaussian(rng)
        dest = latt_fermion(lat, context=llctx)
        _run_llvm_and_compare(llctx, launch_spy, dest, lambda: adj(u) * psi)


class TestSubsetRestrictions:
    def test_non_ssa_rejected(self):
        ptx = """
.version 3.1
.target sm_35
.address_size 64

.visible .entry twice(
    .param .u64 .ptr .global p_x
)
{
    .reg .f64 %fd<1>;
    .reg .u64 %ru<1>;

    ld.param.u64 %ru0, [p_x];
    mov.f64 %fd0, 1.0;
    mov.f64 %fd0, 2.0;
    st.global.f64 [%ru0], %fd0;
    ret;
}
"""
        with pytest.raises(TranspileError, match="assigned twice"):
            compile_cpu_kernel(ptx)
