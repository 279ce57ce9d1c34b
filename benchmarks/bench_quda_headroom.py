"""Sec. VIII-C QUDA comparison: the hand-tuned headroom.

Paper (same hardware, same work, overlapping comms):
  SP, V=40^4: QUDA 346 GFLOPS vs QDP-JIT 197 => 1.76x
  DP, V=32^4: QUDA 171 GFLOPS vs QDP-JIT  90 => 1.9x

Also benchmarks the *functional* optimized Dslash (the QUDA
algorithm) against the expression-generated one for cross-validation.
"""

import numpy as np
import pytest

from repro.device import K20M_ECC_ON
from repro.perfmodel.dslashperf import figure_6
from repro.qcd.dslash import WilsonDslash
from repro.qcd.gauge import weak_gauge
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice
from repro.quda import OptimizedDslash, quda_dslash_gflops

from _util import header, table


def test_quda_headroom(benchmark):
    curves = benchmark(figure_6, [32, 40])
    sp_jit = dict(curves["sp_overlap"])[40]
    dp_jit = dict(curves["dp_overlap"])[32]
    sp_quda = quda_dslash_gflops(K20M_ECC_ON, 40 ** 4, "f32")
    dp_quda = quda_dslash_gflops(K20M_ECC_ON, 32 ** 4, "f64")
    header("Sec. VIII-C: QUDA vs QDP-JIT Dslash (headroom for hand "
           "tuning)")
    rows = [
        ("SP, 40^4", f"{sp_quda:.0f}", f"{sp_jit:.0f}",
         f"{sp_quda / sp_jit:.2f}", "346 / 197 = 1.76"),
        ("DP, 32^4", f"{dp_quda:.0f}", f"{dp_jit:.0f}",
         f"{dp_quda / dp_jit:.2f}", "171 / 90 = 1.90"),
    ]
    table(rows, ("case", "QUDA GF", "QDP-JIT GF", "factor", "paper"))
    assert sp_quda / sp_jit == pytest.approx(1.76, rel=0.08)
    assert dp_quda / dp_jit == pytest.approx(1.90, rel=0.08)


def test_optimized_dslash_execution(benchmark):
    """Wall-clock of the hand-written spin-projected Dslash, checked
    against the generated kernels."""
    from repro.core.context import Context

    ctx = Context()
    lat = Lattice((8, 8, 8, 8))
    rng = np.random.default_rng(2)
    u = weak_gauge(lat, rng, context=ctx)
    psi = latt_fermion(lat, context=ctx)
    psi.gaussian(rng)
    opt = OptimizedDslash(u)
    arr = psi.to_numpy()
    out = benchmark(opt.apply, arr)
    dest = latt_fermion(lat, context=ctx)
    WilsonDslash(u)(dest, psi)
    assert np.allclose(out, dest.to_numpy(), rtol=1e-12, atol=1e-13)
