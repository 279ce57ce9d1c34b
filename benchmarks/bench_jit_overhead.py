"""Sec. III-D / VIII-D: JIT compilation overhead.

The paper measures 0.05-0.22 s per compute kernel through the NVIDIA
driver JIT, ~200 kernels per trajectory, 10-30 s total — negligible.
Here we benchmark our driver's *actual* wall-clock for the whole
driver step of each generated kernel — parse, verify/absint/liveness
(``compile_ptx``) and the callable's build — and report the
modeled NVIDIA-driver cost next to it.
"""

import time

import numpy as np
import pytest

from repro.core.context import Context
from repro.driver import compile_ptx
from repro.driver.backends import BackendStats, select_backend
from repro.qcd.gauge import weak_gauge
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice

from _util import header, report, table


@pytest.fixture(scope="module")
def generated_kernels():
    """Generate a representative kernel population (a Wilson apply +
    reductions + shifts)."""
    ctx = Context()
    lat = Lattice((4, 4, 4, 4))
    rng = np.random.default_rng(0)
    u = weak_gauge(lat, rng, context=ctx)
    m = WilsonOperator(u, WilsonParams(kappa=0.1))
    psi = latt_fermion(lat, context=ctx)
    psi.gaussian(rng)
    out = latt_fermion(lat, context=ctx)
    m.apply(out, psi)
    from repro.core.reduction import innerProduct, norm2

    norm2(out, context=ctx)
    innerProduct(psi, out, context=ctx)
    return [entry.module for entry in ctx.module_cache.values()]


#: the paper's per-kernel JIT band (Sec. III-D), seconds
PAPER_FLOOR_S, PAPER_CEILING_S = 0.05, 0.22


def test_jit_compile_overhead(benchmark, generated_kernels):
    texts = [m.render() for m in generated_kernels]
    best: dict[str, float] = {}     # kernel -> fastest driver step seen

    def compile_all():
        kernels = []
        for text in texts:
            t0 = time.perf_counter()
            kernel = compile_ptx(text)
            select_backend(kernel, BackendStats())   # builds the callable
            seconds = time.perf_counter() - t0
            best[kernel.name] = min(seconds, best.get(kernel.name, seconds))
            kernels.append(kernel)
        return kernels

    kernels = benchmark(compile_all)
    header("JIT compilation overhead (per generated kernel)")
    rows = []
    for k in kernels:
        rows.append((k.name[:24], len(k.parsed.instructions),
                     f"{k.compile_seconds * 1e3:.2f} ms",
                     f"{best[k.name] * 1e3:.2f} ms",
                     f"{k.modeled_compile_seconds:.3f} s"))
    table(rows, ("kernel", "instructions", "parse+verify (wall)",
                 "whole driver step (wall)", "modeled driver JIT"))
    report(f"paper band: {PAPER_FLOOR_S} - {PAPER_CEILING_S} s per kernel; "
           "~200 kernels => 10-30 s per trajectory, negligible")
    for k in kernels:
        assert 0.04 <= k.modeled_compile_seconds <= 0.30
        assert k.func is not None
        # the measured driver step, callable build included, stays under
        # the ceiling of what the paper's real driver took
        assert best[k.name] < PAPER_CEILING_S, k.name


def test_trajectory_population_overhead(benchmark):
    """~200 kernels of realistic sizes land in the paper's 10-30 s."""
    from repro.driver.jitcompiler import modeled_jit_time

    rng = np.random.default_rng(1)
    sizes = rng.integers(30, 500, size=200)
    total = benchmark(lambda: sum(modeled_jit_time(int(n))
                                  for n in sizes))
    report(f"modeled total for 200 kernels: {total:.1f} s "
           f"(paper: 10-30 s)")
    assert 10 <= total <= 40
