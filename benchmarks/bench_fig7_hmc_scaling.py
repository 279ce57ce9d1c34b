"""Figure 7: strong scaling of HMC on Blue Waters (paper Sec. VIII-D).

Two parts:

1. *Executed*: a real miniature 2+1-flavor RHMC trajectory (mass
   preconditioning + rational strange quark) through the full JIT
   pipeline — the workload whose component structure the scaling
   model extrapolates.
2. *Modeled*: the three configurations at the paper's partition
   sizes, with the quoted speedups, node-hours and the ~5x resource
   cost reduction.
"""

import numpy as np
import pytest

from repro.perfmodel.hmcperf import (
    figure_7,
    node_hours,
    resource_cost_factor,
    speedup,
)

from _util import header, report, table


def test_fig7_scaling_model(benchmark):
    fig = benchmark(figure_7)
    header("Figure 7: HMC trajectory time on Blue Waters, "
           "V = 40^3 x 256, 2+1 anisotropic clover, tau = 0.2")
    cpu = dict(fig["cpu"])
    cq = dict(fig["cpu+quda"])
    jq = dict(fig["qdpjit+quda"])
    rows = []
    for p in (128, 256, 400, 512, 800, 1600):
        rows.append((p, f"{cpu[p]:.0f}",
                     f"{cq[p]:.0f}" if p in cq else "-",
                     f"{jq[p]:.0f}" if p in jq else "-",
                     f"{cpu[p] / cq[p]:.2f}" if p in cq else "-",
                     f"{cpu[p] / jq[p]:.2f}" if p in jq else "-"))
    table(rows, ("P", "CPU [s]", "CPU+QUDA [s]", "QDP-JIT+QUDA [s]",
                 "x(CPU+QUDA)", "x(QDP-JIT+QUDA)"))
    report("paper anchors: x2.2 / x11.0 at 128; x1.8 / x3.7 at 800;",
           "CPU-only scales well to ~400 sockets, 800->1600 marginal")
    assert speedup("cpu+quda", 128) == pytest.approx(2.2, rel=0.08)
    assert speedup("qdpjit+quda", 128) == pytest.approx(11.0, rel=0.08)
    assert speedup("cpu+quda", 800) == pytest.approx(1.8, rel=0.08)
    assert speedup("qdpjit+quda", 800) == pytest.approx(3.7, rel=0.08)


def test_resource_cost(benchmark):
    factor = benchmark(resource_cost_factor, 128)
    header("Sec. VIII-D: integrated resource cost at the most "
           "efficient machine size (128 XK nodes)")
    rows = [("CPU+QUDA", f"{node_hours('cpu+quda', 128):.0f}", "258"),
            ("QDP-JIT+QUDA", f"{node_hours('qdpjit+quda', 128):.0f}",
             "52")]
    table(rows, ("configuration", "node-hours (model)", "paper"))
    report(f"cost reduction factor: {factor:.2f} (paper: ~5)")
    assert factor == pytest.approx(5.0, rel=0.1)


def test_executed_mini_trajectory(benchmark):
    """A real 2+1 RHMC trajectory through the framework (miniature
    volume).  Prints its operation accounting — the quantities the
    scaling model's workload is expressed in."""
    from repro.core.context import Context, set_default_context
    from repro.hmc import (
        HMC,
        GaugeMonomial,
        HasenbuschRatioMonomial,
        Level,
        MultiTimescaleIntegrator,
        OneFlavorRationalMonomial,
        TwoFlavorWilsonMonomial,
        fourth_root,
        inv_sqrt,
    )
    from repro.qcd.gauge import weak_gauge
    from repro.qcd.wilson import WilsonParams
    from repro.qdp.lattice import Lattice

    ctx = Context()
    set_default_context(ctx)
    rng = np.random.default_rng(4)
    lat = Lattice((2, 2, 2, 4))
    u = weak_gauge(lat, rng, eps=0.2, context=ctx)
    light = WilsonParams(kappa=0.115)
    heavy = WilsonParams(kappa=0.10)
    strange = WilsonParams(kappa=0.105)
    pf_a = inv_sqrt(0.05, 6.0, degree=12)
    pf_h = fourth_root(0.05, 6.0, degree=12)
    levels = [
        Level([HasenbuschRatioMonomial(light, heavy, tol=1e-8),
               OneFlavorRationalMonomial(strange, pf_a, pf_h,
                                         tol=1e-8)], n_steps=2),
        Level([TwoFlavorWilsonMonomial(heavy, tol=1e-8)], n_steps=2),
        Level([GaugeMonomial(beta=5.6)], n_steps=2, scheme="omelyan"),
    ]
    hmc = HMC(u, MultiTimescaleIntegrator(levels), rng)

    r = benchmark.pedantic(lambda: hmc.trajectory(tau=0.1), rounds=1,
                           iterations=1)
    header("Executed miniature 2+1-flavor RHMC trajectory (2^3 x 4)")
    report(f"dH = {r.delta_h:+.5f}, accepted = {r.accepted}, "
           f"plaquette = {r.plaquette:.5f}",
           f"solver iterations = {r.solver_iterations}, "
           f"kernel launches = {r.kernels_launched}",
           f"distinct JIT kernels = {ctx.kernel_cache.stats.n_kernels} "
           f"(paper: ~200 for the full production action)",
           f"modeled JIT overhead = "
           f"{ctx.kernel_cache.stats.total_modeled_compile_seconds:.1f} s "
           f"(paper: 10-30 s, 'negligible')")
    assert abs(r.delta_h) < 0.5
