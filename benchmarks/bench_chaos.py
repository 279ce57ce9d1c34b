"""Chaos harness: seeded fault schedules against the real workloads.

Runs the fused CG solver, a distributed halo exchange and a short HMC
trajectory under deterministic fault plans (``REPRO_FAULTS`` sites:
transient launch failures, a forced device OOM, transfer bit flips,
halo corruption, solver iterate corruption) and asserts the recovery
layer's contract:

* every workload converges / completes to the same answer it reaches
  fault-free (CG to the same tolerance, halo and HMC bitwise);
* every injected fault is recovered (``injected == recovered``);
* with faults off, the run is bitwise identical to a disabled
  injector — the layer is invisible until asked for;
* the same seed replays the identical fault sequence and recovery
  trace (``FaultPlan.trace_signature``).

Emits ``BENCH_chaos.json`` (summary) and ``BENCH_chaos_trace.json``
(the CG chaos run's full fault/recovery trace — the CI artifact).
"""

import numpy as np

from repro.comm import VirtualMachine
from repro.core.context import Context, set_default_context
from repro.faults import FaultPlan
from repro.qcd.solver import cg
from repro.qdp.fields import latt_fermion, latt_real
from repro.qdp.lattice import Lattice
from repro.qdp.typesys import fermion

from _util import header, report, table, write_bench

DIMS = (4, 4, 4, 4)
TOL = 1e-10
CG_PLAN = "seed=42: launch=2x, alloc=1x, h2d=1x, solver=1x"


def _cg_plan(seed=42):
    return (FaultPlan(seed=seed).add("launch", count=2)
            .add("alloc", count=1).add("h2d", count=1)
            .add("solver", count=1))


def _solve(faults):
    """Fused CG on A = diag(w); returns (ctx, x, result)."""
    ctx = Context(fusion=True, faults=faults)
    lat = Lattice(DIMS)
    rng = np.random.default_rng(17)
    w = latt_real(lat, context=ctx)
    w.from_numpy(rng.uniform(0.5, 1.5, lat.nsites))
    b = latt_fermion(lat, context=ctx)
    b.gaussian(rng)
    x = latt_fermion(lat, context=ctx)

    def apply_op(dest, src):
        dest.assign(w.ref() * src.ref())

    res = cg(apply_op, x, b, tol=TOL, max_iter=300)
    ctx.flush()
    return ctx, x, res


def _halo_shift(faults):
    """2-rank halo exchange; returns (vm, shifted, expected)."""
    vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2), faults=faults)
    glat = vm.global_lattice
    rng = np.random.default_rng(5)
    data = (rng.normal(size=(glat.nsites, 4, 3))
            + 1j * rng.normal(size=(glat.nsites, 4, 3)))
    src = vm.field(fermion())
    src.from_global(data)
    dst = vm.field(fermion())
    vm.shift_into(dst, src, 3, +1)
    return vm, dst.to_global(), data[glat.shift_map(3, +1)]


def _hmc_plaquette(faults):
    """One short pure-gauge HMC trajectory; returns the plaquette."""
    from repro.core import context as context_mod
    from repro.hmc import (
        HMC,
        GaugeMonomial,
        Level,
        MultiTimescaleIntegrator,
    )
    from repro.qcd.gauge import plaquette, weak_gauge

    old = context_mod._default_context
    ctx = Context(faults=faults)
    set_default_context(ctx)
    try:
        lat = Lattice((2, 2, 2, 4))
        rng = np.random.default_rng(3)
        u = weak_gauge(lat, rng, eps=0.3)
        hmc = HMC(u, MultiTimescaleIntegrator(
            [Level([GaugeMonomial(beta=5.6)], n_steps=4)]), rng)
        hmc.trajectory(tau=0.3)
        return ctx, plaquette(u)
    finally:
        set_default_context(old)


def test_chaos_cg(tmp_path):
    """Fused CG under the full seeded fault schedule."""
    clean_ctx, x_clean, res_clean = _solve(False)
    plan = _cg_plan()
    ctx, x, res = _solve(plan)

    converged = bool(res.converged and res.residual_norm <= TOL)
    same_solution = bool(np.allclose(x.to_numpy(), x_clean.to_numpy(),
                                     rtol=1e-8, atol=1e-12))
    all_recovered = plan.all_recovered()
    replay = _cg_plan()
    _solve(replay)
    replay_identical = (plan.trace_signature()
                        == replay.trace_signature())

    # off-identity: a second disabled run is bitwise equal to the first
    ctx2, x2, res2 = _solve(False)
    off_identical = (bool(np.array_equal(x2.to_numpy(),
                                         x_clean.to_numpy()))
                     and ctx2.device.clock == clean_ctx.device.clock
                     and ctx2.stats.faults_injected == 0)

    c = plan.counters
    header(f"Chaos harness: fused CG ({'x'.join(map(str, DIMS))}, f64) "
           f"under plan [{CG_PLAN}]")
    rows = [
        ("clean", f"{res_clean.iterations}",
         f"{res_clean.residual_norm:.2e}", "0/0", "0", "0.0 us", "0"),
        ("chaos", f"{res.iterations}", f"{res.residual_norm:.2e}",
         f"{c.injected}/{c.recovered}", f"{c.retries}",
         f"{c.backoff_s * 1e6:.1f} us", f"{c.solver_restarts}"),
    ]
    table(rows, ("run", "iters", "residual", "inj/rec", "retries",
                 "backoff", "restarts"))
    report(f"converged to tol: {converged}; same solution: "
           f"{same_solution}; all faults recovered: {all_recovered}",
           f"off-path bitwise identical: {off_identical}; "
           f"same-seed replay identical: {replay_identical}")

    out = {
        "benchmark": "chaos_cg",
        "lattice": list(DIMS),
        "plan": CG_PLAN,
        "tol": TOL,
        "clean_iterations": res_clean.iterations,
        "chaos_iterations": res.iterations,
        "counters": c.as_json(),
        "converged": converged,
        "same_solution": same_solution,
        "all_recovered": all_recovered,
        "off_identical": off_identical,
        "replay_identical": replay_identical,
        "fault_lane_busy_s":
            ctx.device.runtime.timeline.lane_busy().get("fault", 0.0),
    }
    write_bench("chaos", out)
    write_bench("chaos_trace", plan.trace_json())

    assert converged
    assert same_solution
    assert all_recovered
    assert c.injected == c.recovered >= 5
    assert off_identical
    assert replay_identical


def test_chaos_halo():
    """Halo exchange with drop + corruption, repaired bitwise."""
    plan = (FaultPlan(seed=9).add("halo.drop", count=1)
            .add("halo.corrupt", count=1))
    vm, got, want = _halo_shift(plan)
    bitwise = bool(np.array_equal(got, want))
    c = plan.counters
    header("Chaos harness: 2-rank halo exchange under drop + corrupt")
    report(f"delivered bitwise intact: {bitwise}; "
           f"injected/recovered: {c.injected}/{c.recovered}; "
           f"retransmit retries: {c.retries}; comm-lane recovery: "
           f"{vm.timeline.lane_busy().get('fault', 0) * 1e6:.1f} us "
           f"backoff")
    assert bitwise
    assert c.injected == c.recovered == 2


def test_chaos_hmc():
    """A short HMC trajectory under transient launch + transfer
    faults lands on the bitwise-identical plaquette."""
    _, plaq_clean = _hmc_plaquette(False)
    plan = (FaultPlan(seed=14).add("launch", count=3)
            .add("h2d", count=1))
    ctx, plaq = _hmc_plaquette(plan)
    c = plan.counters
    header("Chaos harness: short HMC trajectory (2x2x2x4, beta=5.6)")
    report(f"plaquette clean {plaq_clean:.12f}, chaos {plaq:.12f}; "
           f"bitwise equal: {plaq == plaq_clean}; injected/recovered: "
           f"{c.injected}/{c.recovered}")
    assert plaq == plaq_clean
    assert c.injected == c.recovered == 4
    assert plan.all_recovered()
    assert ctx.stats.faults_injected == 4
