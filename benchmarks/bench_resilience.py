"""Resilience chaos harness: rank kills against the real workloads.

Runs the 4-rank distributed Wilson dslash and a short HMC campaign
under seeded ``rank.kill`` / ``rank.straggler`` schedules
(``REPRO_FAULTS``) with the resilience layer in ``recover`` mode, and
asserts the layer's contract:

* buddy recovery is *bitwise* identical to the fault-free run — the
  checkpoint cut at the exchange barrier reproduces the dead rank
  exactly;
* shrink-and-redistribute completes on fewer ranks with the same
  numbers (``allclose`` per contract; bitwise is recorded);
* a mid-campaign kill replays the trajectory from its snapshot and
  the surviving stream is bitwise identical to an uninterrupted one;
* every kill is recovered, the recovery cost lands on the ``fault``
  lane, the same seed replays the identical trace
  (``FaultPlan.trace_signature``), and with ``REPRO_RESILIENCE`` off
  (or no plan) the layer is bitwise invisible.

Emits ``BENCH_resilience.json`` (summary, accumulated across the
tests) and ``BENCH_resilience_trace.json`` (the buddy dslash run's
full fault/recovery trace — the CI artifact).
"""

import numpy as np

from repro.comm import DistributedWilsonDslash, VirtualMachine
from repro.faults import FaultPlan
from repro.qdp.typesys import color_matrix, fermion

from _util import header, report, table, write_bench

DIMS = (4, 4, 4, 8)
GRID = (1, 1, 2, 2)
BUDDY_PLAN = "seed=7: rank.kill=1x@rank2:2-:*"
SHRINK_PLAN = "seed=7: rank.kill=1x@rank0:0+:psi"

_SUMMARY: dict = {"benchmark": "resilience", "lattice": list(DIMS),
                  "grid": list(GRID)}


def _buddy_plan():
    return FaultPlan(seed=7).add("rank.kill", count=1,
                                 match="rank2:2-:*")


def _shrink_plan():
    return FaultPlan(seed=7).add("rank.kill", count=1,
                                 match="rank0:0+:psi")


def _dslash_run(faults, resilience=False, policy="buddy"):
    """4-rank overlapped dslash; returns (vm, global result)."""
    vm = VirtualMachine(DIMS, GRID, faults=faults,
                        resilience=resilience, recover_policy=policy)
    g = vm.global_lattice
    rng = np.random.default_rng(31)
    ud = [vm.field(color_matrix(), f"u{mu}") for mu in range(4)]
    for mu in range(4):
        ud[mu].from_global(rng.normal(size=(g.nsites, 3, 3))
                           + 1j * rng.normal(size=(g.nsites, 3, 3)))
    psi = vm.field(fermion(), "psi")
    psi.from_global(rng.normal(size=(g.nsites, 4, 3))
                    + 1j * rng.normal(size=(g.nsites, 4, 3)))
    out = vm.field(fermion(), "out")
    DistributedWilsonDslash(vm, ud).apply(out, psi, overlap=True)
    return vm, out.to_global()


def test_resilience_dslash_buddy():
    """A rank dies mid-apply; buddy checkpointing restores it and the
    answer is bitwise identical to the fault-free machine."""
    _, clean = _dslash_run(False)
    plan = _buddy_plan()
    vm, got = _dslash_run(plan, resilience="recover", policy="buddy")

    bitwise = bool(np.array_equal(got, clean))
    all_recovered = plan.all_recovered()
    rz = vm.resilience.as_json()
    fault_busy = vm.timeline.lane_busy().get("fault", 0.0)

    replay = _buddy_plan()
    _dslash_run(replay, resilience="recover", policy="buddy")
    replay_identical = (plan.trace_signature()
                        == replay.trace_signature())

    # off-path: recover mode with no plan is bitwise invisible
    vm_off, off = _dslash_run(False, resilience="recover",
                              policy="buddy")
    vm_base, base = _dslash_run(False)
    off_identical = (bool(np.array_equal(off, clean))
                     and bool(np.array_equal(base, clean))
                     and max(c.device.clock for c in vm_off.contexts)
                     == max(c.device.clock for c in vm_base.contexts))

    header(f"Resilience: 4-rank dslash ({'x'.join(map(str, DIMS))} on "
           f"{'x'.join(map(str, GRID))}) under [{BUDDY_PLAN}]")
    table([("buddy", f"{rz['kills_injected']}", f"{rz['detections']}",
            f"{rz['recoveries_by_policy'].get('buddy', 0)}",
            f"{rz['restored_payloads']}",
            f"{rz['recovery_modeled_s'] * 1e6:.1f} us",
            f"{fault_busy * 1e6:.1f} us")],
          ("policy", "kills", "detected", "recovered", "payloads",
           "modeled cost", "fault lane"))
    report(f"bitwise vs fault-free: {bitwise}; all recovered: "
           f"{all_recovered}; off-path bitwise invisible: "
           f"{off_identical}; same-seed replay identical: "
           f"{replay_identical}")

    _SUMMARY["dslash_buddy"] = {
        "plan": BUDDY_PLAN, "bitwise": bitwise,
        "all_recovered": all_recovered,
        "off_identical": off_identical,
        "replay_identical": replay_identical,
        "fault_lane_busy_s": fault_busy, "resilience": rz,
    }
    write_bench("resilience", _SUMMARY)
    write_bench("resilience_trace", plan.trace_json())

    assert bitwise
    assert all_recovered
    assert rz["kills_injected"] == 1
    assert rz["recoveries_by_policy"] == {"buddy": 1}
    assert rz["restored_payloads"] > 0
    assert fault_busy > 0
    assert off_identical
    assert replay_identical


def test_resilience_dslash_shrink():
    """The same machine under shrink-and-redistribute: the grid drops
    the dead rank and finishes with the same numbers."""
    _, clean = _dslash_run(False)
    plan = _shrink_plan()
    vm, got = _dslash_run(plan, resilience="recover", policy="shrink")

    close = bool(np.allclose(got, clean, rtol=1e-12, atol=1e-14))
    bitwise = bool(np.array_equal(got, clean))
    rz = vm.resilience.as_json()

    header(f"Resilience: shrink-and-redistribute under [{SHRINK_PLAN}]")
    report(f"ranks 4 -> {vm.nranks}; allclose vs fault-free: {close} "
           f"(bitwise: {bitwise}); kills/recoveries: "
           f"{rz['kills_injected']}/"
           f"{rz['recoveries_by_policy'].get('shrink', 0)}; "
           f"modeled cost {rz['recovery_modeled_s'] * 1e6:.1f} us")

    _SUMMARY["dslash_shrink"] = {
        "plan": SHRINK_PLAN, "nranks_after": vm.nranks,
        "allclose": close, "bitwise": bitwise, "resilience": rz,
    }
    write_bench("resilience", _SUMMARY)

    assert close
    assert vm.nranks < 4
    assert plan.all_recovered()
    assert rz["recoveries_by_policy"] == {"shrink": 1}


def _shift_run(faults, resilience=False):
    """2-rank boundary-crossing shift sweep (cheap lane clocks, so a
    hang stands clear of the median); returns (vm, global result)."""
    vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2), faults=faults,
                        resilience=resilience)
    g = vm.global_lattice
    rng = np.random.default_rng(5)
    f = vm.field(fermion(), "psi")
    f.from_global(rng.normal(size=(g.nsites, 4, 3))
                  + 1j * rng.normal(size=(g.nsites, 4, 3)))
    d = vm.field(fermion(), "chi")
    for mu in range(3):
        vm.shift_into(d, f, mu, +1)
        f, d = d, f
    return vm, f.to_global()


def test_resilience_straggler():
    """An injected straggler is flagged against the median lane clock
    and its stall absorbed on the fault lane; numbers unperturbed."""
    _, clean = _shift_run(False)
    plan = FaultPlan(seed=11).add("rank.straggler", count=1,
                                  match="rank1:*")
    vm, got = _shift_run(plan, resilience="recover")
    rz = vm.resilience.as_json()

    header("Resilience: straggler detection (rank1 hangs once)")
    report(f"injected/flagged: {rz['stragglers_injected']}/"
           f"{rz['stragglers_flagged']}; bitwise vs fault-free: "
           f"{bool(np.array_equal(got, clean))}")

    _SUMMARY["straggler"] = {
        "injected": rz["stragglers_injected"],
        "flagged": rz["stragglers_flagged"],
        "bitwise": bool(np.array_equal(got, clean)),
    }
    write_bench("resilience", _SUMMARY)

    assert rz["stragglers_injected"] == 1
    assert rz["stragglers_flagged"] == 1
    assert np.array_equal(got, clean)
    assert plan.all_recovered()


def _campaign(plan):
    """A short 2x2x2x4 pure-gauge campaign; returns (result, plaq)."""
    from repro.core import context as context_mod
    from repro.core.context import Context, set_default_context
    from repro.hmc import (
        HMC,
        GaugeMonomial,
        Level,
        MultiTimescaleIntegrator,
    )
    from repro.qcd.gauge import plaquette, weak_gauge
    from repro.qdp.lattice import Lattice
    from repro.resilience import run_campaign

    old = context_mod._default_context
    ctx = Context()
    set_default_context(ctx)
    try:
        lat = Lattice((2, 2, 2, 4))
        rng = np.random.default_rng(3)
        u = weak_gauge(lat, rng, eps=0.3)
        hmc = HMC(u, MultiTimescaleIntegrator(
            [Level([GaugeMonomial(beta=5.6)], n_steps=4)]), rng)
        result = run_campaign(hmc, n_trajectories=3, tau=0.3,
                              plan=plan)
        return result, plaquette(u)
    finally:
        set_default_context(old)


def test_resilience_hmc_campaign():
    """A kill in trajectory 1 loses that attempt's work, restores the
    snapshot, replays — and the stream is bitwise identical."""
    clean, plaq_clean = _campaign(None)
    plan = FaultPlan(seed=14).add("rank.kill", count=1, match="traj1")
    chaos, plaq = _campaign(plan)

    header("Resilience: HMC campaign (3 trajectories, kill in traj1)")
    report(f"plaquette clean {plaq_clean:.12f}, chaos {plaq:.12f}; "
           f"bitwise: {plaq == plaq_clean}; kills/replays: "
           f"{chaos.kills}/{chaos.replays}; lost work "
           f"{chaos.lost_work_s * 1e6:.1f} us")

    _SUMMARY["hmc_campaign"] = {
        "plaquette": plaq, "bitwise": bool(plaq == plaq_clean),
        "kills": chaos.kills, "replays": chaos.replays,
        "lost_work_s": chaos.lost_work_s,
    }
    write_bench("resilience", _SUMMARY)

    assert plaq == plaq_clean
    assert chaos.kills == chaos.replays == 1
    assert chaos.lost_work_s > 0
    assert plan.all_recovered()
    assert [r.accepted for r in chaos.results] \
        == [r.accepted for r in clean.results]
