"""One ledger: every modeled second goes through ``Device.charge``.

The device clock, the ``DeviceStats`` counters, the timeline spans and
the per-tenant attribution are four views of the same sum — fault-free
and, where hand-kept copies used to drift, under a fault plan whose
recovery charges backoff and retransmits.
"""

import numpy as np
import pytest

from repro.comm import VirtualMachine
from repro.device import Device
from repro.faults import FaultPlan
from repro.faults.plan import parse_plan
from repro.qdp.typesys import fermion
from repro.serve import Server, cg_diag_workload, shift_sweep_workload

DIMS = (4, 4, 4, 4)


@pytest.mark.parametrize("spec", [None, "seed=3,h2d=0.3",
                                  "seed=3,d2h=0.5", "seed=3,launch=0.2"])
def test_clock_counters_timeline_and_tenants_agree(spec):
    plan = parse_plan(spec) if spec else False
    srv = Server(faults=plan)
    clock0 = srv.device.clock
    a = srv.tenant("alice", weight=2.0)
    b = srv.tenant("bob")
    sa = srv.submit(a, cg_diag_workload(dims=DIMS, seed=1, max_iter=15))
    sb = srv.submit(b, shift_sweep_workload(dims=DIMS, seed=2, sweeps=4))
    srv.drain()
    assert sa.state == sb.state == "done"
    if plan:
        # the plan really charged recovery time on this run
        assert plan.counters.backoff_s > 0.0 and plan.all_recovered()

    dev = srv.device
    # (each view is its own float accumulator: equal to rounding; the
    # drift this guards against was 1e-5 relative)
    exact = dict(rel=1e-12, abs=0.0)
    assert a.stats.modeled_s + b.stats.modeled_s == pytest.approx(
        dev.clock - clock0, **exact)
    # ... which is also what the scheduler billed them
    assert a.stats.service_s + b.stats.service_s == pytest.approx(
        dev.clock - clock0, **exact)
    assert dev.runtime.timeline.serial_s == pytest.approx(
        dev.clock, **exact)
    assert sum(dev.stats.modeled_s.values()) == pytest.approx(
        dev.clock, **exact)
    assert dev.stats.modeled_s.get("backoff", 0.0) == pytest.approx(
        plan.counters.backoff_s if plan else 0.0, **exact)


def _record(device) -> list:
    seen = []
    device.stats.attribution = lambda *call: seen.append(call)
    return seen


def test_interface_transfer_reaches_the_attribution_hook():
    """The ``quda`` non-device interface charges layout-change time
    outside the pool-copy paths; it is attributed like any copy."""
    dev = Device()
    seen = _record(dev)
    dev.charge_interface_transfer(1e-3, name="quda_layout_xfer")
    assert seen == [("h2d", "quda_layout_xfer", 1e-3, 0.0, 0)]
    assert dev.clock == dev.stats.modeled_transfer_time_s == 1e-3
    (span,) = dev.runtime.timeline.spans
    assert (span.lane, span.cat, span.duration_s) == ("h2d", "h2d", 1e-3)


def test_straggler_hang_reaches_the_attribution_hook():
    plan = FaultPlan(seed=11).add("rank.straggler", count=1,
                                  match="rank1:*")
    vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2), faults=plan,
                        resilience="detect")
    seen = [_record(c.device) for c in vm.contexts]
    g = vm.global_lattice
    f = vm.field(fermion(), "psi")
    f.from_global(np.ones((g.nsites, 4, 3), dtype=complex))
    vm.shift_into(vm.field(fermion(), "chi"), f, 3, +1)

    hang = plan.policy.straggler_hang_s
    hangs = [[c for c in calls if c[0] == "fault"] for calls in seen]
    assert hangs == [[], [("fault", "hang:rank1", hang, 0.0, 0)]]
    for ctx, calls in zip(vm.contexts, seen):
        dev = ctx.device
        assert sum(c[2] for c in calls) == pytest.approx(
            dev.clock, rel=1e-12)
        assert sum(dev.stats.modeled_s.values()) == pytest.approx(
            dev.clock, rel=1e-12)
    assert vm.contexts[1].device.stats.modeled_s["fault"] == hang
