"""One ledger: every modeled second goes through ``Device.charge``.

The device clock, the ``DeviceStats`` counters and the timeline spans
are three views of the same sum — fault-free and, where hand-kept
copies used to drift, under a fault plan whose recovery charges
backoff and retransmits.
"""

import functools
import operator

import numpy as np
import pytest

from repro.comm import VirtualMachine
from repro.core.context import Context
from repro.core.expr import shift
from repro.core.reduction import innerProduct, norm2
from repro.device import Device
from repro.faults import FaultPlan
from repro.faults.plan import parse_plan
from repro.qdp.fields import latt_fermion, latt_real
from repro.qdp.lattice import Lattice
from repro.qdp.typesys import fermion

DIMS = (4, 4, 4, 4)
#: each view is its own float accumulator: equal to rounding (the
#: drift this guards against was 1e-5 relative)
EXACT = dict(rel=1e-12, abs=0.0)


def _cg_diag(ctx, lat, rng, max_iter):
    """CG on ``A = diag(w)``: launches, folds, reductions and copies."""
    w = latt_real(lat, context=ctx)
    w.from_numpy(rng.uniform(0.5, 1.5, lat.nsites))
    b, x, r, p, ap = (latt_fermion(lat, context=ctx) for _ in range(5))
    b.gaussian(rng)
    b2 = norm2(b)
    r.assign(b.ref())
    p.assign(r.ref())
    rr = b2
    for _ in range(max_iter):
        ap.assign(w.ref() * p.ref())
        alpha = rr / innerProduct(p, ap).real
        x.assign(x + alpha * p)
        r.assign(r - alpha * ap)
        rr_new = norm2(r)
        if rr_new <= 1e-16 * b2:
            break
        p.assign(r + (rr_new / rr) * p)
        rr = rr_new
    return x.to_numpy()


def _shift_sweep(ctx, lat, rng, sweeps):
    """Nearest-neighbour averaging sweeps: the dslash gather pattern."""
    f, g = latt_fermion(lat, context=ctx), latt_fermion(lat, context=ctx)
    f.gaussian(rng)
    for _ in range(sweeps):
        terms = [shift(f.ref(), sign, mu)
                 for mu in range(len(lat.dims)) for sign in (+1, -1)]
        g.assign(functools.reduce(operator.add, terms) / len(terms))
        f, g = g, f
    return norm2(f)


@pytest.mark.parametrize("spec", [None, "seed=3,h2d=0.3",
                                  "seed=3,d2h=0.5", "seed=3,launch=0.2"])
def test_clock_counters_and_timeline_agree(spec):
    plan = parse_plan(spec) if spec else False
    ctx = Context(faults=plan)
    lat = Lattice(DIMS)
    _cg_diag(ctx, lat, np.random.default_rng(1), max_iter=15)
    _shift_sweep(ctx, lat, np.random.default_rng(2), sweeps=4)
    ctx.flush()
    if plan:
        # the plan really charged recovery time on this run
        assert plan.counters.backoff_s > 0.0 and plan.all_recovered()

    dev = ctx.device
    assert dev.clock > 0.0
    assert sum(dev.stats.modeled_s.values()) == pytest.approx(
        dev.clock, **EXACT)
    assert dev.runtime.timeline.serial_s == pytest.approx(
        dev.clock, **EXACT)
    assert dev.stats.modeled_s.get("backoff", 0.0) == pytest.approx(
        plan.counters.backoff_s if plan else 0.0, **EXACT)


def test_interface_transfer_is_one_h2d_span():
    """The ``quda`` non-device interface charges layout-change time
    outside the pool-copy paths; it is accounted like any copy."""
    dev = Device()
    dev.charge_interface_transfer(1e-3, name="quda_layout_xfer")
    assert dev.clock == dev.stats.modeled_transfer_time_s == 1e-3
    (span,) = dev.runtime.timeline.spans
    assert (span.lane, span.cat, span.name, span.duration_s) == (
        "h2d", "h2d", "quda_layout_xfer", 1e-3)


def test_straggler_hang_is_a_fault_span_on_its_rank():
    plan = FaultPlan(seed=11).add("rank.straggler", count=1,
                                  match="rank1:*")
    vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2), faults=plan,
                        resilience="detect")
    g = vm.global_lattice
    f = vm.field(fermion(), "psi")
    f.from_global(np.ones((g.nsites, 4, 3), dtype=complex))
    vm.shift_into(vm.field(fermion(), "chi"), f, 3, +1)

    hang = plan.policy.straggler_hang_s
    hangs = [[(s.name, s.duration_s)
              for s in c.device.runtime.timeline.spans if s.cat == "fault"]
             for c in vm.contexts]
    assert hangs == [[], [("hang:rank1", hang)]]
    for ctx in vm.contexts:
        dev = ctx.device
        assert sum(dev.stats.modeled_s.values()) == pytest.approx(
            dev.clock, **EXACT)
        assert dev.runtime.timeline.serial_s == pytest.approx(
            dev.clock, **EXACT)
    assert vm.contexts[1].device.stats.modeled_s["fault"] == hang
