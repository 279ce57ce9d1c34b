"""One ledger: every modeled second goes through ``Device.charge``.

The device clock, the ``DeviceStats`` counters and the timeline spans
are three views of the same sum — on one context and on every rank of
a virtual machine.
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


def _assert_one_ledger(dev):
    assert dev.clock > 0.0
    assert sum(dev.stats.modeled_s.values()) == pytest.approx(
        dev.clock, **EXACT)
    assert dev.runtime.timeline.serial_s == pytest.approx(
        dev.clock, **EXACT)


def test_clock_counters_and_timeline_agree():
    ctx = Context()
    lat = Lattice(DIMS)
    _cg_diag(ctx, lat, np.random.default_rng(1), max_iter=15)
    _shift_sweep(ctx, lat, np.random.default_rng(2), sweeps=4)
    ctx.flush()
    _assert_one_ledger(ctx.device)


def test_interface_transfer_is_one_h2d_span():
    """The ``quda`` non-device interface charges layout-change time
    outside the pool-copy paths; it is accounted like any copy."""
    dev = Device()
    dev.charge_interface_transfer(1e-3, name="quda_layout_xfer")
    assert dev.clock == dev.stats.modeled_s["transfer"] == 1e-3
    (span,) = dev.runtime.timeline.spans
    assert (span.lane, span.cat, span.name, span.duration_s) == (
        "h2d", "h2d", "quda_layout_xfer", 1e-3)


def test_every_rank_of_a_vm_keeps_one_ledger():
    """A 2-rank shift sweep: gathers, scatters, halo buffers and the
    interior fills each charge their rank's device, and each rank's
    three views agree."""
    vm = VirtualMachine((4, 4, 4, 8), (1, 1, 1, 2))
    g = vm.global_lattice
    rng = np.random.default_rng(5)
    f = vm.field(fermion(), "psi")
    f.from_global(rng.normal(size=(g.nsites, 4, 3))
                  + 1j * rng.normal(size=(g.nsites, 4, 3)))
    d = vm.field(fermion(), "chi")
    for s in range(3):
        vm.shift_into(d, f, (3 + s) % 4, +1)
        f, d = d, f
    f.to_global()
    for ctx in vm.contexts:
        _assert_one_ledger(ctx.device)
