"""Scheduler policies, admission control and the server's policy."""

import warnings

import numpy as np
import pytest

from repro import diagnostics
from repro.serve import (AdmissionRejected, FairShareScheduler,
                         FIFOScheduler, Server, Session, Tenant,
                         cg_diag_workload, make_scheduler)

DIMS = (2, 2, 2, 4)


def _dummy_session(tenant, name):
    return Session(tenant, workload=None, name=name)


# -- pure scheduler logic ----------------------------------------------


def test_fifo_serves_in_submission_order():
    sched = FIFOScheduler()
    a = Tenant("a", None)
    sessions = [_dummy_session(a, f"s{i}") for i in range(3)]
    for s in sessions:
        sched.add(s)
    order = []
    while sched.pending:
        s, budget = sched.next()
        assert budget == float("inf")
        order.append(s.name)
        sched.charge(s, 1.0)
        sched.remove(s)
    assert order == ["s0", "s1", "s2"]
    assert a.stats.service_s == 3.0


def test_drr_respects_weights():
    """Weight-2 tenant gets twice the service per round."""
    sched = FairShareScheduler(quantum_s=1.0)
    heavy = Tenant("heavy", None, weight=2.0)
    light = Tenant("light", None, weight=1.0)
    sh = _dummy_session(heavy, "h")
    sl = _dummy_session(light, "l")
    sched.add(sh)
    sched.add(sl)
    visits = []
    for _ in range(6):
        s, budget = sched.next()
        visits.append((s.tenant.name, budget))
        sched.charge(s, budget)   # use the whole grant
    # alternating rounds, heavy granted 2x the light grant
    assert visits == [("heavy", 2.0), ("light", 1.0)] * 3
    assert heavy.stats.service_s == 2.0 * light.stats.service_s


def test_drr_does_not_bank_idle_deficit():
    """A tenant that went idle re-enters with a clean deficit — it
    cannot burst past active tenants with banked credit."""
    sched = FairShareScheduler(quantum_s=1.0)
    a = Tenant("a", None, weight=5.0)
    b = Tenant("b", None, weight=1.0)
    sa = _dummy_session(a, "sa")
    sched.add(sa)
    s, budget = sched.next()
    sched.charge(s, 0.5)          # a leaves with deficit 4.5 banked
    sched.remove(sa)              # ...but retiring forfeits it
    sched.add(_dummy_session(b, "sb"))
    sched.add(_dummy_session(a, "sa2"))
    s, budget = sched.next()
    assert s.tenant.name == "b"   # b was first back in the round
    sched.charge(s, budget)
    s, budget = sched.next()
    assert s.tenant.name == "a"
    assert budget == 5.0          # one fresh quantum, nothing banked


def test_make_scheduler_mapping():
    assert isinstance(make_scheduler("fair"), FairShareScheduler)
    assert isinstance(make_scheduler("fifo"), FIFOScheduler)
    assert isinstance(make_scheduler("off"), FIFOScheduler)
    with pytest.raises(ValueError):
        make_scheduler("round-robin")
    with pytest.raises(ValueError):
        FairShareScheduler(quantum_s=0.0)


# -- admission control --------------------------------------------------


def test_admission_rejects_impossible_footprint():
    srv = Server(policy="fair", mem_budget=1000)
    t = srv.tenant("t")
    with pytest.raises(AdmissionRejected) as exc:
        srv.submit(t, cg_diag_workload(dims=DIMS), mem_bytes=2000)
    assert exc.value.tenant == "t"
    assert exc.value.requested == 2000
    assert exc.value.budget == 1000
    diag = exc.value.diagnostic
    assert diag.pass_name == "admission-control"
    assert srv.stats.admission_rejections == 1
    assert t.stats.sessions_rejected == 1


def test_admission_queues_until_memory_frees():
    """A session that does not fit *now* queues and runs later."""
    budget = 100_000
    srv = Server(policy="fifo", mem_budget=budget)
    t = srv.tenant("t")
    s1 = srv.submit(t, cg_diag_workload(dims=DIMS, seed=1, max_iter=10),
                    mem_bytes=70_000)
    s2 = srv.submit(t, cg_diag_workload(dims=DIMS, seed=2, max_iter=10),
                    mem_bytes=70_000)
    assert s2.state == "queued"
    assert srv.stats.admission_queued == 1
    srv.drain()
    assert s1.state == s2.state == "done"
    # the queued session only started after the first released memory
    assert s2.started_s >= s1.completed_s
    assert srv._reserved == 0


def test_runtime_spill_failure_is_isolated():
    """A tenant whose working set genuinely cannot fit fails alone:
    the co-tenant completes with the bitwise-correct answer."""
    # (4,4,4,4) fermions are 48 KiB each; a fused CG statement pins
    # three of them, which can never fit a 64 KiB pool.  The small
    # (2,2,2,4) solve (6 KiB fields) fits comfortably.
    srv = Server(policy="fair", pool_capacity=64 * 1024)
    small = srv.tenant("small")
    big = srv.tenant("big")
    s_small = srv.submit(small, cg_diag_workload(dims=DIMS, seed=5,
                                                 max_iter=20))
    s_big = srv.submit(big, cg_diag_workload(dims=(4, 4, 4, 4), seed=6,
                                             max_iter=20))
    srv.drain()

    assert s_big.state == "rejected"
    assert "memory admission failure" in s_big.error
    assert big.stats.sessions_rejected == 1
    assert srv.stats.admission_rejections == 1
    assert s_small.state == "done"

    solo = Server(policy="fair", pool_capacity=64 * 1024)
    t = solo.tenant("solo")
    s_solo = solo.submit(t, cg_diag_workload(dims=DIMS, seed=5,
                                             max_iter=20))
    solo.drain()
    assert np.array_equal(s_small.result["x"], s_solo.result["x"])
    assert s_small.result["residual"] == s_solo.result["residual"]

    # the failed tenant's pending fused statements were discarded:
    # nothing left to poison a later session on the same tenant
    assert not big.ctx.fusion.groups
    s_retry = srv.submit(small, cg_diag_workload(dims=DIMS, seed=5,
                                                 max_iter=20))
    srv.drain()
    assert s_retry.state == "done"
    assert np.array_equal(s_retry.result["x"], s_solo.result["x"])


def test_arrivals_respect_the_virtual_clock():
    """A session with a future arrival waits; the server idles
    forward when nothing else is runnable."""
    srv = Server(policy="fair")
    t = srv.tenant("t")
    s1 = srv.submit(t, cg_diag_workload(dims=DIMS, seed=1, max_iter=5))
    s2 = srv.submit(t, cg_diag_workload(dims=DIMS, seed=2, max_iter=5),
                    arrival_s=1.0)
    srv.drain()
    assert s1.state == s2.state == "done"
    assert s2.started_s >= 1.0
    assert srv.stats.idle_s > 0.0
    assert s2.latency_s < s2.completed_s  # measured from arrival


# -- the policy is a constructor argument, not a knob --------------------


def test_server_resolves_policy_from_knob(monkeypatch):
    """The name is historical: ``REPRO_SERVE`` is gone, so the policy
    is whatever the constructor was given, ``fair`` by default."""
    monkeypatch.setenv("REPRO_SERVE", "fifo")
    assert Server().policy == "fair"
    monkeypatch.delenv("REPRO_SERVE", raising=False)
    assert Server().policy == "fair"
    assert Server(policy="fifo").policy == "fifo"
    assert Server(policy="off").admission_enabled is False
    for unknown in ("least-laxity", "on"):
        with pytest.raises(ValueError):
            Server(policy=unknown)


def test_leftover_serve_knob_is_announced_once_per_context(monkeypatch):
    from repro.core.context import Context

    monkeypatch.setattr(diagnostics, "_warned", set())
    monkeypatch.setenv("REPRO_SERVE", "fifo")
    with pytest.warns(RuntimeWarning, match="REPRO_SERVE='fifo': no such "
                                            "knob") as caught:
        Context()
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Context()          # once per distinct (name, value) per process
    monkeypatch.setattr(diagnostics, "_warned", set())
    with pytest.warns(RuntimeWarning, match="REPRO_SERVE"):
        Server().tenant("t")      # a tenant is a Context
