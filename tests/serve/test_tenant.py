"""Cross-tenant JIT-cache sharing and strict stats/trace isolation."""

import numpy as np
import pytest

from repro.serve import Server, Tenant, cg_diag_workload, shift_sweep_workload

DIMS = (2, 2, 2, 4)


def test_cross_tenant_jit_cache_sharing():
    """The second tenant running the same workload shape compiles
    nothing: every kernel hits the shared cache, and the hits are
    counted as cross-tenant (compiled by someone else)."""
    srv = Server(policy="fifo")
    a = srv.tenant("alice")
    b = srv.tenant("bob")
    # FIFO: alice's whole session runs before bob's starts, so every
    # kernel bob needs was compiled (and is owned) by alice
    srv.submit(a, cg_diag_workload(dims=DIMS, seed=1, max_iter=15))
    srv.submit(b, cg_diag_workload(dims=DIMS, seed=2, max_iter=15))
    srv.drain()

    assert a.stats.jit_misses > 0
    assert b.stats.jit_misses == 0
    assert b.stats.jit_hits > 0
    assert b.stats.jit_shared_hits == b.stats.jit_hits
    assert a.stats.jit_shared_hits == 0
    assert srv.kernel_cache.cross_tenant_hits >= b.stats.jit_shared_hits
    # the global cache saw exactly the per-tenant splits
    assert (srv.kernel_cache.misses_by_tenant.get("alice", 0)
            == a.stats.jit_misses)
    assert (srv.kernel_cache.hits_by_tenant.get("bob", 0)
            == b.stats.jit_hits)


def test_distinct_workload_shapes_do_not_share():
    """Structurally different kernels stay distinct cache entries."""
    srv = Server(policy="fifo")
    a = srv.tenant("alice")
    b = srv.tenant("bob")
    srv.submit(a, cg_diag_workload(dims=DIMS, seed=1, max_iter=10))
    srv.submit(b, shift_sweep_workload(dims=DIMS, seed=2, sweeps=3))
    srv.drain()
    # the sweep's stencil kernel cannot come from the CG session
    assert b.stats.jit_misses > 0


def test_stats_isolation():
    """Per-tenant counters never bleed: each tenant's ctx.stats and
    TenantStats describe only its own work."""
    srv = Server(policy="fair")
    a = srv.tenant("alice", weight=2.0)
    b = srv.tenant("bob")
    sa = srv.submit(a, cg_diag_workload(dims=DIMS, seed=1, max_iter=15))
    sb = srv.submit(b, shift_sweep_workload(dims=DIMS, seed=2, sweeps=4))
    srv.drain()
    assert sa.state == sb.state == "done"

    # private context state: each tenant evaluated its own expressions
    assert a.ctx.stats.expressions_evaluated > 0
    assert b.ctx.stats.expressions_evaluated > 0
    assert a.ctx.stats is not b.ctx.stats
    assert a.ctx.module_cache is not b.ctx.module_cache

    # attributed device time: both got some, and the split sums to
    # the device total — every modeled second has exactly one owner
    assert a.stats.modeled_s > 0.0
    assert b.stats.modeled_s > 0.0
    assert a.stats.modeled_s + b.stats.modeled_s == pytest.approx(
        srv.device.clock, rel=1e-12)
    assert a.stats.launches > 0 and b.stats.launches > 0

    # field-cache events are the tenant's own cache's counters: every
    # tenant owns a private FieldCache, so no hook splits them
    for t in (a, b):
        c = t.ctx.field_cache.stats
        assert t.stats.cache_events == {
            "hit": c.hits, "miss": c.misses, "page_in": c.page_ins,
            "page_out": c.page_outs, "spill": c.spills}
        assert t.stats.cache_events["miss"] > 0

    # session accounting
    assert a.stats.sessions_completed == 1
    assert b.stats.sessions_completed == 1
    assert a.stats.service_s > 0.0 and b.stats.service_s > 0.0


def test_trace_isolation():
    """Tenant-filtered timeline views partition the shared trace."""
    srv = Server(policy="fair")
    a = srv.tenant("alice")
    b = srv.tenant("bob")
    srv.submit(a, cg_diag_workload(dims=DIMS, seed=1, max_iter=10))
    srv.submit(b, cg_diag_workload(dims=DIMS, seed=2, max_iter=10))
    srv.drain()

    all_spans = srv.device.runtime.timeline.spans
    a_spans = a.timeline().spans
    b_spans = b.timeline().spans
    assert a_spans and b_spans
    assert len(a_spans) + len(b_spans) == len(all_spans)
    assert all(sp.args.get("tenant") == "alice" for sp in a_spans)
    assert all(sp.args.get("tenant") == "bob" for sp in b_spans)
    # fair-share actually interleaved the two tenants on the device
    tags = [sp.args.get("tenant") for sp in all_spans]
    switches = sum(1 for x, y in zip(tags, tags[1:]) if x != y)
    assert switches >= 2


def test_results_unaffected_by_neighbors():
    """A tenant's answer is bitwise the answer it gets running alone."""
    solo = Server(policy="fair")
    t = solo.tenant("solo")
    s_solo = solo.submit(t, cg_diag_workload(dims=DIMS, seed=5,
                                             max_iter=20))
    solo.drain()

    busy = Server(policy="fair")
    x = busy.tenant("x")
    noisy = busy.tenant("noisy", weight=4.0)
    s_busy = busy.submit(x, cg_diag_workload(dims=DIMS, seed=5,
                                             max_iter=20))
    for seed in (31, 32):
        busy.submit(noisy, shift_sweep_workload(dims=DIMS, seed=seed,
                                                sweeps=3))
    busy.drain()

    assert np.array_equal(s_solo.result["x"], s_busy.result["x"])
    assert s_solo.result["residual"] == s_busy.result["residual"]


def test_tenant_registration_rules():
    srv = Server(policy="fair")
    srv.tenant("alice")
    try:
        srv.tenant("alice")
    except ValueError:
        pass
    else:
        raise AssertionError("duplicate tenant name must be rejected")
    try:
        Tenant("bad", None, weight=0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("non-positive weight must be rejected")


def test_serving_block():
    """``Server.as_json()`` — what ``bench_serving`` reads — over a
    default-policy two-tenant run of one CG shape: both sessions
    complete and the second tenant's kernels hit the shared cache."""
    srv = Server()
    a = srv.tenant("tenant-a", weight=2.0)
    b = srv.tenant("tenant-b")
    srv.submit(a, cg_diag_workload(dims=DIMS, seed=3, max_iter=8))
    srv.submit(b, cg_diag_workload(dims=DIMS, seed=4, max_iter=8))
    srv.drain()
    sv = srv.as_json()
    assert set(sv) == {"mode", "scheduler", "admission", "jit_cache",
                       "tenants", "sessions"}
    assert sv["mode"] == sv["scheduler"]["policy"] == "fair"
    assert sv["scheduler"]["decisions"] >= 2
    assert sv["scheduler"]["quantum_s"] > 0
    assert sv["admission"]["rejections"] == 0
    assert sv["jit_cache"]["kernels"] > 0
    assert sv["jit_cache"]["cross_tenant_hits"] >= 1
    assert set(sv["tenants"]) == {"tenant-a", "tenant-b"}
    assert sv["tenants"]["tenant-a"]["weight"] == 2.0
    for t in sv["tenants"].values():
        assert t["sessions_completed"] == t["sessions_submitted"] == 1
        assert t["launches"] > 0
        assert t["service_s"] > 0
    assert sv["sessions"]["sessions_completed"] == 2
    # isolation + conservation: per-tenant jit splits sum to the
    # global cache counters
    cache_total = (sum(sv["jit_cache"]["hits_by_tenant"].values())
                   + sum(sv["jit_cache"]["misses_by_tenant"].values()))
    tenant_total = sum(t["jit_hits"] + t["jit_misses"]
                       for t in sv["tenants"].values())
    assert cache_total == tenant_total
    # "off" reports itself as the mode over the FIFO scheduler it uses
    off = Server(policy="off").as_json()
    assert (off["mode"], off["scheduler"]["policy"]) == ("off", "fifo")
