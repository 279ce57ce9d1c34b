"""Multi-tenant serving: fair-share scheduling over one device pool.

Public surface:

* :class:`~repro.serve.server.Server` — the multiplexer (shared
  device + shared JIT cache + scheduler + admission control).
* :class:`~repro.serve.tenant.Tenant` / :class:`~repro.serve.tenant.
  Session` — the scheduled units, with strictly isolated stats.
* :class:`~repro.serve.server.AdmissionRejected` — typed submit-time
  rejection under memory pressure.
* :class:`~repro.serve.scheduler.FairShareScheduler` /
  :class:`~repro.serve.scheduler.FIFOScheduler` — the policies behind
  ``Server(policy="fair" | "fifo" | "off")``.
* :mod:`~repro.serve.workloads` — canned chunked workloads (CG,
  stencil sweeps) used by the tests and ``benchmarks/bench_serving``.
"""

from .scheduler import FairShareScheduler, FIFOScheduler, make_scheduler
from .server import AdmissionRejected, Server, ServingStats, SharedKernelCache
from .tenant import Session, Tenant, TenantStats
from .workloads import (
    cg_diag_workload,
    shift_sweep_workload,
    vm_shift_workload,
)

__all__ = [
    "AdmissionRejected",
    "FIFOScheduler",
    "FairShareScheduler",
    "Server",
    "ServingStats",
    "Session",
    "SharedKernelCache",
    "Tenant",
    "TenantStats",
    "cg_diag_workload",
    "make_scheduler",
    "shift_sweep_workload",
    "vm_shift_workload",
]
