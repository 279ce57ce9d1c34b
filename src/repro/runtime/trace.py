"""Chrome-trace export and the ``python -m repro.trace`` summary CLI.

:func:`chrome_trace` converts a :class:`~repro.runtime.timeline.Timeline`
into the Chrome Trace Event JSON format (the ``chrome://tracing`` /
Perfetto ``traceEvents`` array): one pseudo-thread per lane, one
complete (``"ph": "X"``) event per span, timestamps in microseconds.
Load the file at https://ui.perfetto.dev to *see* the copy–compute–comm
overlap the runtime models.

The CLI runs a representative workload (the fused-CG iteration of
``benchmarks/bench_fusion.py``, optionally under memory pressure so
the D2H writeback lane lights up), prints the per-lane utilization /
overlap / critical-path summary, and optionally writes the Chrome
trace::

    python -m repro.trace --lattice 8,8,8,8 --iters 10 --out cg-trace.json
"""

from __future__ import annotations

import argparse
import json
import sys

from .stream import StreamRuntime
from .timeline import Timeline

#: stable lane ordering for the trace's pseudo-threads
_LANE_ORDER = StreamRuntime.LANES


def _lane_tids(timeline: Timeline) -> dict[str, int]:
    lanes = sorted({s.lane for s in timeline.spans},
                   key=lambda x: (_LANE_ORDER.index(x)
                                  if x in _LANE_ORDER else len(_LANE_ORDER),
                                  x))
    return {lane: i for i, lane in enumerate(lanes)}


def chrome_trace(timeline: Timeline, pid: int = 0) -> dict:
    """The timeline as a Chrome Trace Event document (a dict)."""
    tids = _lane_tids(timeline)
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid,
         "args": {"name": "repro modeled device"}},
    ]
    for lane, tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": lane}})
    for s in timeline.spans:
        events.append({
            "ph": "X", "name": s.name, "cat": s.cat, "pid": pid,
            "tid": tids[s.lane],
            "ts": s.t0 * 1e6, "dur": s.duration_s * 1e6,
            "args": dict(s.args, deps=list(s.deps)),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(timeline: Timeline, path: str, pid: int = 0) -> None:
    """Write the Chrome-trace JSON for ``timeline`` to ``path``."""
    with open(path, "w") as f:
        json.dump(chrome_trace(timeline, pid=pid), f)


def summarize(timeline: Timeline, title: str = "timeline") -> str:
    """A text summary: per-lane busy time, overlap, critical path."""
    end = timeline.end_s
    busy = timeline.lane_busy()
    counts = timeline.lane_spans()
    lines = [f"-- {title} " + "-" * max(1, 58 - len(title))]
    lanes = sorted(busy, key=lambda x: (_LANE_ORDER.index(x)
                                        if x in _LANE_ORDER
                                        else len(_LANE_ORDER), x))
    for lane in lanes:
        util = busy[lane] / end if end else 0.0
        lines.append(f"  {lane:<8} {busy[lane] * 1e6:>12.1f} us busy"
                     f"  {counts[lane]:>6} span(s)  {util:>6.1%} of makespan")
    cp_s, chain = timeline.critical_path()
    lines.append(f"  makespan {end * 1e6:.1f} us; serial sum "
                 f"{timeline.serial_s * 1e6:.1f} us; overlap "
                 f"{timeline.overlap_fraction:.1%}")
    lines.append(f"  critical path {cp_s * 1e6:.1f} us over "
                 f"{len(chain)} span(s)")
    return "\n".join(lines)


def _run_cg_workload(dims, iters: int, pool_mib: float | None):
    """The fused-CG probe workload (same shape as bench_fusion).

    A handful of device-dirty bystander fields are produced first (and
    kept alive): under a small ``--pool-mib`` they become the LRU spill
    victims once the solver's working set wants their memory, which is
    what puts writeback traffic on the D2H lane.
    """
    import numpy as np

    from ..core.context import Context
    from ..qcd.solver import cg
    from ..qdp.fields import latt_fermion, latt_real
    from ..qdp.lattice import Lattice

    capacity = None if pool_mib is None else int(pool_mib * (1 << 20))
    ctx = Context(autotune=False, pool_capacity=capacity)
    lat = Lattice(dims)
    rng = np.random.default_rng(17)
    w = latt_real(lat, context=ctx)
    w.from_numpy(rng.uniform(0.5, 1.5, lat.nsites))
    b = latt_fermion(lat, context=ctx)
    b.gaussian(rng)
    bystanders = []
    for _ in range(4):
        e = latt_fermion(lat, context=ctx)
        e.assign(w.ref() * b.ref())
        bystanders.append(e)
    ctx.flush()
    x = latt_fermion(lat, context=ctx)
    cg(lambda dest, src: dest.assign(w.ref() * src.ref()),
       x, b, tol=0.0, max_iter=iters)
    ctx.flush()
    ctx._trace_keepalive = bystanders
    return ctx


def main(argv=None) -> int:
    from ..lint import _parse_dims

    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a fused-CG workload on the stream/event "
                    "runtime, print the per-lane overlap summary and "
                    "optionally export a Chrome trace (load it at "
                    "ui.perfetto.dev).")
    parser.add_argument("--lattice", type=_parse_dims, default=(4, 4, 4, 4),
                        metavar="X,Y,Z,T",
                        help="lattice extents (default 4,4,4,4)")
    parser.add_argument("--iters", type=int, default=8,
                        help="CG iterations to run (default 8)")
    parser.add_argument("--pool-mib", type=float, default=None,
                        help="device pool capacity in MiB; small values "
                             "force LRU spills so the D2H writeback "
                             "lane shows activity")
    parser.add_argument("--out", metavar="TRACE.json", default=None,
                        help="write the Chrome-trace JSON here")
    args = parser.parse_args(argv)

    ctx = _run_cg_workload(args.lattice, args.iters, args.pool_mib)
    timeline = ctx.device.runtime.timeline
    dims = "x".join(map(str, args.lattice))
    print(summarize(timeline,
                    title=f"fused CG, {args.iters} iteration(s), {dims}"))
    cs = ctx.field_cache.stats
    print(f"  field cache: {cs.hits} hit(s), {cs.misses} miss(es), "
          f"{cs.spills} spill(s), {cs.bytes_paged_out} bytes written "
          f"back, high water {cs.resident_bytes_hwm} bytes")
    if args.out:
        write_chrome_trace(timeline, args.out)
        print(f"  wrote Chrome trace: {args.out} "
              f"({len(timeline)} spans)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.trace
    sys.exit(main())
