"""One benchmark child: a fresh process that runs one workload.

Started by ``run.py`` (never by hand) with thread pools pinned to one
thread.  In order:

*setup*       interpreter start, ``import repro``, inputs from the seed
*cold pass*   a new ``Context`` A, everything built, one pass
*warm passes* in A on identical reset inputs, every cache warm
*recontext*   a brand-new ``Context`` B in this same, warm process
*checks*      bitwise agreement between passes, then the oracle

and one line ``E2E_RESULT {json}`` on stdout with the raw samples and
counter deltas; ``run.py`` turns those into metrics.  Every timed
interval is reported twice: raw wall seconds, and the nominal seconds
of :mod:`pace` (time measured against a probe that runs alongside).

A traced child (``--trace 1``) installs the span table of
:mod:`spans` before A exists, traces the cold pass, then alternates
traced and untraced warm passes (their ratio is the tracing overhead)
and skips the recontext pass.  End-to-end numbers are never taken from
a traced child.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: probes per calibration spin: about 0.2 s of fixed work before and
#: after the timed section; ``run.py`` uses its duration to flag rounds
#: that ran on a machine off its usual pace
CALIBRATION_PROBES = 200
#: keep sampling warm passes until they add up to this much time, so
#: that even a 30 ms pass is seen at more than one machine pace
MIN_WARM_TOTAL_S = 1.5
MAX_WARM_PASSES = 100


# -- counters: the program's own public stats objects -------------------------

def _per_context(ctx) -> dict:
    s, dev, fc = ctx.stats, ctx.device.stats, ctx.field_cache.stats
    kc = ctx.kernel_cache.stats
    return {
        "expressions_evaluated": s.expressions_evaluated,
        "reductions": s.reductions,
        "fusion_groups": s.fusion_groups,
        "fused_statements": s.fused_statements,
        "module_cache_hits": s.module_cache_hits,
        "module_cache_misses": s.module_cache_misses,
        "kernel_cache_hits": kc.hits,
        "kernel_cache_misses": kc.misses,
        "backend_fallbacks": s.backend.fallbacks,
        "kernel_launches": dev.kernel_launches,
        "fold_launches": dev.fold_launches,
        "modeled_kernel_bytes": dev.modeled_kernel_bytes,
        "wall_kernel_time_s": dev.wall_kernel_time_s,
        "device_clock_s": ctx.device.clock,
        "memory_hits": fc.hits,
        "memory_misses": fc.misses,
        "page_in_bytes": fc.bytes_paged_in,
        "page_out_bytes": fc.bytes_paged_out,
        "spills": fc.spills,
        "timeline_spans": len(ctx.device.runtime.timeline),
    }


def snapshot(contexts) -> dict:
    """Counter totals over ``contexts`` plus the one process-wide cache."""
    from repro.llvm.cputarget import code_cache_stats

    total = collections.Counter()
    for ctx in contexts:
        total.update(_per_context(ctx))
    llvm = code_cache_stats()
    total["llvm_cache_hits"] = llvm.hits
    total["llvm_cache_misses"] = llvm.misses
    return dict(total)


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def digest(result: dict) -> str:
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(result):
        h.update(key.encode())
        h.update(np.ascontiguousarray(result[key]).tobytes())
    return h.hexdigest()


# -- the child ----------------------------------------------------------------

class Child:
    def __init__(self, args, workload, inputs, tracer):
        self.args = args
        self.wl = workload
        self.inputs = inputs
        self.tracer = tracer
        self.passes: list[dict] = []
        #: digest -> (result, info) of the first pass that produced it
        self.distinct: dict[str, tuple] = {}

    @contextlib.contextmanager
    def _tracing(self, traced, label):
        if traced:
            self.tracer.enable(label)
        try:
            yield
        finally:
            if traced:
                self.tracer.disable()

    def run_pass(self, label, state=None, traced=False):
        """One pass; binds a new context first when ``state`` is None.
        Returns the state (None if the pass raised)."""
        wl = self.wl
        rec = {"label": label, "traced": traced, "error": None}
        self.passes.append(rec)
        fresh = state is None
        inputs = self.inputs
        if fresh and self.passes[0] is not rec:
            # context B gets regenerated inputs, sharing no buffer with A
            inputs = wl.generate(self.args.seed, self.args.smoke)
        before = {} if fresh else snapshot(wl.contexts(state))
        intervals = []
        try:
            if fresh:
                with self._tracing(traced, label):
                    t0 = time.perf_counter()
                    state = wl.bind(inputs)
                    intervals.append((t0, time.perf_counter()))
            wl.reset(state, inputs)  # the benchmark's own work: no spans
            with self._tracing(traced, label):
                t0 = time.perf_counter()
                result, info = wl.run(state)
                intervals.append((t0, time.perf_counter()))
        except Exception as exc:  # a failed op, reported as such
            rec["error"] = f"{type(exc).__name__}: {exc}"
            return None
        rec.update(wall_s=sum(b - a for a, b in intervals),
                   intervals=intervals, info=info,
                   counters=delta(snapshot(wl.contexts(state)), before),
                   overlap_fraction=wl.overlap_fraction(state))
        if len(self.passes) - 1 == self.args.corrupt_pass:
            import oracle

            result = oracle.corrupt(result)
        rec["digest"] = digest(result)
        self.distinct.setdefault(rec["digest"], (result, info))
        return state

    def check(self, state) -> None:
        """Mark every pass ok/failed: bitwise agreement with the
        majority of this child's passes, the oracle's tolerance, and
        (cpu backend) no fallback to sim."""
        done = [p for p in self.passes if p["error"] is None]
        counts = collections.Counter(p["digest"] for p in done)
        consensus = max(counts, key=lambda d: (counts[d],
                                               d == done[0]["digest"]))
        oracle_ok, details = {}, {}
        for dig, (result, info) in self.distinct.items():
            try:
                oracle_ok[dig], details[dig] = self.wl.check(
                    self.inputs, state, result, info)
            except Exception as exc:
                oracle_ok[dig] = False
                details[dig] = {"error": f"{type(exc).__name__}: {exc}"}
        cpu = self.wl.env.get("REPRO_BACKEND") == "cpu"
        for p in self.passes:
            if p["error"] is not None:
                p["ok"] = False
                continue
            p["bitwise"] = p["digest"] == consensus
            p["oracle"] = bool(oracle_ok[p["digest"]])
            p["ok"] = (p["bitwise"] and p["oracle"] and not (
                cpu and p["counters"]["backend_fallbacks"] > 0))
        self.oracle_detail = details.get(consensus, {})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt-pass", type=int, default=-1)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import workloads  # imports numpy and repro

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.generate(args.seed, args.smoke)
    setup_s = time.time() - args.spawn_time

    import pace

    probe = pace.PaceProbe()
    spin_before = probe.burst(CALIBRATION_PROBES)
    # no probe can run while the interpreter starts: setup is scaled by
    # the machine's pace in the 0.2 s right after it
    out = {"workload": wl.name, "seed": args.seed, "setup_wall_s": setup_s,
           "setup_s": setup_s * pace.NOMINAL_PROBE_S / probe.median_s()}
    if args.setup_only:
        print("E2E_RESULT " + json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(wl.name)
        tracer.install(extra_modules=[workloads])
    child = Child(args, wl, inputs, tracer)
    k = 1 if args.smoke else wl.warm_passes

    probe.start()
    state = child.run_pass("cold", traced=bool(tracer))
    if state is not None:
        i, warm_s = 0, 0.0
        while i < k or (not tracer and not args.smoke and i < MAX_WARM_PASSES
                        and warm_s < MIN_WARM_TOTAL_S):
            i += 1
            if tracer:
                child.run_pass(f"warm{i}", state, traced=True)
            child.run_pass(f"warm{i}", state)
            warm_s += child.passes[-1].get("wall_s", 0.0)
        if not tracer:
            child.run_pass("recontext")
    probe.stop()
    # before the oracle allocates anything of its own
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["spin_s"] = [spin_before, probe.burst(CALIBRATION_PROBES)]
    out["probe"] = {"median_s": probe.median_s(),
                    "samples": len(probe.durations)}
    for p in child.passes:
        if p["error"] is None:
            p["nominal_s"] = sum(probe.nominal(a, b)
                                 for a, b in p.pop("intervals"))

    if state is not None:
        child.check(state)
        out["oracle"] = child.oracle_detail
    else:  # the cold pass raised: nothing ran after it
        child.passes[0]["ok"] = False
    for p in child.passes:
        p.pop("digest", None)
    out["passes"] = child.passes
    if tracer:
        out["unresolved"] = tracer.unresolved
        out["spans"] = {label: tracer.aggregate(label)
                        for label in ("cold", "warm1")}
        out["span_count"] = len(tracer.spans)
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
    print("E2E_RESULT " + json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
