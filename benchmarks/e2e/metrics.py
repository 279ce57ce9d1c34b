"""Metric names, units and bounds, and how each is derived from the raw
samples a benchmark child reports.

``BENCHMARK.json`` at the repository root lists exactly the names,
units, directions and bounds defined here (the smoke test compares
them).  Modeled quantities carry the unit ``modeled_s`` so that modeled
and measured seconds never share a column.
"""

from __future__ import annotations

import statistics

#: (name, unit, better, bound): what a user of the system sees.  The
#: bound is the share of the previous median by which the metric may
#: get worse before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_wall_s", "s", "lower", 0.25),
    ("warm_wall_s", "s", "lower", 0.25),
    ("recontext_wall_s", "s", "lower", 0.25),
    ("build_s_per_kernel", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("modeled_device_s", "modeled_s", "lower", 0.001),
)

#: spans on the build path run in the cold pass only; their ``calls``
#: are counted there, everyone else's in the first warm pass
BUILD_SPANS = ("core.codegen", "ir.prepare", "ptx.verify", "ptx.absint",
               "ptx.liveness", "ptx.render", "driver.parse", "driver.jit",
               "llvm.compile")
#: launch-path spans: (name, has a ``calls`` metric)
LAUNCH_SPANS = (("core.evaluate", True), ("core.fusion.flush", False),
                ("core.reduction", True), ("driver.backend_select", True),
                ("device.launch", True), ("device.kernel", False),
                ("memory.make_available", True), ("comm.exchange", True),
                ("comm.scatter", True), ("qdp.host_io", True),
                ("hmc.trajectory", False))


def _per_layer_table():
    rows = []
    for name in BUILD_SPANS:
        rows += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    for name, has_calls in LAUNCH_SPANS:
        if has_calls:
            rows.append((f"{name}.calls", "count", "lower"))
        rows += [(f"{name}.self_s", "s", "lower"),
                 (f"{name}.self_s.warm", "s", "lower")]
    rows += [
        ("core.fusion.groups", "count", "lower"),
        ("core.fusion.statements_per_group", "ratio", "higher"),
        ("core.module_cache.hit_ratio", "ratio", "higher"),
        ("ir.instrs_in", "count", "lower"),
        ("ir.instrs_out", "count", "lower"),
        ("ptx.render.bytes", "B", "lower"),
        ("ptx.verify.calls_per_kernel", "ratio", "lower"),
        ("driver.kernels_built", "count", "lower"),
        ("driver.cache.lookups", "count", "lower"),
        ("driver.cache.hit_ratio", "ratio", "higher"),
        ("driver.backend.fallbacks", "count", "lower"),
        ("llvm.code_cache.hit_ratio", "ratio", "higher"),
        ("device.kernel.share", "ratio", "higher"),
        ("device.reduce.calls", "count", "lower"),
        ("device.kernel.modeled_bytes", "B", "lower"),
        ("device.kernel.modeled_flops", "flop", "lower"),
        ("memory.hit_ratio", "ratio", "higher"),
        ("memory.page_in_bytes", "B", "lower"),
        ("memory.page_out_bytes", "B", "lower"),
        ("memory.spills", "count", "lower"),
        ("comm.halo_bytes", "B", "lower"),
        ("comm.messages", "count", "lower"),
        ("runtime.spans", "count", "lower"),
        ("runtime.overlap_fraction", "ratio", "higher"),
        ("runtime.warm_drift_ratio", "ratio", "lower"),
        ("qcd.solver.iterations", "count", "lower"),
        ("hmc.solver_iterations", "count", "lower"),
        ("host.untraced_self_s", "s", "lower"),
        ("host.untraced_self_s.warm", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unresolved", "count", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer_table()

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
BETTER = {row[0]: row[2] for row in END_TO_END + PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


def _pass(child, label, traced=False):
    for p in child["passes"]:
        if p["label"] == label and p["traced"] == traced:
            return p
    return None


def _ok_times(child, prefix, traced=False, key="nominal_s"):
    """Timing samples of the passes that passed their checks."""
    return [p[key] for p in child["passes"]
            if p["label"].startswith(prefix) and p["traced"] == traced
            and p.get("ok")]


def ops(child) -> tuple[int, int]:
    """(attempted, failed): one op per pass."""
    return (len(child["passes"]),
            sum(1 for p in child["passes"] if not p.get("ok")))


def exact_counts(child) -> dict:
    """Counts that must repeat exactly from run to run (and with or
    without tracing): if one moves, the result or the launch sequence
    moved."""
    traced = bool(child.get("spans"))
    cold = _pass(child, "cold", traced)
    warm = _pass(child, "warm1", traced)
    if not cold or not warm or cold["error"] or warm["error"]:
        return {}
    return {
        "driver.kernels_built": cold["counters"]["kernel_cache_misses"],
        "device.launch.calls": (warm["counters"]["kernel_launches"]
                                - warm["counters"]["fold_launches"]),
        "qcd.solver.iterations": warm["info"].get("solver_iterations", 0),
        "modeled_device_s": warm["counters"]["device_clock_s"],
    }


def end_to_end(child) -> dict:
    """Per-child end-to-end values from an untraced child.  Times are
    nominal seconds (see :mod:`pace`).  A failed pass contributes no
    timing sample; a metric with no sample left is ``None``."""
    out = dict.fromkeys(BOUNDS)
    out["setup_s"] = child["setup_s"]
    out["peak_rss_mib"] = child["peak_rss_mib"]
    cold = _pass(child, "cold")
    warm = _ok_times(child, "warm")
    rec = _pass(child, "recontext")
    if cold and cold.get("ok"):
        out["cold_wall_s"] = cold["nominal_s"]
    if warm:
        # the median, not the minimum: once the machine's pace is
        # divided out, what is left scatters to both sides
        out["warm_wall_s"] = statistics.median(warm)
    if rec and rec.get("ok"):
        out["recontext_wall_s"] = rec["nominal_s"]
    if out["cold_wall_s"] is not None and warm:
        built = cold["counters"]["kernel_cache_misses"]
        if built:
            out["build_s_per_kernel"] = (out["cold_wall_s"]
                                         - out["warm_wall_s"]) / built
    out["modeled_device_s"] = exact_counts(child).get("modeled_device_s")
    return out


def raw_info(child) -> dict:
    """Raw wall times beside the nominal ones: information."""
    warm = _ok_times(child, "warm", key="wall_s")
    out = {"warm_wall_s": warm, "probe": child.get("probe"),
           "setup_wall_s": child.get("setup_wall_s")}
    for label in ("cold", "recontext"):
        p = _pass(child, label)
        if p and p.get("ok"):
            out[f"{label}_wall_s"] = p["wall_s"]
    if len(warm) >= 2:
        q = statistics.quantiles(warm, n=4)
        out.update(warm_min_s=min(warm), warm_median_s=statistics.median(warm),
                   warm_iqr_s=q[2] - q[0])
    return out


def per_layer(child, workload: str) -> dict:
    """Per-layer values from a traced child (``None`` for a metric
    whose span-table entries no longer resolve)."""
    out = dict.fromkeys(name for name, *_ in PER_LAYER)
    spans = child["spans"]
    cold = _pass(child, "cold", traced=True)
    warm = _pass(child, "warm1", traced=True)
    if not cold or not warm or cold["error"] or warm["error"]:
        return out
    cc, wc = cold["counters"], warm["counters"]
    sc, sw = spans["cold"], spans["warm1"]

    def span(agg, name, key):
        return None if agg.get(name) is None else agg[name].get(key, 0)

    for name in BUILD_SPANS:
        out[f"{name}.calls"] = span(sc, name, "calls")
        out[f"{name}.self_s"] = span(sc, name, "self_s")
    for name, has_calls in LAUNCH_SPANS:
        if has_calls:
            out[f"{name}.calls"] = span(sw, name, "calls")
        out[f"{name}.self_s"] = span(sc, name, "self_s")
        out[f"{name}.self_s.warm"] = span(sw, name, "self_s")

    out["core.fusion.groups"] = wc["fusion_groups"]
    out["core.fusion.statements_per_group"] = _ratio(
        wc["fused_statements"], wc["fusion_groups"])
    out["core.module_cache.hit_ratio"] = _ratio(
        cc["module_cache_hits"],
        cc["module_cache_hits"] + cc["module_cache_misses"])
    out["ir.instrs_in"] = span(sc, "ir.prepare", "instrs_in")
    out["ir.instrs_out"] = span(sc, "ir.prepare", "instrs_out")
    out["ptx.render.bytes"] = span(sc, "ptx.render", "bytes")
    built = cc["kernel_cache_misses"]
    verify_calls = span(sc, "ptx.verify", "calls")
    out["ptx.verify.calls_per_kernel"] = (
        None if verify_calls is None else _ratio(verify_calls, built))
    out["driver.kernels_built"] = built
    out["driver.cache.lookups"] = (cc["kernel_cache_hits"]
                                   + cc["kernel_cache_misses"])
    out["driver.cache.hit_ratio"] = _ratio(
        cc["kernel_cache_hits"], out["driver.cache.lookups"])
    out["driver.backend.fallbacks"] = cc["backend_fallbacks"]
    out["llvm.code_cache.hit_ratio"] = _ratio(
        cc["llvm_cache_hits"],
        cc["llvm_cache_hits"] + cc["llvm_cache_misses"])
    # generated-kernel launches; the fixed-function folds are separate
    out["device.launch.calls"] = wc["kernel_launches"] - wc["fold_launches"]
    out["device.reduce.calls"] = wc["fold_launches"]
    kernel_warm = span(sw, "device.kernel", "self_s")
    out["device.kernel.share"] = (
        None if kernel_warm is None else _ratio(kernel_warm, warm["wall_s"]))
    out["device.kernel.modeled_bytes"] = span(sw, "device.launch",
                                              "modeled_bytes")
    out["device.kernel.modeled_flops"] = span(sw, "device.launch",
                                              "modeled_flops")
    out["memory.hit_ratio"] = _ratio(
        wc["memory_hits"], wc["memory_hits"] + wc["memory_misses"])
    out["memory.page_in_bytes"] = wc["page_in_bytes"]
    out["memory.page_out_bytes"] = wc["page_out_bytes"]
    out["memory.spills"] = wc["spills"]
    out["comm.halo_bytes"] = span(sw, "comm.exchange", "halo_bytes")
    out["comm.messages"] = span(sw, "comm.exchange", "messages")
    out["runtime.spans"] = wc["timeline_spans"]
    out["runtime.overlap_fraction"] = warm["overlap_fraction"]
    iterations = warm["info"].get("solver_iterations", 0)
    out["qcd.solver.iterations"] = iterations
    out["hmc.solver_iterations"] = iterations if workload == "hmc_traj" else 0
    out["host.untraced_self_s"] = cold["wall_s"] - sc["_covered_s"]
    out["host.untraced_self_s.warm"] = warm["wall_s"] - sw["_covered_s"]

    traced = _ok_times(child, "warm", traced=True)
    plain = _ok_times(child, "warm")
    if traced and plain:
        out["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    if len(plain) >= 6:
        # medians of the ends, not single samples: one pass here
        # scatters by more than any drift worth flagging
        out["runtime.warm_drift_ratio"] = (statistics.median(plain[-3:])
                                           / statistics.median(plain[:3]))
    elif plain:  # a single sample (smoke sizes) cannot drift
        out["runtime.warm_drift_ratio"] = plain[-1] / plain[0]
    out["trace.unresolved"] = len(child["unresolved"])
    return out
