#!/usr/bin/env python3
"""The repository's end-to-end, per-layer host-time benchmark.

    python benchmarks/e2e/run.py [--workload NAME] [--seed 11]
                                 [--rounds 5 | --seconds S] [--trace [0|1]]
                                 [--compare baseline.json] [--repeat-check]

Runs the named workloads (default: all seven), each round in a fresh
single-threaded child process (see ``child.py`` for what a child does),
serially and round-robin over workloads so machine drift spreads evenly.
Prints every metric by name with its unit, checks every result against
an oracle that does not go through the pipeline, writes
``out/summary.json`` beside this file, and exits non-zero when a check
failed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (default) reports the end-to-end metrics, always with no
wrapper installed.  ``--trace 1`` runs one traced child per workload
instead and reports the per-layer metrics, plus a Chrome trace
``out/trace_<workload>.json``.

``--rounds N`` runs exactly N children per workload; ``--seconds S``
instead keeps starting children of a workload while they still fit in
S seconds (at least one, at most five).  The reported value of every
timed metric is the median over rounds of the per-child value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

DEFAULT_ROUNDS = 5
MAX_BUDGET_ROUNDS = 5
#: a workload's ``setup_s`` is the median of at least this many starts
MIN_SETUP_SAMPLES = 3
#: a round whose calibration spin is this far off the run's median ran
#: on a machine that was not the one the other rounds ran on
NOISY_SPIN = 0.15
MAX_RERUNS = 2
CHILD_TIMEOUT_S = 170


def child_env(extra: dict) -> dict:
    """Library defaults: no ``REPRO_*`` knob survives; one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.update(extra)
    return env


def spawn(wl, args, setup_only=False):
    """Run one child to completion; its result dict, or a dict with
    only ``crash`` set when it produced none."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", wl.name, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(args.out, f"trace_{wl.name}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if args.corrupt_pass >= 0:
        cmd += ["--corrupt-pass", str(args.corrupt_pass)]
    cmd += ["--spawn-time", repr(time.time())]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(wl.env), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"no result within {CHILD_TIMEOUT_S} s"}
    for line in proc.stdout.splitlines():
        if line.startswith("E2E_RESULT "):
            result = json.loads(line[len("E2E_RESULT "):])
            result["child_s"] = time.perf_counter() - t0
            return result
    tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
    return {"crash": f"exit code {proc.returncode}\n{tail}"}


def spin_of(child) -> float:
    return statistics.mean(child["spin_s"])


def run_set(wls, args) -> dict:
    """All children of one set of runs: ``{workload: [child, ...]}``
    plus ``"_setup"`` with the setup-only samples."""
    children = {wl.name: [] for wl in wls}
    if args.trace:
        for wl in wls:
            children[wl.name].append(spawn(wl, args))
    elif args.seconds is not None:
        for wl in wls:
            t0 = time.perf_counter()
            while True:
                children[wl.name].append(spawn(wl, args))
                last = children[wl.name][-1].get("child_s")
                if (last is None
                        or len(children[wl.name]) >= MAX_BUDGET_ROUNDS
                        or time.perf_counter() - t0 + last > args.seconds):
                    break
    else:
        for _ in range(args.rounds):
            for wl in wls:
                children[wl.name].append(spawn(wl, args))
        rerun_noisy(wls, children, args)
    setup = {}
    for wl in wls:
        have = sum(1 for c in children[wl.name] if "setup_s" in c)
        extra = [] if args.trace or args.smoke else [
            spawn(wl, args, setup_only=True)
            for _ in range(max(0, MIN_SETUP_SAMPLES - have))]
        setup[wl.name] = [c["setup_s"] for c in children[wl.name] + extra
                          if "setup_s" in c]
    children["_setup"] = setup
    return children


def rerun_noisy(wls, children, args) -> None:
    """Replace rounds that ran while the machine was off its own pace.

    The calibration spin is fixed work, so its duration is the
    machine's speed at that moment.  A round more than ``NOISY_SPIN``
    off the median spin of the whole run is run again, at most
    ``MAX_RERUNS`` times, and the attempt closest to the median kept.
    """
    spins = [spin_of(c) for cs in children.values() for c in cs
             if "spin_s" in c]
    if len(spins) < 3:
        return
    pace = statistics.median(spins)

    def off(child):
        return abs(spin_of(child) / pace - 1.0)

    for wl in wls:
        for i, child in enumerate(children[wl.name]):
            tries = 0
            while ("spin_s" in child and off(child) > NOISY_SPIN
                   and tries < MAX_RERUNS):
                tries += 1
                again = spawn(wl, args)
                if "spin_s" in again and off(again) < off(child):
                    child = again
            child["reruns"] = tries
            child["noisy"] = "spin_s" in child and off(child) > NOISY_SPIN
            children[wl.name][i] = child


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarise(wls, children, args) -> dict:
    import metrics

    out = {}
    for wl in wls:
        runs = children[wl.name]
        done = [c for c in runs if "crash" not in c]
        attempted = failed = 0
        for c in done:
            a, f = metrics.ops(c)
            attempted += a
            failed += f
        # a child that died produced no pass at all: one failed op
        attempted += len(runs) - len(done)
        failed += len(runs) - len(done)
        entry = {
            "why": wl.why, "rounds": len(runs),
            "attempted": attempted, "failed": failed,
            "crashes": [c["crash"] for c in runs if "crash" in c],
            "errors": sorted({p["error"] for c in done
                              for p in c["passes"] if p["error"]}),
            "noisy_rounds": sum(1 for c in done if c.get("noisy")),
            "spin_s": median_of([spin_of(c) for c in done]),
            "oracle": done[0].get("oracle", {}) if done else {},
            "exact": metrics.exact_counts(done[0]) if done else {},
        }
        if args.trace:
            entry["metrics"] = (metrics.per_layer(done[0], wl.name)
                                if done else {})
            entry["unresolved"] = done[0]["unresolved"] if done else []
        else:
            per_child = [metrics.end_to_end(c) for c in done]
            entry["metrics"] = {
                name: median_of([m[name] for m in per_child])
                for name in metrics.BOUNDS}
            entry["metrics"]["setup_s"] = median_of(
                children["_setup"][wl.name])
            entry["raw"] = [metrics.raw_info(c) for c in done]
        out[wl.name] = entry
    return out


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_summary(summary) -> None:
    import metrics

    for name, entry in summary.items():
        status = "ok" if not entry["failed"] else "FAILED"
        print(f"\n== {name}: {entry['rounds']} round(s), "
              f"ops {entry['attempted'] - entry['failed']}/"
              f"{entry['attempted']} {status}"
              + (f", {entry['noisy_rounds']} noisy"
                 if entry["noisy_rounds"] else ""))
        for text in entry["crashes"] + entry["errors"]:
            print(f"   ! {text}")
        for u in entry.get("unresolved", []):
            print(f"   trace.unresolved: {u}")
        for metric, value in entry["metrics"].items():
            bound = metrics.BOUNDS.get(metric)
            note = f"   [bound {bound:.1%}]" if bound is not None else ""
            print(f"   {metric:36s} {fmt(value):>14s} "
                  f"{metrics.UNITS[metric]}{note}")


def driver_line(summary) -> str:
    """The one-object result line: plain metric names for a single
    workload, ``workload.metric`` when several ran."""
    import metrics

    many = len(summary) > 1
    values = {}
    for name, entry in summary.items():
        for metric, value in entry["metrics"].items():
            key = f"{name}.{metric}" if many else metric
            # an unresolved span or a failed pass leaves no number;
            # ``correct``/``trace.unresolved`` say so
            values[key] = {"value": 0.0 if value is None else value,
                           "unit": metrics.UNITS[metric]}
    attempted = sum(e["attempted"] for e in summary.values())
    failed = sum(e["failed"] for e in summary.values())
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": values})


def worse_by(now, base, metric) -> float:
    """Share of ``base`` by which ``now`` is worse (negative: better)."""
    import metrics

    if not base:
        return 0.0 if now == base else float("inf")
    change = now / base - 1.0
    return change if metrics.BETTER[metric] == "lower" else -change


def print_against(summary, other, label) -> bool:
    """Per workload x metric: this run against ``other`` with the
    metric's bound beside it.  True when nothing is worse than its
    bound and the exact counts agree exactly."""
    import metrics

    fine = True
    print(f"\n{'workload':14s} {'metric':34s} {label:>12s} {'now':>12s} "
          f"{'ratio':>8s} {'bound':>7s}")
    for name, entry in summary.items():
        base = other.get(name)
        if base is None:
            continue
        for metric, now in entry["metrics"].items():
            was = base["metrics"].get(metric)
            if now is None or was is None:
                continue
            bound = metrics.BOUNDS.get(metric)
            over = bound is not None and worse_by(now, was, metric) > bound
            fine &= not over
            ratio = f"{now / was:8.3f}" if was else "     n/a"
            print(f"{name:14s} {metric:34s} {fmt(was):>12s} {fmt(now):>12s} "
                  f"{ratio} "
                  + (f"{bound:7.1%}" if bound is not None else "       ")
                  + ("  WORSE THAN BOUND" if over else ""))
        for metric, now in entry["exact"].items():
            was = base.get("exact", {}).get(metric)
            if was is not None and was != now:
                fine = False
                print(f"{name:14s} {metric:34s} {fmt(was):>12s} "
                      f"{fmt(now):>12s}  EXACT COUNT DIFFERS")
    return fine


def machine() -> dict:
    return {"cores": os.cpu_count(), "python": sys.version.split()[0],
            "platform": sys.platform}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="run only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=None,
                    help=f"children per workload (default {DEFAULT_ROUNDS})")
    ap.add_argument("--seconds", type=float, default=None,
                    help="instead of --rounds: keep starting children of a "
                         "workload while they fit in this many seconds")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: one traced child per workload, per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one warm pass: for the smoke test")
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for summary.json and the traces")
    ap.add_argument("--compare", metavar="BASELINE",
                    help="print per-metric ratios against a saved summary")
    ap.add_argument("--repeat-check", action="store_true",
                    help="run two full sets back to back and print how far "
                         "apart they are, next to each metric's bound")
    ap.add_argument("--corrupt-pass", type=int, default=-1,
                    help="self-test: corrupt this pass's result (0 = cold) "
                         "and expect it counted as failed")
    args = ap.parse_args()
    if args.rounds is None and args.seconds is None:
        args.rounds = DEFAULT_ROUNDS

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    unknown = set(args.workload or ()) - set(workloads.WORKLOADS)
    if unknown:
        ap.error(f"unknown workload(s) {sorted(unknown)}; choose from "
                 f"{list(workloads.WORKLOADS)}")
    wls = [w for n, w in workloads.WORKLOADS.items()
           if not args.workload or n in args.workload]
    os.makedirs(args.out, exist_ok=True)

    summary = summarise(wls, run_set(wls, args), args)
    fine = True
    if args.repeat_check:
        second = summarise(wls, run_set(wls, args), args)
        print_summary(summary)
        fine = print_against(second, summary, "first set")
        for name, entry in second.items():
            summary[name]["attempted"] += entry["attempted"]
            summary[name]["failed"] += entry["failed"]
    else:
        print_summary(summary)
    if args.compare:
        with open(args.compare) as f:
            print_against(summary, json.load(f)["workloads"], "baseline")

    kind = "trace" if args.trace else "summary"
    path = os.path.join(args.out, f"{kind}.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "traced": bool(args.trace),
                   "smoke": args.smoke, "machine": machine(),
                   "calibration_spin_s": median_of(
                       [e["spin_s"] for e in summary.values()]),
                   "workloads": summary}, f, indent=1)
    print(f"\nwrote {path}")
    print(driver_line(summary))
    failed = sum(e["failed"] for e in summary.values())
    return 0 if failed == 0 and fine else 1


if __name__ == "__main__":
    sys.exit(main())
