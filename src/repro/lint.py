"""``python -m repro.lint`` — static-analysis report for the kernel suite.

Builds the framework's standard kernels on a small lattice — the
Wilson dslash, the packed clover operator, the reduction kernels
(``norm2``, ``innerProduct``, ``sum_sites``) and the halo
gather/scatter copies — and runs the full PTX verifier pass pipeline
(:mod:`repro.ptx.verifier`) over every generated module, plus the
expression-AST lint (:mod:`repro.core.lint`) over the operators'
defining expressions.

Each kernel is analyzed under the :class:`~repro.ptx.absint.KernelEnv`
recorded with it (``ModuleEntry.env``) — actual region
sizes, scalar parameter values, and gather-table contents — so the
report states *proven* facts per kernel: bounds verdicts,
transactions/warp and memory efficiency from the coalescing model,
divergent branches, register pressure, and the static occupancy seed
the auto-tuner starts from.

``--json`` emits the same report as a single JSON document (schema
below) for CI consumption.

Exit status:

``0``
    No error-severity diagnostic found.
``1``
    At least one error-severity diagnostic.
``2``
    Usage error (bad command line), per argparse convention.

JSON schema (``schema_version`` 9)::

    {
      "schema_version": 9,
      "lattice": [int, ...],
      "passes": [str, ...],            # PTX verifier pass names
      "ast_passes": [str, ...],        # expression-AST lint pass names
      "kernels": [
        {
          "name": str,
          "instructions": int,
          "regs_per_thread": int,
          "static_block_seed": int,    # auto-tuner starting block
          "bounds": {
            "verdicts": {str: int},    # proven/oob/guarded/unguarded
            "proven": bool,            # every access proven in-bounds
            "heuristic_fallbacks": int
          },
          "coalescing": {
            "transactions_per_warp": float,
            "ideal_transactions_per_warp": float,
            "memory_efficiency": float,
            "fully_coalesced": bool
          },
          "divergence": {"branches": int, "divergent": int},
          "diagnostics": [
            {"severity": str, "pass": str, "message": str,
             "location": str}, ...
          ]
        }, ...
      ],
      "ast_findings": [ same shape as "diagnostics" entries ],
      "module_cache": {                # structural generated-kernel cache
        "hits": int, "misses": int
      },
      "fusion": {                      # deferred-evaluation engine
        "groups": int,                 # multi-statement kernels launched
        "fused_statements": int        # statements they covered
      },
      "runtime": {                     # stream/event runtime timeline
        "streams": "on" | "off",       # the REPRO_STREAMS mode it ran in
        "elapsed_s": float,            # makespan over all lanes
        "serial_s": float,             # serial sum of every span
        "overlap_fraction": float,     # 1 - elapsed/serial
        "critical_path_s": float,
        "lane_busy_s": {str: float}    # busy seconds per lane
      },
      "cache": {                       # field software-cache counters
        "hits": int, "misses": int,
        "page_ins": int, "page_outs": int,
        "spills": int, "evictions_clean": int,
        "bytes_paged_in": int, "bytes_paged_out": int,
        "resident_bytes_hwm": int
      },
      "faults": {                      # fault injection & recovery
        "mode": "off" | "plan",        # whether a REPRO_FAULTS plan ran
        "injected": int, "recovered": int,
        "retries": int, "backoff_s": float,
        "solver_restarts": int
      },
      "backend": {                     # execution backends (REPRO_BACKEND)
        "mode": str,                   # resolved knob value ("sim"/"cpu")
        "kernels": {str: int},         # backend -> kernels built for it
        "compile_seconds": {str: float},
        "launches": {str: int},        # backend -> launches through it
        "fallbacks": int,              # non-sim builds that degraded
        "fallback_kernels": {str: str},# kernel -> unsupported construct
        "wall_s_by_family": {str: float}  # measured host wall-clock per
                                       # kernel family (eval/fus/red/...)
      },
      "ir": {                          # SSA structural check (repro.ir)
        "modules_verified": int        # generated modules checked
      },
      "serving": {                     # multi-tenant layer (REPRO_SERVE)
        "mode": "fair" | "fifo" | "off",
        "scheduler": {"policy": str, "decisions": int,
                      "quantum_s": float},
        "admission": {"budget_bytes": int, "queued": int,
                      "rejections": int},
        "jit_cache": {                 # shared compiled-kernel cache
          "kernels": int, "cross_tenant_hits": int,
          "hits_by_tenant": {str: int}, "misses_by_tenant": {str: int}
        },
        "tenants": {str: {...}},       # TenantStats.as_json() + weight
        "sessions": {                  # server-wide session accounting
          "decisions": int, "admission_queued": int,
          "admission_rejections": int, "sessions_submitted": int,
          "sessions_completed": int, "idle_s": float
        }
      },
      "resilience": {                  # rank fault tolerance
        "mode": "off" | "detect" | "recover",  # REPRO_RESILIENCE
        "policy": "buddy" | "shrink" | null,   # null when mode is off
        "kills_injected": int,         # fired rank.kill faults
        "stragglers_injected": int,    # fired rank.straggler faults
        "stragglers_flagged": int,     # ranks the detector flagged
        "detections": int,             # dead ranks detected
        "recoveries_by_policy": {str: int},
        "recovery_modeled_s": float,   # fault-lane seconds charged
        "checkpoints": int,            # buddy checkpoint refreshes
        "checkpoint_bytes": int,
        "restored_payloads": int       # payloads re-materialized
      },
      "summary": {
        "kernels": int, "diagnostics": int,
        "errors": int, "warnings": int, "notes": int,
        "worst": str | null,           # "note"/"warning"/"error"
        "status": "ok" | "fail"
      }
    }
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

from .core.lint import LINT_PASSES, lint_assignment
from .diagnostics import Severity, warn_unknown_knobs
from .ptx.verifier import PASSES, run_passes


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.replace("x", ",").split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad lattice {text!r}: need comma/x-separated extents >= 2")
    if not dims or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError(
            f"bad lattice {text!r}: need comma/x-separated extents >= 2")
    return dims


_parse_dims.__name__ = "lattice"   # argparse error messages use the name


def _build_kernel_suite(dims: tuple[int, ...]):
    """Run the built-in operators once; return (ctx, lat, ast_findings).

    Every kernel built along the way lands in ``ctx.module_cache``
    (and the face copies are built explicitly), so afterwards the
    caller can verify the complete generated-kernel population.
    """
    import numpy as np

    from .core.context import Context
    from .core.reduction import innerProduct, norm2, sum_sites
    from .qcd.cloverop import CloverOperator, CloverParams
    from .qcd.dslash import WilsonDslash, dslash_expr
    from .qcd.gauge import weak_gauge
    from .qdp.fields import latt_complex, latt_fermion
    from .qdp.lattice import Lattice

    ctx = Context(autotune=False)
    lat = Lattice(dims)
    rng = np.random.default_rng(7)
    u = weak_gauge(lat, rng, eps=0.3, context=ctx)

    psi = latt_fermion(lat, context=ctx)
    psi.gaussian(rng)
    chi = latt_fermion(lat, context=ctx)
    dest = latt_fermion(lat, context=ctx)

    # dslash (both signs exercise both projector sets)
    dslash = WilsonDslash(u)
    dslash(dest, psi)
    dslash(chi, psi, sign=-1)

    # clover operator (site-diagonal clover + hopping term)
    clov = CloverOperator(u, CloverParams(kappa=0.12, clover_coeff=1.0))
    clov.apply(dest, psi)
    clov.apply_dagger(chi, psi)

    # reductions (sum needs a scalar-shaped expression)
    norm2(psi, context=ctx)
    innerProduct(chi, psi, context=ctx)
    z = latt_complex(lat, context=ctx)
    z.gaussian(rng)
    sum_sites(z.ref() * z.ref(), context=ctx)

    # drain the deferred-evaluation queue: pending statements (fused
    # kernels included) must land in module_cache before verification
    ctx.flush()

    # AST lint over the operator-defining expressions (raw view:
    # no destination aliasing is expected, so findings are notes)
    ast_findings = lint_assignment(dest, dslash_expr(u, psi))

    return ctx, lat, ast_findings


def _suite_modules(ctx, lat, precision: str = "f64"):
    """(module, compiled, env) for every kernel the suite built, plus
    the halo face copies bound to a t-face of the same lattice.

    The face copies are analyzed against the face normal to the
    slowest-varying (t) dimension — a contiguous site run, which is
    the direction the paper splits the lattice in.
    """
    from .comm.faces import build_gather_kernel, build_scatter_kernel, face_env

    out = [(e.module, e.compiled, e.env) for e in ctx.module_cache.values()]

    t_face = lat.face_sites(lat.nd - 1, +1)
    for kind, build in (("gather", build_gather_kernel),
                        ("scatter", build_scatter_kernel)):
        module, compiled = ctx.build_kernel(build(24, precision),
                                            charge_jit=False)
        env = face_env(kind, 24, precision, lat.nsites, t_face)
        out.append((module, compiled, env))
    return out


def _serving_mini_run(dims: tuple[int, ...] = (2, 2, 2, 4)):
    """A tiny two-tenant serving run under the current REPRO_SERVE
    mode; returns the :class:`~repro.serve.Server` for its report.

    Two tenants solve the same CG shape so the report demonstrates the
    shared-JIT-cache economics (the second tenant's kernels are all
    cross-tenant hits) alongside the scheduler and admission counters.
    """
    from .diagnostics import serve_mode
    from .serve import Server, cg_diag_workload

    srv = Server(policy=serve_mode())
    a = srv.tenant("tenant-a", weight=2.0)
    b = srv.tenant("tenant-b")
    srv.submit(a, cg_diag_workload(dims=dims, seed=3, max_iter=8))
    srv.submit(b, cg_diag_workload(dims=dims, seed=4, max_iter=8))
    srv.drain()
    return srv


def _resilience_mini_run(global_dims=(2, 2, 2, 4),
                         grid_dims=(1, 1, 1, 2)) -> dict:
    """A tiny two-rank VM run under the current ``REPRO_RESILIENCE``
    mode; returns the resilience JSON block (zeros when off).

    One boundary-crossing shift per dimension drives the exchange
    barrier — where buddy checkpoints refresh and rank faults are
    drawn — so a ``REPRO_RESILIENCE=recover`` run with a
    ``REPRO_FAULTS`` plan carrying ``rank.kill`` specs surfaces its
    kill/recovery counters here.
    """
    import numpy as np

    from .comm import VirtualMachine
    from .diagnostics import resilience_mode
    from .qdp.typesys import fermion
    from .resilience import ResilienceStats

    vm = VirtualMachine(global_dims, grid_dims)
    g = vm.global_lattice
    rng = np.random.default_rng(11)
    data = (rng.normal(size=(g.nsites,) + (4, 3))
            + 1j * rng.normal(size=(g.nsites,) + (4, 3)))
    f = vm.field(fermion(), "psi")
    f.from_global(data)
    d = vm.field(fermion(), "chi")
    for mu in range(len(global_dims)):
        vm.shift_into(d, f, mu, +1)
        f, d = d, f
    if vm.resilience is not None:
        return vm.resilience.as_json()
    return {"mode": resilience_mode(), "policy": None,
            **ResilienceStats().as_json()}


def _wall_by_family(per_kernel_wall_s: dict) -> dict:
    """Aggregate measured per-kernel wall-clock by kernel family.

    Generated kernel names are ``<family>_<hash>`` (eval/fus/red/
    gather/scatter...); the family is what is comparable across runs —
    the hash suffix changes with lattice size and expression shape.
    """
    out: dict[str, float] = {}
    for name, secs in per_kernel_wall_s.items():
        fam = name.split("_")[0]
        out[fam] = out.get(fam, 0.0) + secs
    return out


def _diag_json(d) -> dict:
    return {"severity": d.severity.label, "pass": d.pass_name,
            "message": d.message, "location": d.location}


def _kernel_report(module, compiled, env, spec):
    """Analyze one kernel; return (facts-dict, diagnostics)."""
    from .device.autotune import static_block_seed
    from .ptx.absint import analyze_module
    from .ptx.cfg import build_cfg

    cfg = build_cfg(list(module.instructions))
    analysis = analyze_module(module, env=env, cfg=cfg)
    diagnostics = run_passes(module, env=env, analysis=analysis, cfg=cfg)
    regs = getattr(compiled, "regs_per_thread", None) or analysis.max_live_regs
    verdicts: dict[str, int] = {}
    for a in analysis.accesses:
        verdicts[a.verdict] = verdicts.get(a.verdict, 0) + 1
    record = {
        "name": module.name,
        "instructions": len(module.instructions),
        "regs_per_thread": regs,
        "static_block_seed": static_block_seed(spec, regs),
        "bounds": {
            "verdicts": verdicts,
            "proven": analysis.bounds_proven,
            "heuristic_fallbacks": analysis.n_heuristic,
        },
        "coalescing": {
            "transactions_per_warp": analysis.transactions_per_warp,
            "ideal_transactions_per_warp":
                analysis.ideal_transactions_per_warp,
            "memory_efficiency": analysis.memory_efficiency,
            "fully_coalesced": analysis.fully_coalesced,
        },
        "divergence": {
            "branches": len(analysis.branches),
            "divergent": len(analysis.divergent_branches),
        },
        "diagnostics": [_diag_json(d) for d in diagnostics],
    }
    return record, diagnostics


def _severity_counts(diagnostics) -> dict[Severity, int]:
    counts = {s: 0 for s in Severity}
    for d in diagnostics:
        counts[d.severity] += 1
    return counts


def _facts_line(record: dict) -> str:
    b, c, v = record["bounds"], record["coalescing"], record["divergence"]
    n_acc = sum(b["verdicts"].values())
    if b["proven"]:
        bounds = f"bounds proven ({n_acc}/{n_acc})"
    else:
        bounds = "bounds " + ",".join(
            f"{n} {verdict}" for verdict, n in sorted(b["verdicts"].items()))
    coal = (f"eff={c['memory_efficiency']:.2f} "
            f"({c['transactions_per_warp']:.0f} tx/warp, "
            f"ideal {c['ideal_transactions_per_warp']:.0f})")
    div = f"{v['divergent']}/{v['branches']} divergent"
    return (f"{bounds}; {coal}; {div}; "
            f"{record['regs_per_thread']} regs -> "
            f"block seed {record['static_block_seed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Verify the built-in kernel suite with the PTX "
                    "pass pipeline and the expression-AST lint.  "
                    "Exit status: 0 clean, 1 error-severity findings, "
                    "2 usage error.")
    parser.add_argument("--lattice", type=_parse_dims, default=(4, 4, 4, 4),
                        metavar="X,Y,Z,T",
                        help="lattice extents (default 4,4,4,4)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as a JSON document "
                             "(schema_version 9; see module docstring)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every diagnostic, notes included")
    args = parser.parse_args(argv)

    text = not args.json
    if text:
        print(f"repro.lint: PTX verifier passes: {', '.join(PASSES)}")
        print(f"repro.lint: AST lint passes:     {', '.join(LINT_PASSES)}")
        print(f"repro.lint: building kernel suite on lattice "
              f"{'x'.join(map(str, args.lattice))} ...")

    # The build itself runs under the REPRO_VERIFY hooks; anything the
    # hooks warn about is re-reported below, so keep the build quiet —
    # except a stale knob name, which nothing below would report.
    warn_unknown_knobs()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ctx, lat, ast_findings = _build_kernel_suite(args.lattice)
        suite = _suite_modules(ctx, lat)
        serving = _serving_mini_run()
        resilience = _resilience_mini_run()

    worst = Severity.NOTE
    n_diags = 0
    counts_total = {s: 0 for s in Severity}
    kernels = []
    if text:
        print(f"\n-- PTX verifier: {len(suite)} kernel(s) "
              f"x {len(PASSES)} passes " + "-" * 20)
    for module, compiled, env in suite:
        record, diagnostics = _kernel_report(module, compiled, env,
                                             ctx.device.spec)
        kernels.append(record)
        n_diags += len(diagnostics)
        counts = _severity_counts(diagnostics)
        for s, n in counts.items():
            counts_total[s] += n
        if diagnostics:
            worst = max(worst, max(d.severity for d in diagnostics))
        if not text:
            continue
        if diagnostics:
            summary = ", ".join(f"{counts[s]} {s.label}" for s in
                                sorted(counts, reverse=True) if counts[s])
        else:
            summary = "clean"
        print(f"  {record['name']:<44} {record['instructions']:>6} insts"
              f"  {summary}")
        print(f"      {_facts_line(record)}")
        for d in diagnostics:
            if args.verbose or d.severity >= Severity.WARNING:
                print(f"      {d.render()}")

    if text:
        print("\n-- AST lint: operator expressions " + "-" * 20)
        if not ast_findings:
            print("  dslash expression: clean")
    n_diags += len(ast_findings)
    for d in ast_findings:
        worst = max(worst, d.severity)
        counts_total[d.severity] += 1
        if text:
            print(f"  {d.render()}")

    failed = worst >= Severity.ERROR
    timeline = ctx.device.runtime.timeline
    cache = ctx.field_cache.stats
    if text:
        print(f"\n-- caches " + "-" * 44)
        print(f"  module cache: {ctx.stats.module_cache_hits} hit(s), "
              f"{ctx.stats.module_cache_misses} miss(es)")
        print(f"  fusion: {ctx.stats.fusion_groups} fused group(s) "
              f"covering {ctx.stats.fused_statements} statement(s)")
        print(f"  field cache: {cache.hits} hit(s), {cache.misses} "
              f"miss(es), {cache.spills} spill(s), high water "
              f"{cache.resident_bytes_hwm} bytes")
        print(f"\n-- runtime (REPRO_STREAMS="
              f"{'on' if ctx.device.runtime.enabled else 'off'}) "
              + "-" * 24)
        print(f"  makespan {timeline.end_s * 1e6:.1f} us; serial sum "
              f"{timeline.serial_s * 1e6:.1f} us; overlap "
              f"{timeline.overlap_fraction:.1%}; critical path "
              f"{timeline.critical_path_s * 1e6:.1f} us")
        fc = ctx.stats
        print(f"  faults (REPRO_FAULTS="
              f"{'plan' if ctx.device.faults.active else 'off'}): "
              f"{fc.faults_injected} injected, {fc.faults_recovered} "
              f"recovered, {fc.retries} retry(ies), "
              f"{fc.backoff_s * 1e6:.1f} us backoff, "
              f"{fc.solver_restarts} solver restart(s)")
        print("\n-- IR " + "-" * 48)
        print(f"  {ctx.stats.modules_verified} module(s) SSA-verified")
        be = ctx.stats.backend
        print(f"\n-- backends (REPRO_BACKEND={be.mode}) " + "-" * 26)
        for name in sorted(set(be.kernels) | set(be.launches)):
            print(f"  {name}: {be.kernels.get(name, 0)} kernel(s) built "
                  f"in {be.compile_seconds.get(name, 0.0) * 1e3:.1f} ms, "
                  f"{be.launches.get(name, 0)} launch(es)")
        if be.fallbacks:
            print(f"  {be.fallbacks} fallback(s) to sim:")
            for kname, why in be.fallback_kernels.items():
                print(f"    {kname}: {why}")
        fam = _wall_by_family(ctx.device.stats.per_kernel_wall_s)
        if fam:
            wall = ", ".join(f"{k} {v * 1e3:.1f} ms"
                             for k, v in sorted(fam.items()))
            print(f"  measured kernel wall-clock: {wall}")
        sj = serving.as_json()
        print(f"\n-- serving (REPRO_SERVE={sj['mode']}) " + "-" * 26)
        print(f"  scheduler {sj['scheduler']['policy']}: "
              f"{sj['scheduler']['decisions']} decision(s), quantum "
              f"{sj['scheduler']['quantum_s'] * 1e6:.0f} us; admission: "
              f"{sj['admission']['queued']} queued, "
              f"{sj['admission']['rejections']} rejection(s)")
        print(f"  shared JIT cache: {sj['jit_cache']['kernels']} "
              f"kernel(s), {sj['jit_cache']['cross_tenant_hits']} "
              f"cross-tenant hit(s)")
        for name, t in sorted(sj["tenants"].items()):
            print(f"  {name} (weight {t['weight']:g}): "
                  f"{t['sessions_completed']}/{t['sessions_submitted']} "
                  f"session(s), {t['launches']} launch(es), service "
                  f"{t['service_s'] * 1e6:.1f} us, jit "
                  f"{t['jit_misses']} compile(s) + {t['jit_hits']} "
                  f"hit(s) ({t['jit_shared_hits']} cross-tenant)")
        rz = resilience
        print(f"\n-- resilience (REPRO_RESILIENCE={rz['mode']}) "
              + "-" * 20)
        print(f"  policy {rz['policy'] or '-'}: {rz['kills_injected']} "
              f"kill(s), {rz['stragglers_flagged']}/"
              f"{rz['stragglers_injected']} straggler(s) flagged, "
              f"{rz['detections']} detection(s)")
        recov = ", ".join(
            f"{k} x{v}" for k, v in
            sorted(rz["recoveries_by_policy"].items())) or "none"
        print(f"  recoveries: {recov}; modeled cost "
              f"{rz['recovery_modeled_s'] * 1e6:.1f} us; "
              f"{rz['checkpoints']} checkpoint(s) "
              f"({rz['checkpoint_bytes']} bytes), "
              f"{rz['restored_payloads']} payload(s) restored")
        status = "FAIL" if failed else "ok"
        print(f"\nrepro.lint: {status}: {len(suite)} kernel(s) verified, "
              f"{n_diags} diagnostic(s), worst severity "
              f"{worst.label if n_diags else 'none'}")
    else:
        be = ctx.stats.backend
        report = {
            "schema_version": 9,
            "lattice": list(args.lattice),
            "passes": list(PASSES),
            "ast_passes": list(LINT_PASSES),
            "kernels": kernels,
            "ast_findings": [_diag_json(d) for d in ast_findings],
            "module_cache": {
                "hits": ctx.stats.module_cache_hits,
                "misses": ctx.stats.module_cache_misses,
            },
            "fusion": {
                "groups": ctx.stats.fusion_groups,
                "fused_statements": ctx.stats.fused_statements,
            },
            "runtime": {
                "streams": "on" if ctx.device.runtime.enabled else "off",
                "elapsed_s": timeline.end_s,
                "serial_s": timeline.serial_s,
                "overlap_fraction": timeline.overlap_fraction,
                "critical_path_s": timeline.critical_path_s,
                "lane_busy_s": timeline.lane_busy(),
            },
            "cache": dataclasses.asdict(cache),
            "faults": {
                "mode": "plan" if ctx.device.faults.active else "off",
                "injected": ctx.stats.faults_injected,
                "recovered": ctx.stats.faults_recovered,
                "retries": ctx.stats.retries,
                "backoff_s": ctx.stats.backoff_s,
                "solver_restarts": ctx.stats.solver_restarts,
            },
            "backend": {
                "mode": be.mode,
                "kernels": dict(be.kernels),
                "compile_seconds": dict(be.compile_seconds),
                "launches": dict(be.launches),
                "fallbacks": be.fallbacks,
                "fallback_kernels": dict(be.fallback_kernels),
                "wall_s_by_family": _wall_by_family(
                    ctx.device.stats.per_kernel_wall_s),
            },
            "ir": {"modules_verified": ctx.stats.modules_verified},
            "serving": serving.as_json(),
            "resilience": resilience,
            "summary": {
                "kernels": len(suite),
                "diagnostics": n_diags,
                "errors": counts_total[Severity.ERROR],
                "warnings": counts_total[Severity.WARNING],
                "notes": counts_total[Severity.NOTE],
                "worst": worst.label if n_diags else None,
                "status": "fail" if failed else "ok",
            },
        }
        json.dump(report, sys.stdout, indent=2)
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
