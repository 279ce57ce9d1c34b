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

JSON schema (``schema_version`` 14)::

    {
      "schema_version": 14,
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
            "verdicts": {str: int},    # proven/oob/unproven
            "proven": bool             # every access proven in-bounds
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
        "elapsed_s": float,            # makespan over all lanes
        "serial_s": float,             # serial sum of every span
                                       # (= the device clock)
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
      "backend": {                     # execution backends (REPRO_BACKEND)
        "mode": str,                   # resolved knob value ("sim"/"cpu")
        "wall_s_by_family": {str: float}  # measured host wall-clock per
                                       # kernel family (eval/fus/red/...)
      },
      "ir": {                          # the build path's ssa-structure
                                       # check (repro.ir.prepare_module),
                                       # the one a generated stream gets
        "modules_verified": int        # generated modules checked
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
from .diagnostics import Severity, max_severity, warn_unknown_knobs
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
    from .qcd.dslash import WilsonDslash, dslash_expr
    from .qcd.gauge import weak_gauge
    from .qcd.wilson import WilsonOperator, WilsonParams
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
    clov = WilsonOperator(u, WilsonParams(kappa=0.12, clover_coeff=1.0))
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
    the halo face copies, built through the cache the comm VM launches
    them from and bound to a t-face of the same lattice.

    That is the face normal to the slowest-varying (t) dimension — a
    contiguous site run, the direction the paper splits the lattice in.
    """
    from .comm.faces import FaceKernels

    faces = FaceKernels(ctx)
    t_face = lat.face_sites(lat.nd - 1, +1)
    entries = list(ctx.module_cache.values()) + [
        faces.get(kind, 24, precision, lat.nsites, t_face)
        for kind in ("gather", "scatter")]
    return [(e.module, e.compiled, e.env) for e in entries]


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
                             "(schema_version 14; see module docstring)")
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

    found = []
    kernels = []
    if text:
        print(f"\n-- PTX verifier: {len(suite)} kernel(s) "
              f"x {len(PASSES)} passes " + "-" * 20)
    for module, compiled, env in suite:
        record, diagnostics = _kernel_report(module, compiled, env,
                                             ctx.device.spec)
        kernels.append(record)
        found += diagnostics
        if not text:
            continue
        if diagnostics:
            counts = _severity_counts(diagnostics)
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
        for d in ast_findings:
            print(f"  {d.render()}")
    found += ast_findings

    worst = max_severity(found)
    failed = worst is not None and worst >= Severity.ERROR
    mode = ctx.stats.backend.mode
    wall_by_family = _wall_by_family(ctx.device.stats.per_kernel_wall_s)
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
        print("\n-- runtime " + "-" * 43)
        print(f"  makespan {timeline.end_s * 1e6:.1f} us; serial sum "
              f"{timeline.serial_s * 1e6:.1f} us; overlap "
              f"{timeline.overlap_fraction:.1%}; critical path "
              f"{timeline.critical_path_s * 1e6:.1f} us")
        print("\n-- IR " + "-" * 48)
        print(f"  {ctx.stats.modules_verified} module(s) SSA-verified")
        print(f"\n-- backends (REPRO_BACKEND={mode}) " + "-" * 26)
        if wall_by_family:
            wall = ", ".join(f"{k} {v * 1e3:.1f} ms"
                             for k, v in sorted(wall_by_family.items()))
            print(f"  measured kernel wall-clock: {wall}")
        status = "FAIL" if failed else "ok"
        print(f"\nrepro.lint: {status}: {len(suite)} kernel(s) verified, "
              f"{len(found)} diagnostic(s), worst severity "
              f"{worst.label if found else 'none'}")
    else:
        counts = _severity_counts(found)
        report = {
            "schema_version": 14,
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
                "elapsed_s": timeline.end_s,
                "serial_s": timeline.serial_s,
                "overlap_fraction": timeline.overlap_fraction,
                "critical_path_s": timeline.critical_path_s,
                "lane_busy_s": timeline.lane_busy(),
            },
            "cache": dataclasses.asdict(cache),
            "backend": {
                "mode": mode,
                "wall_s_by_family": wall_by_family,
            },
            "ir": {"modules_verified": ctx.stats.modules_verified},
            "summary": {
                "kernels": len(suite),
                "diagnostics": len(found),
                "errors": counts[Severity.ERROR],
                "warnings": counts[Severity.WARNING],
                "notes": counts[Severity.NOTE],
                "worst": worst.label if found else None,
                "status": "fail" if failed else "ok",
            },
        }
        json.dump(report, sys.stdout, indent=2)
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
