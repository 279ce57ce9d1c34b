"""Kernel fusion: launches and traffic per CG iteration, fused vs eager.

The deferred-evaluation queue fuses the vector updates of a Krylov
iteration into multi-output kernels and absorbs the reductions'
partials passes into them.  For an elementwise (site-diagonal)
Hermitian positive-definite operator ``A = diag(w)`` the steady-state
CG iteration collapses from six generated-kernel launches to two:

* ``{p-update, ap = w*p, <p|ap> partials}``
* ``{x-update, r-update, |r|^2 partials}``

with the intermediate ``ap``/``p`` values forwarded through registers
instead of a store/re-load round trip.  The fixed-function partial
folds (``reduce_f64``) are unchanged — they are counted separately.

Emits ``BENCH_fusion.json`` next to the CI lint report with the
per-iteration launch and modeled-byte numbers plus the bitwise
fused-vs-eager solution check.
"""

import numpy as np

from repro.core.context import Context
from repro.qcd.solver import cg
from repro.qdp.fields import LatticeField, latt_fermion, latt_real
from repro.qdp.lattice import Lattice

from _util import header, report, table, write_bench

DIMS = (4, 4, 4, 4)
WARMUP_ITERS = 4       # covers setup + JIT of every kernel shape
MEASURE_ITERS = 8


def _solve(fusion: bool, iters: int):
    """Run ``iters`` CG iterations on A = diag(w); return (ctx, x)."""
    ctx = Context(fusion=fusion, autotune=False)
    lat = Lattice(DIMS)
    rng = np.random.default_rng(17)
    w = latt_real(lat, context=ctx)
    w.from_numpy(rng.uniform(0.5, 1.5, lat.nsites))
    b = latt_fermion(lat, context=ctx)
    b.gaussian(rng)
    x = latt_fermion(lat, context=ctx)

    def apply_op(dest: LatticeField, src: LatticeField) -> None:
        dest.assign(w.ref() * src.ref())

    cg(apply_op, x, b, tol=0.0, max_iter=iters)
    ctx.flush()
    return ctx, x


def _per_iteration(fusion: bool) -> dict:
    """Steady-state per-iteration stats from a two-length difference."""
    ctx_a, _ = _solve(fusion, WARMUP_ITERS)
    ctx_b, _ = _solve(fusion, WARMUP_ITERS + MEASURE_ITERS)

    def delta(attr):
        return (getattr(ctx_b.device.stats, attr)
                - getattr(ctx_a.device.stats, attr)) / MEASURE_ITERS

    launches = delta("kernel_launches")
    folds = delta("fold_launches")
    return {
        "generated_kernel_launches": launches - folds,
        "reduce_folds": folds,
        "modeled_kernel_bytes": delta("modeled_kernel_bytes"),
        "modeled_kernel_time_s": delta("modeled_kernel_time_s"),
    }


def test_fused_cg_iteration(tmp_path):
    fused = _per_iteration(True)
    eager = _per_iteration(False)

    # solutions must be bitwise identical, not merely close
    _, x_on = _solve(True, WARMUP_ITERS)
    _, x_off = _solve(False, WARMUP_ITERS)
    bitwise = bool(np.array_equal(x_on.to_numpy(), x_off.to_numpy()))

    byte_reduction = 1.0 - (fused["modeled_kernel_bytes"]
                            / eager["modeled_kernel_bytes"])

    header("Kernel fusion: CG iteration on A = diag(w) "
           f"({'x'.join(map(str, DIMS))}, f64)")
    rows = []
    for name, s in (("eager (REPRO_FUSION=off)", eager),
                    ("fused (REPRO_FUSION=on)", fused)):
        rows.append((name,
                     f"{s['generated_kernel_launches']:.0f}",
                     f"{s['reduce_folds']:.0f}",
                     f"{s['modeled_kernel_bytes'] / 1e3:.1f} kB",
                     f"{s['modeled_kernel_time_s'] * 1e6:.1f} us"))
    table(rows, ("path", "kernels/iter", "folds/iter",
                 "bytes/iter", "modeled time/iter"))
    report(f"modeled traffic reduction: {byte_reduction:.1%}; "
           f"solutions bitwise identical: {bitwise}")

    out = {
        "benchmark": "fusion_cg_iteration",
        "lattice": list(DIMS),
        "precision": "f64",
        "measure_iters": MEASURE_ITERS,
        "fused": fused,
        "eager": eager,
        "byte_reduction": byte_reduction,
        "bitwise_identical": bitwise,
    }
    write_bench("fusion", out)

    # the tentpole's acceptance bar
    assert bitwise
    assert (fused["generated_kernel_launches"]
            <= eager["generated_kernel_launches"] / 2)
    assert byte_reduction >= 0.25
    assert fused["reduce_folds"] == eager["reduce_folds"]
