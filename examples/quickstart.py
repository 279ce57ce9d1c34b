"""Quickstart: the data-parallel interface in five minutes.

Builds a lattice, writes QDP-style expressions, and peeks behind the
curtain: the generated PTX, the driver JIT, the memory cache and the
auto-tuner — the whole pipeline of the paper on one page.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import qdp_init
from repro.core.expr import adj, shift
from repro.core.reduction import innerProduct, norm2
from repro.qdp import FORWARD, BACKWARD, Lattice
from repro.qdp.fields import gauge_field, latt_fermion

# 1. Initialize the framework: one (simulated) K20x GPU.
ctx = qdp_init()

# 2. A 8^3 x 16 lattice and some fields — QDP++'s
#    multi1d<LatticeColorMatrix> u(Nd) and LatticeFermions.
lattice = Lattice((8, 8, 8, 16))
rng = np.random.default_rng(7)
u = gauge_field(lattice)
for umu in u:
    from repro.qcd import su3

    umu.from_numpy(su3.random_su3(rng, lattice.nsites))
psi = latt_fermion(lattice)
phi = latt_fermion(lattice)
phi.gaussian(rng)

# 3. The operator infix form.  This is paper Fig. 1 — the gauge
#    covariant nearest-neighbor derivative.  No site loops: the
#    expression template builds an AST, the unparser turns it into a
#    PTX kernel, the driver JIT compiles it, the memory cache pages
#    the fields in, the auto-tuner picks the block size.  All of that
#    happens behind this one line:
mu = 0
psi.assign(u[mu] * shift(phi, FORWARD, mu)
           + shift(adj(u[mu]) * phi, BACKWARD, mu))
print(f"derivative evaluated; |psi|^2 = {norm2(psi):.6f}")

# 4. Reductions run on the device too (two-stage, f64 accumulation).
print(f"<phi|psi> = {innerProduct(phi, psi):.6f}")

# 5. Peek at a generated kernel: its PTX text and its cost metadata.
entry = next(iter(ctx.module_cache.values()))
module, compiled = entry.module, entry.compiled
print("\n--- one generated kernel ---")
print(f"name:           {module.name}")
print(f"flops/site:     {module.info.flops_per_site}")
print(f"bytes/site:     {module.info.bytes_per_site}")
print(f"flop/byte:      {module.info.flop_per_byte:.3f}")
print(f"registers:      {compiled.regs_per_thread} per thread")
print(f"modeled JIT:    {compiled.modeled_compile_seconds:.3f} s "
      f"(paper band: 0.05-0.22 s)")
print("\nfirst lines of the PTX handed to the driver JIT:")
print("\n".join(module.render().splitlines()[:18]))

# 6. Framework accounting: everything is instrumented.
stats = ctx.device.stats
print("\n--- session accounting ---")
print(f"expressions evaluated:  {ctx.stats.expressions_evaluated}")
print(f"distinct kernels:       {ctx.kernel_cache.stats.n_kernels}")
print(f"kernel launches:        {stats.kernel_launches}")
print(f"modeled device time:    {stats.modeled_kernel_time_s * 1e3:.2f} ms")
print(f"host->device traffic:   {stats.bytes_h2d / 1e6:.1f} MB "
      f"(managed automatically by the software cache)")
tuned = {n: s.best_block for n, s in ctx.autotuner.states.items()}
print(f"auto-tuned block sizes: {tuned}")
