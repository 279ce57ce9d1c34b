"""PTX text as the portable interface: paper Sec. XI's future work.

Generates a kernel through the normal expression pipeline, shows the
PTX the framework emits, and compiles that *text* again through the
``cpu`` entry point (``repro.llvm.compile_cpu_kernel``: the driver
JIT's one generator, vectorized over work-items) — verifying
bit-exact agreement with the (simulated) GPU path.

Run:  python examples/llvm_backend.py
"""

import math

import numpy as np

from repro.core import qdp_init
from repro.core.expr import adj
from repro.llvm import compile_cpu_kernel
from repro.qdp import Lattice
from repro.qdp.fields import latt_color_matrix, latt_fermion

ctx = qdp_init()
lattice = Lattice((4, 4, 4, 8))
rng = np.random.default_rng(1)
u = latt_color_matrix(lattice)
psi = latt_fermion(lattice)
u.gaussian(rng)
psi.gaussian(rng)
out = latt_fermion(lattice)

# 1. evaluate through the PTX / simulated-GPU path, keeping the
#    parameter block the launcher binds (addresses, site counts)
bound = {}
device_launch = ctx.device.launch


def recording_launch(kernel, info, params, *args, **kwargs):
    bound.update(params)
    return device_launch(kernel, info, params, *args, **kwargs)


ctx.device.launch = recording_launch
out.assign(adj(u) * psi)
gpu_result = out.to_numpy().copy()
ctx.device.launch = device_launch
module = list(ctx.module_cache.values())[-1].module
print("generated PTX (head):")
print("\n".join(module.render().splitlines()[:8]), "\n...")

# 2. compile the same PTX text for the CPU target: one vectorized
#    function over work-items, built from the parsed instruction stream
kernel = compile_cpu_kernel(module.render())
print(f"\nCPU target: {kernel.__name__} compiled from "
      f"{len(module.instructions)} PTX instructions")

# 3. execute on the CPU target against the same device memory, with
#    the same parameter block
out_addr = ctx.field_cache.entries[out.uid].addr
views = {n: ctx.device.pool.view(n) for n in
         ("float32", "float64", "int32", "int64", "uint32", "uint64")}
start = out_addr >> 3
views["float64"][start:start + out.host.size] = 0   # wipe the result

with np.errstate(all="ignore"):      # as Device.launch runs a kernel
    kernel(views, bound, math.ceil(lattice.nsites / 128), 128)

cpu_words = ctx.device.memcpy_dtoh(out_addr, out.nbytes,
                                   np.float64)[:out.host.size]
gpu_check = latt_fermion(lattice)
gpu_check.from_numpy(gpu_result)
identical = np.array_equal(cpu_words, gpu_check.host)
print(f"\nCPU target vs GPU (PTX) results bit-identical: {identical}")
assert identical
print("one data-parallel layer, two targets — the porting story of "
      "the paper, and its Sec. XI sequel.")
