"""Device specifications for the simulated GPUs.

Numbers follow the hardware used in the paper's evaluation
(Sec. VIII-A): NVIDIA Tesla K20x and K20m, both GK110 "Kepler"
devices (compute capability 3.5).  The calibration constants of the
sustained-bandwidth model (``mem_latency_s``, ``mlp_requests``) are
documented in :mod:`repro.device.memmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a (simulated) CUDA device."""

    name: str
    #: streaming multiprocessors
    sm_count: int
    #: maximum threads per block (1-D blocks; paper uses 2^10 on Kepler)
    max_threads_per_block: int
    #: 32-bit registers per SM
    regs_per_sm: int
    #: maximum resident threads per SM
    max_threads_per_sm: int
    #: maximum resident blocks per SM
    max_blocks_per_sm: int
    #: theoretical peak memory bandwidth, bytes/second
    peak_bandwidth: float
    #: fraction of peak bandwidth attainable by streaming kernels
    #: (the paper measures 79% on Kepler, Sec. VIII-B)
    max_bandwidth_fraction: float
    #: peak single / double precision throughput, flop/s
    peak_flops_sp: float
    peak_flops_dp: float
    #: device memory size in bytes (accounting capacity)
    memory_bytes: int
    #: kernel launch overhead, seconds
    launch_overhead_s: float
    #: effective memory latency for the Little's-law bandwidth model
    mem_latency_s: float
    #: outstanding memory requests per thread (memory-level parallelism)
    mlp_requests: float
    #: host<->device transfer bandwidth (PCIe gen2 x16), bytes/s
    pcie_bandwidth: float
    #: host<->device transfer latency, seconds
    pcie_latency_s: float


#: Tesla K20x with ECC disabled — the single-GPU benchmark device of
#: Figs. 4/5 (peak 250 GB/s, 1.31 TF DP / 3.95 TF SP).
K20X_ECC_OFF = DeviceSpec(
    name="K20x_eccoff",
    sm_count=14,
    max_threads_per_block=1024,
    regs_per_sm=65536,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    peak_bandwidth=250e9,
    max_bandwidth_fraction=0.79,
    peak_flops_sp=3.95e12,
    peak_flops_dp=1.31e12,
    memory_bytes=6 * 1024**3,
    launch_overhead_s=5e-6,
    mem_latency_s=0.59e-6,
    mlp_requests=4.0,
    pcie_bandwidth=6e9,
    pcie_latency_s=10e-6,
)

#: Tesla K20m with ECC enabled — the 2-GPU overlap benchmark device of
#: Fig. 6.  ECC costs ~20% of bandwidth on GDDR5 Kepler boards.
K20M_ECC_ON = DeviceSpec(
    name="K20m_eccon",
    sm_count=13,
    max_threads_per_block=1024,
    regs_per_sm=65536,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    peak_bandwidth=208e9 * 0.80,
    max_bandwidth_fraction=0.79,
    peak_flops_sp=3.52e12,
    peak_flops_dp=1.17e12,
    memory_bytes=5 * 1024**3,
    launch_overhead_s=5e-6,
    mem_latency_s=0.59e-6,
    mlp_requests=4.0,
    pcie_bandwidth=6e9,
    pcie_latency_s=10e-6,
)

#: The XK-node GPU of Blue Waters / Titan (K20x, ECC enabled).
K20X_ECC_ON = DeviceSpec(
    name="K20x_eccon",
    sm_count=14,
    max_threads_per_block=1024,
    regs_per_sm=65536,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    peak_bandwidth=250e9 * 0.80,
    max_bandwidth_fraction=0.79,
    peak_flops_sp=3.95e12,
    peak_flops_dp=1.31e12,
    memory_bytes=6 * 1024**3,
    launch_overhead_s=5e-6,
    mem_latency_s=0.59e-6,
    mlp_requests=4.0,
    pcie_bandwidth=6e9,
    pcie_latency_s=10e-6,
)
