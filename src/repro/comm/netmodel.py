"""Interconnect performance models.

The virtual machine charges these models for halo traffic.  Numbers
are calibrated to the paper's test systems:

* the JLab 12k cluster of Fig. 6 — QDR InfiniBand with MVAPICH2 1.9,
  CUDA-aware, GPUs behind PCIe gen2;
* the Cray Gemini torus of Blue Waters / Titan (Figs. 7/8).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point message cost: ``latency + bytes / bandwidth``.

    ``cuda_aware=False`` adds a PCIe staging copy on each end (the
    paper notes data is staged through CPU memory for MPI stacks that
    are not CUDA-aware).
    """

    name: str
    latency_s: float
    bandwidth: float            # bytes/s, per point-to-point message
    cuda_aware: bool = True
    pcie_bandwidth: float = 6e9
    pcie_latency_s: float = 10e-6

    def message_time(self, nbytes: int) -> float:
        t = self.latency_s + nbytes / self.bandwidth
        if not self.cuda_aware:
            # stage through host memory on both ends
            t += 2 * (self.pcie_latency_s + nbytes / self.pcie_bandwidth)
        return t


#: QDR InfiniBand + MVAPICH2 1.9 with CUDA-aware MPI (paper
#: Sec. VIII-C, the 2x K20m overlap benchmark).  QDR delivers about
#: 3.2 GB/s of user bandwidth; GPUDirect paths of that era still
#: bounce through host bounce-buffers internally, reflected in the
#: effective bandwidth.
IB_QDR_CUDA_AWARE = NetworkModel(
    name="mvapich2-1.9-qdr-ib",
    latency_s=4e-6,
    bandwidth=3.2e9,
    cuda_aware=True,
)

#: The same fabric without CUDA-aware MPI (for ablations).
IB_QDR_STAGED = NetworkModel(
    name="mvapich2-qdr-ib-staged",
    latency_s=4e-6,
    bandwidth=3.2e9,
    cuda_aware=False,
)

#: Cray Gemini (Blue Waters XE/XK, Titan): ~1.5 us latency and
#: several GB/s per direction; GPU data staged through host.
GEMINI = NetworkModel(
    name="cray-gemini",
    latency_s=1.5e-6,
    bandwidth=4.5e9,
    cuda_aware=False,
)
