"""Machine models for the paper's evaluation platforms (Sec. VIII-A).

* Blue Waters: XE nodes (2x AMD 6276 Interlagos) and XK nodes
  (1x Interlagos + 1x K20x), Cray Gemini torus;
* Titan: XK-equivalent nodes on a slightly different Gemini
  configuration — the paper finds it "hardly distinguishable" from
  Blue Waters (Fig. 8), which our model reproduces as a small
  network-constant perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.netmodel import GEMINI, NetworkModel
from ..device.specs import DeviceSpec, K20X_ECC_ON


@dataclass(frozen=True)
class CPUSocket:
    """A CPU socket as an LQCD engine (memory-bandwidth bound)."""

    name: str
    cores: int
    #: sustained STREAM-like bandwidth, bytes/s
    sustained_bandwidth: float
    #: sustained LQCD flop rate (memory bound), flop/s
    sustained_flops: float


#: AMD Opteron 6276 "Interlagos" (8 Bulldozer modules).
INTERLAGOS = CPUSocket(
    name="amd-6276-interlagos",
    cores=16,
    sustained_bandwidth=18e9,
    sustained_flops=12e9,     # typical sustained Wilson-clover DP rate
)


@dataclass(frozen=True)
class NodeModel:
    """One node of a machine: sockets and/or a GPU plus the fabric."""

    name: str
    sockets: int
    socket: CPUSocket
    gpu: DeviceSpec | None
    network: NetworkModel


#: Blue Waters XE node: 2 Interlagos sockets, no GPU.
BLUEWATERS_XE = NodeModel(
    name="bluewaters-xe", sockets=2, socket=INTERLAGOS, gpu=None,
    network=GEMINI)

#: Blue Waters XK node: 1 Interlagos + 1 K20x (ECC on in production).
BLUEWATERS_XK = NodeModel(
    name="bluewaters-xk", sockets=1, socket=INTERLAGOS, gpu=K20X_ECC_ON,
    network=GEMINI)

#: Titan XK node: same hardware, marginally different Gemini config.
TITAN_XK = NodeModel(
    name="titan-xk", sockets=1, socket=INTERLAGOS, gpu=K20X_ECC_ON,
    network=NetworkModel(name="cray-gemini-titan",
                         latency_s=GEMINI.latency_s * 1.1,
                         bandwidth=GEMINI.bandwidth * 0.97,
                         cuda_aware=False))
