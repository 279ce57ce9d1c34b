"""Per-kernel thread-block-size auto-tuning (paper Sec. VII).

Strategy, verbatim from the paper: first try to launch with the
maximum block size the device allows (2^10 on Kepler, 1-D blocks); on
launch failure retry with the size halved until the launch succeeds.
Once launched, *consecutive payload launches* probe smaller block
sizes until the execution time increases significantly (the paper
arbitrarily uses 33%); the best configuration seen is then used for
all subsequent launches.  No kernels are launched solely for tuning —
tuning rides on the payload launches.

One improvement over the paper's discover-by-failure start: the JIT
knows each kernel's register pressure statically (CFG liveness),
so :func:`static_block_seed` skips the block sizes the SM
register file provably rejects and the probe starts at the first
launchable size — a register-hungry kernel begins at e.g. 256 instead
of burning failed launches at 1024 and 512.  Launch failure handling
is kept as the safety net for anything the static bound misses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..driver.jitcompiler import CompiledKernel
from ..ptx.isa import KernelInfo
from .gpu import Device
from .memmodel import KernelCost, LaunchError

#: Probe-termination threshold: stop when a probe is this much slower
#: than the best time seen (paper: "arbitrarily we use 33%").
SLOWDOWN_THRESHOLD = 1.33

#: Smallest block size probed (one warp).
MIN_BLOCK = 32


def static_block_seed(spec, regs_per_thread: int | None) -> int:
    """Largest halving-series block size the register file provably
    admits: the static occupancy bound.

    The paper's tuner starts at the device maximum and discovers the
    register limit by failed launches.  Register pressure is known
    statically (:func:`repro.ptx.liveness.max_live_registers` via the
    JIT), so the failing prefix of the halving series can be skipped
    outright: seed at the largest ``max_threads_per_block / 2^k``
    whose ``regs_per_thread * block`` fits the SM register file
    (mirroring the check in :func:`repro.device.memmodel.blocks_per_sm`).
    """
    bs = spec.max_threads_per_block
    if regs_per_thread is None:
        return bs
    while bs > MIN_BLOCK and regs_per_thread * bs > spec.regs_per_sm:
        bs //= 2
    return bs


class Phase(enum.Enum):
    PROBING = "probing"
    TUNED = "tuned"


@dataclass
class TunerState:
    """Tuning state for a single kernel (keyed by kernel name)."""

    next_block: int
    phase: Phase = Phase.PROBING
    best_block: int | None = None
    best_time: float = float("inf")
    launches: int = 0
    failures: int = 0
    #: ``(block size, modeled time)`` of every probing launch
    history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def block_size(self) -> int:
        if self.phase is Phase.TUNED:
            return self.best_block
        return self.next_block


class Autotuner:
    """Auto-tunes block sizes per kernel on a device."""

    def __init__(self, device: Device):
        self.device = device
        self.states: dict[str, TunerState] = {}

    def state(self, kernel_name: str,
              regs_per_thread: int | None = None) -> TunerState:
        st = self.states.get(kernel_name)
        if st is None:
            st = TunerState(next_block=static_block_seed(
                self.device.spec, regs_per_thread))
            self.states[kernel_name] = st
        return st

    def launch(self, kernel: CompiledKernel, info: KernelInfo,
               params: dict, nsites: int,
               precision: str = "f64") -> KernelCost:
        """Launch a payload kernel, tuning its block size on the way.

        Never launches extra kernels: every execution is the real
        payload.  Raises :class:`LaunchError` only if no block size
        down to one warp can launch.
        """
        st = self.state(kernel.name,
                        getattr(kernel, "regs_per_thread", None))
        while True:
            bs = st.block_size
            try:
                cost = self.device.launch(kernel, info, params, nsites,
                                          block_size=bs, precision=precision)
            except LaunchError:
                st.failures += 1
                if bs <= MIN_BLOCK:
                    raise
                # halve and retry (still the same payload launch)
                st.next_block = bs // 2
                if st.best_block is not None and st.best_block >= bs:
                    st.best_block = st.next_block
                continue
            st.launches += 1
            if st.phase is Phase.TUNED:
                return cost
            # probing phase bookkeeping
            st.history.append((bs, cost.time_s))
            if cost.time_s < st.best_time:
                st.best_time = cost.time_s
                st.best_block = bs
            if cost.time_s > st.best_time * SLOWDOWN_THRESHOLD or bs <= MIN_BLOCK:
                st.phase = Phase.TUNED
            else:
                st.next_block = max(MIN_BLOCK, bs // 2)
                if st.next_block == bs:
                    st.phase = Phase.TUNED
            return cost
