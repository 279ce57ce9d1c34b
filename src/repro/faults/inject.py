"""The fault injector: plan decisions applied at the chokepoints.

A :class:`FaultInjector` sits between a :class:`FaultPlan` and one
device (or the virtual machine's comm layer) and implements the
*mechanics* of each injection site — raising the right exception,
corrupting the right bytes — together with the paired recovery:
bounded retry with exponential backoff charged as modeled time,
checksum-verified retransmission, and the bookkeeping that makes every
fault and recovery visible (plan trace, counters, ``lane="fault"``
spans on the runtime timeline).

Recovery cost is *modeled honestly*: every backoff interval becomes a
span on a dedicated ``fault`` lane that fences the stream it delays
(compute for launch retries, h2d/d2h for retransmits, comm for halo
recovery), and every retransmission moves real data again and charges
real modeled transfer time — a chaos run's makespan includes what its
faults cost.

When no plan is active (``REPRO_FAULTS=off``, the default) the
injector is inert: the device guards every call behind
:attr:`FaultInjector.active`, so the fault-free path is bitwise
identical — same results, same clocks, same stats — to a build
without this layer.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..device.memmodel import LaunchError
from ..memory.pool import DeviceOutOfMemory
from ..runtime.stream import StreamRuntime
from .plan import ZERO_COUNTERS, FaultCounters, FaultEvent, FaultPlan, FaultSpec


class TransferChecksumError(RuntimeError):
    """A corrupted transfer could not be repaired within the retry
    budget (the per-transfer checksum still mismatches)."""


class HaloDeliveryError(RuntimeError):
    """A halo message could not be delivered intact within the
    retransmission budget."""


def _crc(data: np.ndarray) -> int:
    """CRC32 of an array's raw bytes — the per-transfer checksum."""
    return zlib.crc32(np.ascontiguousarray(data).view(np.uint8).tobytes())


class FaultInjector:
    """Applies a :class:`FaultPlan` at one device's chokepoints.

    Parameters
    ----------
    plan:
        The shared fault plan, or ``None`` for an inert injector.
    device:
        The owning :class:`~repro.device.gpu.Device`; ``None`` for
        injectors that only guard the comm layer (the VM's halo
        injector passes stream runtimes explicitly).
    """

    def __init__(self, plan: FaultPlan | None, device=None):
        self.plan = plan
        self.device = device
        #: kernel name -> frozenset of poisoned (always-failing) sizes
        self._sticky_sizes: dict[str, frozenset[int]] = {}
        #: (kernel name, block size) -> the recorded sticky event
        self._sticky_events: dict[tuple[str, int], FaultEvent] = {}

    @property
    def active(self) -> bool:
        """Whether any injection can happen.  The device guards every
        injector call behind this, keeping the off path bit-identical."""
        return self.plan is not None and bool(self.plan.specs)

    @property
    def counters(self) -> FaultCounters:
        return self.plan.counters if self.plan is not None else ZERO_COUNTERS

    # -- Device.launch: sticky + transient failures --------------------

    def _sticky_spec(self, name: str) -> FaultSpec | None:
        # sticky specs are never consumed: the poisoned sizes fail
        # *every* time, which is what drives the halving series
        for spec in self.plan.specs:
            if (spec.site == "launch" and spec.kind == "sticky"
                    and spec.matches("launch", "sticky", name)):
                return spec
        return None

    def _poisoned_sizes(self, name: str) -> frozenset[int]:
        sizes = self._sticky_sizes.get(name)
        if sizes is None:
            spec = self._sticky_spec(name)
            if spec is None:
                sizes = frozenset()
            else:
                top = (self.device.spec.max_threads_per_block
                       if self.device is not None else 1024)
                depth = spec.count if spec.count else 1
                sizes = frozenset(top >> k for k in range(depth)
                                  if top >> k >= 1)
            self._sticky_sizes[name] = sizes
        return sizes

    def pre_launch(self, name: str, block_size: int) -> None:
        """Gate one kernel launch; called before the cost model.

        Sticky failures raise :class:`LaunchError` immediately (every
        time — the auto-tuner's halving series is the recovery, and
        :meth:`post_launch` closes the event once it settles).
        Transient failures are retried here with exponential backoff
        until a retry draws clean, raising only when the retry budget
        is exhausted.
        """
        if block_size in self._poisoned_sizes(name):
            key = (name, block_size)
            if key not in self._sticky_events:
                self._sticky_events[key] = self.plan.fire(
                    self._sticky_spec(name), name,
                    detail={"block_size": block_size}, consume=False)
            raise LaunchError(
                f"injected sticky launch failure: kernel {name!r} "
                f"cannot launch with block size {block_size}")
        event = self.plan.draw("launch", "transient", name)
        if event is None:
            return
        policy = self.plan.policy
        chain = [event]
        retries = 0
        backoff = 0.0
        while True:
            if retries >= policy.max_retries:
                raise LaunchError(
                    f"injected transient launch failure for {name!r}: "
                    f"{retries} retries exhausted")
            b = policy.backoff_s(retries)
            self.device.charge("backoff", f"backoff:{name}", b)
            retries += 1
            backoff += b
            again = self.plan.draw("launch", "transient", name)
            if again is None:
                break
            chain.append(again)
        action = (f"relaunched after {retries} retr"
                  f"{'y' if retries == 1 else 'ies'} with backoff")
        self.plan.record_recovery(chain[-1], action,
                                  retries=retries, backoff_s=backoff)
        for ev in chain[:-1]:
            self.plan.record_recovery(ev, action)

    def post_launch(self, name: str, block_size: int) -> None:
        """A launch of ``name`` succeeded at ``block_size``: the
        halving series has recovered this kernel's sticky failures."""
        for (kname, _bs), ev in self._sticky_events.items():
            if kname == name and not ev.recovered:
                self.plan.record_recovery(
                    ev, f"auto-tuner settled at block size {block_size}")

    # -- device allocation: forced OOM ---------------------------------

    def pre_alloc(self, nbytes: int) -> None:
        """Maybe raise an injected :class:`DeviceOutOfMemory`.

        The raised exception is tagged ``injected=True`` and carries
        its fault event; the field cache's spill-and-retry loop is the
        recovery (it records against the event when the retried
        allocation succeeds).
        """
        event = self.plan.draw("alloc", "oom", str(int(nbytes)))
        if event is None:
            return
        event.detail["nbytes"] = int(nbytes)
        err = DeviceOutOfMemory(
            f"injected allocation failure for {int(nbytes)} bytes")
        err.injected = True
        err.fault_event = event
        raise err

    # -- host<->device transfers: checksum-guarded bit flips -----------

    def guard_h2d(self, addr: int, host: np.ndarray, name: str) -> None:
        """Verify (and if corrupted, repair) an H2D transfer.

        The device copy at ``addr`` was just written from ``host``; a
        fired fault flips one bit of it.  The guard checks the device
        copy's CRC32 against the host payload and retransmits — real
        ``pool.write`` plus modeled h2d time and backoff — until the
        checksums agree.
        """
        event = self.plan.draw("h2d", "bitflip", name)
        if event is None:
            return
        pool = self.device.pool
        raw = np.ascontiguousarray(host).view(np.uint8).reshape(-1)
        nbytes = raw.size
        expected = zlib.crc32(raw.tobytes())
        self._retransmit(
            event, "h2d", name, nbytes,
            flip=lambda bit: pool.flip_bit(addr, bit),
            intact=lambda: zlib.crc32(
                pool.read(addr, nbytes).tobytes()) == expected,
            resend=lambda: pool.write(addr, host),
            action="retransmitted")

    def guard_d2h(self, addr: int, out: np.ndarray, name: str) -> None:
        """Verify (and if corrupted, repair) a D2H transfer.

        ``out`` holds the bytes just read from the device; a fired
        fault flips one bit of it in flight.  The guard re-reads the
        device copy — charging modeled d2h time per retry — until the
        host copy's checksum matches the device copy's.
        """
        event = self.plan.draw("d2h", "bitflip", name)
        if event is None:
            return
        pool = self.device.pool
        flat = out.view(np.uint8).reshape(-1)
        nbytes = flat.size
        expected = zlib.crc32(flat.tobytes())

        def flip(bit: int) -> None:
            flat[bit >> 3] ^= np.uint8(1 << (bit & 7))

        def resend() -> None:
            flat[:] = pool.read(addr, nbytes)

        self._retransmit(
            event, "d2h", name, nbytes, flip=flip,
            intact=lambda: zlib.crc32(flat.tobytes()) == expected,
            resend=resend, action="re-read device copy")

    def _retransmit(self, event: FaultEvent, cat: str, name: str,
                    nbytes: int, flip, intact, resend,
                    action: str) -> None:
        """The guarded-retransmit loop both copy directions share.

        ``flip(bit)`` corrupts the received copy, ``intact()`` compares
        its checksum with the sender's, ``resend()`` moves the payload
        again.  Every retry charges its backoff (fenced against the
        ``cat`` copy lane) and one more modeled transfer; a fault drawn
        on a retry corrupts that retransmission too.
        """
        dev = self.device
        plan = self.plan
        bit = int(plan.rng.integers(nbytes * 8))
        flip(bit)
        event.detail.update({"bytes": nbytes, "bit": bit})
        lane = getattr(dev.runtime, cat)
        retries = 0
        backoff = 0.0
        while not intact():
            if retries >= plan.policy.max_retries:
                raise TransferChecksumError(
                    f"{cat} transfer {name!r} still corrupt after "
                    f"{retries} retransmissions")
            b = plan.policy.backoff_s(retries)
            dev.charge("backoff", f"backoff:{name}", b, stream=lane)
            retries += 1
            backoff += b
            resend()
            dev.charge_copy(cat, f"retransmit:{name}", nbytes)
            again = plan.draw(cat, "bitflip", name)
            if again is not None:
                rebit = int(plan.rng.integers(nbytes * 8))
                flip(rebit)
                again.detail.update({"bytes": nbytes, "bit": rebit})
                plan.record_recovery(
                    again, "absorbed into retransmit chain")
        plan.record_recovery(
            event, f"checksum mismatch detected; {action} "
                   f"({retries}x)", retries=retries, backoff_s=backoff)

    # -- halo exchange: drop / corrupt / timeout -----------------------

    def deliver_halo(self, dst_device, rbuf: int, data: np.ndarray,
                     net, name: str) -> list[tuple[str, str, float]]:
        """Deliver one halo message under the fault plan.

        Writes ``data`` into ``dst_device``'s pool at ``rbuf`` — but a
        fired fault first drops the message (zeros arrive), corrupts
        one bit in flight, or delays completion past the timeout.  The
        CRC32 of the received buffer against the sent payload (or the
        expired timer) triggers checksum-verified retransmission with
        backoff; by return, the receive buffer is intact.

        Data repair happens here; modeled *time* is deferred: the
        return value is the penalty schedule — ``(kind, span_name,
        seconds)`` with kind ``"backoff"``/``"timeout"``/
        ``"retransmit"`` — which the VM charges onto its comm/fault
        lanes *after* the primary halo span (recovery follows the
        failed delivery), via :meth:`charge_penalties`.
        """
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        nbytes = raw.size
        expected = zlib.crc32(raw.tobytes())
        plan = self.plan
        event = None
        kind = None
        for k in ("drop", "corrupt", "timeout"):
            ev = plan.draw("halo", k, name)
            if ev is not None:
                event, kind = ev, k
                break
        if kind is None:
            dst_device.pool.write(rbuf, data)
            return []
        penalties: list[tuple[str, str, float]] = []
        policy = plan.policy
        event.detail["bytes"] = nbytes
        if kind == "drop":
            dst_device.pool.write(rbuf, np.zeros(nbytes, np.uint8))
        elif kind == "corrupt":
            bit = int(plan.rng.integers(nbytes * 8))
            corrupted = raw.copy()
            corrupted[bit >> 3] ^= np.uint8(1 << (bit & 7))
            dst_device.pool.write(rbuf, corrupted)
            event.detail["bit"] = bit
        else:  # timeout: delivered, but the completion never arrives
            dst_device.pool.write(rbuf, data)
            penalties.append(("timeout", f"timeout:{name}",
                              policy.halo_timeout_s))
            event.detail["timeout_s"] = policy.halo_timeout_s
        retries = 0
        backoff = 0.0
        chain = [event]
        # timeout retransmits at least once (the sender must assume
        # loss); drop/corrupt retransmit until the checksum matches
        pending = True
        while pending:
            if retries >= policy.max_retries:
                raise HaloDeliveryError(
                    f"halo message {name!r} undeliverable after "
                    f"{retries} retransmissions")
            b = policy.backoff_s(retries)
            penalties.append(("backoff", f"backoff:{name}", b))
            retries += 1
            backoff += b
            payload = data
            again = None
            for k in ("drop", "corrupt"):
                again = plan.draw("halo", k, name)
                if again is not None:
                    again.detail["bytes"] = nbytes
                    if k == "drop":
                        payload = np.zeros(nbytes, np.uint8)
                    else:
                        bit = int(plan.rng.integers(nbytes * 8))
                        corrupted = raw.copy()
                        corrupted[bit >> 3] ^= np.uint8(1 << (bit & 7))
                        payload = corrupted
                        again.detail["bit"] = bit
                    chain.append(again)
                    break
            dst_device.pool.write(rbuf, payload)
            penalties.append(("retransmit", f"retransmit:{name}",
                              net.message_time(nbytes)))
            got = zlib.crc32(
                dst_device.pool.read(rbuf, nbytes).tobytes())
            pending = got != expected
        action = (f"{kind} detected; retransmitted ({retries}x, "
                  f"checksum verified)")
        plan.record_recovery(chain[-1], action,
                             retries=retries, backoff_s=backoff)
        for ev in chain[:-1]:
            plan.record_recovery(ev, action)
        return penalties

    def charge_penalties(self, runtime: StreamRuntime,
                         penalties: list[tuple[str, str, float]]) -> float:
        """Charge a halo penalty schedule onto ``runtime``'s lanes.

        Backoffs land on the ``fault`` lane fencing the comm stream
        both ways; timeouts and retransmissions extend the comm lane.
        Returns the total seconds charged (extra comm time the VM adds
        to the exchange's accounting).
        """
        total = 0.0
        for kind, span_name, seconds in penalties:
            if kind == "backoff":
                runtime.fence(runtime.comm, span_name, seconds, "backoff")
            else:
                runtime.comm.enqueue(
                    span_name, seconds,
                    "fault" if kind == "timeout" else "comm")
            total += seconds
        return total
