"""The resilience manager: checkpoints, detection, rank recovery.

One :class:`ResilienceManager` is attached to a
:class:`~repro.comm.vm.VirtualMachine` when ``REPRO_RESILIENCE`` (or
the VM's ``resilience=`` argument) is ``detect`` or ``recover``.  The
VM calls :meth:`ResilienceManager.at_exchange` at the top of every
halo exchange — the machine's natural barrier — where the manager

1. refreshes the buddy checkpoint of every registered
   :class:`~repro.comm.vm.DistributedField` (and the persistent
   send/recv buffers) — a consistent cut, CRC32-guarded;
2. draws the seeded ``rank.straggler`` site per rank and runs the
   straggler detector over the ranks' modeled clocks;
3. draws the seeded ``rank.kill`` site per rank; a fired kill either
   raises :class:`RankFailureError` (``detect``) or runs the
   configured recovery policy (``recover``) before the exchange
   proceeds — so the restored rank produces its halo exactly as the
   dead one would have.

Every recovery is recorded on the shared
:class:`~repro.faults.plan.FaultPlan` trace (replay identity via
``trace_signature``) and charged as ``lane="fault"`` spans on the
VM's collective runtime — the makespan honestly includes what the
failure cost.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field

import numpy as np

from ..faults.inject import _crc
from .monitor import detect_stragglers

#: recovery policies a manager can be constructed with
POLICIES = ("buddy", "shrink")


class RankFailureError(RuntimeError):
    """A rank died and the machine is not configured to recover.

    Raised at the exchange barrier where the dead rank's halo failed
    to arrive (``REPRO_RESILIENCE=detect``, or a recovery that cannot
    proceed).  Carries the machine coordinates so the scheduler above
    can decide — and renders as a structured diagnostic, like the
    cache's ``NoValidCopyError``.
    """

    def __init__(self, rank: int, target: str, nranks: int,
                 reason: str = "halo never arrived"):
        self.rank = rank
        self.target = target
        self.nranks = nranks
        self.reason = reason
        super().__init__(
            f"rank {rank}/{nranks} dead at exchange {target!r}: "
            f"{reason}")

    @property
    def diagnostic(self):
        from ..diagnostics import Diagnostic, Severity

        return Diagnostic(
            severity=Severity.ERROR, pass_name="rank-failure",
            message=f"rank {self.rank} of {self.nranks} dead "
                    f"({self.reason})",
            obj=f"rank {self.rank}", location=self.target)


class BuddyRestoreError(RuntimeError):
    """A buddy restore could not produce a valid rank image.

    Raised when the checkpoint store holds no (or a CRC-corrupt) copy
    of a payload the dead rank needs — the resilience analogue of a
    double fault.
    """

    def __init__(self, rank: int, what: str, reason: str):
        self.rank = rank
        self.what = what
        self.reason = reason
        super().__init__(
            f"cannot restore rank {rank}: {what}: {reason}")

    @property
    def diagnostic(self):
        from ..diagnostics import Diagnostic, Severity

        return Diagnostic(
            severity=Severity.ERROR, pass_name="buddy-restore",
            message=self.reason, obj=self.what,
            location=f"rank {self.rank}")


@dataclass
class ResilienceStats:
    """Counters surfaced through ``repro.lint``'s resilience block."""

    kills_injected: int = 0
    stragglers_injected: int = 0
    stragglers_flagged: int = 0
    detections: int = 0
    recoveries_by_policy: dict = field(default_factory=dict)
    recovery_modeled_s: float = 0.0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    restored_payloads: int = 0

    def as_json(self) -> dict:
        return asdict(self)


class ResilienceManager:
    """Rank fault tolerance for one virtual machine."""

    def __init__(self, vm, mode: str = "recover",
                 policy: str = "buddy"):
        if mode not in ("detect", "recover"):
            raise ValueError(f"bad resilience mode {mode!r}: use "
                             f"'detect' or 'recover' (or no manager)")
        if policy not in POLICIES:
            raise ValueError(f"bad recovery policy {policy!r}: "
                             f"accepted: {', '.join(POLICIES)}")
        self.vm = vm
        self.mode = mode
        self.policy = policy
        self.stats = ResilienceStats()
        #: (field id, rank) -> (payload array copy, crc32)
        self._field_ckpt: dict[tuple[int, int],
                               tuple[np.ndarray, int]] = {}
        #: vm buffer key -> (raw bytes copy, crc32)
        self._buffer_ckpt: dict[tuple, tuple[np.ndarray, int]] = {}
        #: registered fields, weakly, in registration order — the
        #: refresh order must be deterministic for replay identity
        self._fields: list[weakref.ref] = []
        #: callbacks run after a shrink rebuilt the rank map (cached
        #: site partitions etc. must be invalidated)
        self._shrink_hooks: list = []
        #: stragglers already flagged (don't re-flag every barrier)
        self._flagged: set[int] = set()
        #: open straggler events by rank, awaiting detection
        self._open_stragglers: dict = {}

    # -- registration ---------------------------------------------------

    def register(self, dfield) -> None:
        """Track one distributed field for checkpointing/restore."""
        self._fields.append(weakref.ref(dfield))

    def on_shrink(self, callback) -> None:
        """Run ``callback(vm)`` after every shrink-and-redistribute."""
        self._shrink_hooks.append(callback)

    def _alive_fields(self) -> list:
        alive = []
        live_refs = []
        for ref in self._fields:
            f = ref()
            if f is not None:
                alive.append(f)
                live_refs.append(ref)
        self._fields = live_refs
        return alive

    def _rank_specs_active(self) -> bool:
        plan = self.vm.faults.plan
        return (plan is not None
                and any(s.site == "rank" and not s.exhausted
                        for s in plan.specs))

    # -- the exchange-barrier hook --------------------------------------

    def at_exchange(self, src, tag: str) -> None:
        """Checkpoint, monitor, and inject at one exchange barrier.

        Ordering matters for the bitwise contract: the checkpoint cut
        is taken *before* the kill draw, so a restore reproduces the
        state the dead rank held entering this very barrier, and the
        retried exchange is indistinguishable from the fault-free
        one.
        """
        plan = self.vm.faults.plan
        rank_faults = self._rank_specs_active()
        if self.mode == "recover" and rank_faults:
            self.refresh_checkpoints()
        if plan is None or not rank_faults:
            return
        for r in range(self.vm.nranks):
            ev = plan.draw("rank", "straggler", f"rank{r}:{tag}")
            if ev is not None:
                self._hang(r, ev)
        self._detect_stragglers()
        for r in range(self.vm.nranks):
            ev = plan.draw("rank", "kill", f"rank{r}:{tag}")
            if ev is not None:
                self._on_kill(r, ev, tag)
                # recovery may have changed the rank map; remaining
                # ranks get their draw at the next barrier
                break

    # -- checkpointing ---------------------------------------------------

    def refresh_checkpoints(self) -> None:
        """Take the consistent cut: every registered field's payload
        on every rank, plus the persistent comm buffers, each with its
        CRC32.  Reading a shard flushes its pending deferred work, so
        the cut is well-defined."""
        vm = self.vm
        total = 0
        for f in self._alive_fields():
            for r in range(vm.nranks):
                payload = f.shards[r].to_numpy()
                self._field_ckpt[(id(f), r)] = (payload, _crc(payload))
                total += payload.nbytes
        for key, (addr, nbytes) in vm._buffers.items():
            raw = np.array(vm.contexts[key[0]].device.pool.read(
                addr, nbytes), copy=True)
            self._buffer_ckpt[key] = (raw, _crc(raw))
            total += nbytes
        self.stats.checkpoints += 1
        self.stats.checkpoint_bytes = total

    # -- stragglers ------------------------------------------------------

    def _hang(self, r: int, event) -> None:
        """Apply one injected hang: the rank's modeled clock stalls."""
        hang = self.vm.faults.plan.policy.straggler_hang_s
        self.vm.contexts[r].device.charge("fault", f"hang:rank{r}", hang)
        event.detail.update({"rank": r, "hang_s": hang})
        self._open_stragglers[r] = event
        self.stats.stragglers_injected += 1

    def _detect_stragglers(self) -> None:
        vm = self.vm
        plan = vm.faults.plan
        clocks = [c.device.clock for c in vm.contexts]
        for r in detect_stragglers(clocks,
                                   plan.policy.straggler_threshold):
            if r in self._flagged:
                continue
            self._flagged.add(r)
            self.stats.stragglers_flagged += 1
            self.stats.detections += 1
            event = self._open_stragglers.pop(r, None)
            ordered = sorted(clocks)
            median = ordered[(len(ordered) - 1) // 2]
            ratio = clocks[r] / median if median > 0 else float("inf")
            if self.mode == "recover":
                hang = (event.detail.get("hang_s",
                                         plan.policy.straggler_hang_s)
                        if event is not None
                        else plan.policy.straggler_hang_s)
                self.stats.recovery_modeled_s += self._charge_recovery(
                    f"straggler:rank{r}", hang, cat="straggler")
                action = (f"straggler flagged at {ratio:.1f}x median; "
                          f"stall absorbed by collective")
            else:
                action = (f"straggler flagged at {ratio:.1f}x median "
                          f"(detect mode)")
            plan.record_recovery(event, action)

    # -- rank kills ------------------------------------------------------

    def _charge_recovery(self, name: str, seconds: float,
                         cat: str = "restore") -> float:
        """Charge one rank-recovery step (restore transfer,
        redistribution, absorbed straggler stall) on the VM's
        collective timeline: a ``fault``-lane span fenced against
        compute — the next exchange cannot start until the recovery
        completes.  Returns ``seconds`` so callers can accumulate."""
        rt = self.vm.runtime
        rt.fence(rt.compute, name, seconds, cat)
        return seconds

    def _on_kill(self, r: int, event, tag: str) -> None:
        vm = self.vm
        self.stats.kills_injected += 1
        self.stats.detections += 1
        event.detail.update({"rank": r, "nranks": vm.nranks,
                             "policy": (self.policy
                                        if self.mode == "recover"
                                        else "none")})
        if self.mode == "detect":
            raise RankFailureError(r, tag, vm.nranks)
        plan = vm.faults.plan
        backoff = plan.policy.backoff_s(0)
        seconds = self._charge_recovery(f"detect:rank{r}", backoff,
                                        cat="backoff")
        if self.policy == "buddy":
            seconds += self._recover_buddy(r)
            action = (f"buddy restore onto spare rank "
                      f"({self.stats.restored_payloads} payloads)")
        else:
            old = vm.nranks
            seconds += self._recover_shrink(r)
            action = (f"shrunk {old} -> {vm.nranks} ranks and "
                      f"redistributed")
        self.stats.recoveries_by_policy[self.policy] = (
            self.stats.recoveries_by_policy.get(self.policy, 0) + 1)
        self.stats.recovery_modeled_s += seconds
        plan.record_recovery(event, action, retries=1,
                             backoff_s=backoff)
        # the store must describe the *new* machine before the next
        # draw can fire (a second kill restores from this state)
        self.refresh_checkpoints()

    def _recover_buddy(self, dead: int) -> float:
        """Rebuild rank ``dead`` on a spare context from its buddy's
        CRC32-validated checkpoint copy; returns the modeled restore
        transfer time charged on the fault lane."""
        vm = self.vm
        spare = vm._make_rank_context()
        moved = 0
        for f in self._alive_fields():
            entry = self._field_ckpt.get((id(f), dead))
            if entry is None:
                raise BuddyRestoreError(
                    dead, f"field {f.name}",
                    "no buddy checkpoint copy")
            payload, crc = entry
            if _crc(payload) != crc:
                raise BuddyRestoreError(
                    dead, f"field {f.name}",
                    "buddy checkpoint copy failed CRC32 validation")
            from ..qdp.fields import LatticeField

            shard = LatticeField(vm.local_lattice, f.spec,
                                 context=spare,
                                 name=f"{f.name}@r{dead}")
            shard.from_numpy(payload)
            f.shards[dead] = shard
            moved += payload.nbytes
            self.stats.restored_payloads += 1
        from ..comm.faces import FaceKernels

        vm.contexts[dead] = spare
        vm.face_kernels[dead] = FaceKernels(spare)
        # the comm buffers are rank state too: without them, halos
        # delivered before this barrier would be lost with the rank.
        # The spare is already installed, so re-resolving a key
        # allocates in *its* pool.
        dead_keys = [k for k in vm._buffers if k[0] == dead]
        for key in dead_keys:
            entry = self._buffer_ckpt.get(key)
            del vm._buffers[key]
            if entry is None:
                continue
            raw, crc = entry
            if _crc(raw) != crc:
                raise BuddyRestoreError(
                    dead, f"comm buffer {key[1]}:{key[2]}{key[3]:+d}",
                    "buffer checkpoint copy failed CRC32 validation")
            addr = vm._buffer(dead, key[1], key[2], key[3], raw.size)
            spare.device.pool.write(addr, raw)
            moved += raw.size
        # the spare joins at the collective barrier: its clock fast-
        # forwards to the bulk (it waited for the restore), so the
        # straggler detector does not mistake the *survivors* for
        # stragglers relative to a newborn clock
        transfer = vm.net.message_time(max(moved, 1))
        others = [c.device.clock
                  for i, c in enumerate(vm.contexts) if i != dead]
        # a barrier join *sets* a fresh rank's time, it charges no
        # cost: the one clock write outside ``Device.charge`` (with
        # the shrink below)
        spare.device.clock = (max(others) if others else 0.0) + transfer
        return self._charge_recovery(f"restore:rank{dead}", transfer)

    def _recover_shrink(self, dead: int) -> float:
        """Rebuild the machine on a smaller processor grid and
        re-partition every field from the checkpointed global state;
        returns the modeled redistribution time."""
        from ..comm.grid import shrunken_grid

        vm = self.vm
        fields = self._alive_fields()
        snapshots = {}
        moved = 0
        for f in fields:
            snapshots[id(f)] = self._global_from_checkpoint(f)
            moved += snapshots[id(f)].nbytes
        base = max((c.device.clock for c in vm.contexts), default=0.0)
        new_grid = shrunken_grid(vm.grid, vm.decomp.global_dims)
        vm._rebuild(new_grid)
        for f in fields:
            f._reshard()
            f.from_global(snapshots[id(f)])
        self._field_ckpt.clear()
        self._buffer_ckpt.clear()
        self._flagged.clear()
        self._open_stragglers.clear()
        for hook in self._shrink_hooks:
            hook(vm)
        # every byte of field state crossed the wire to its new owner;
        # the survivors' clocks carry forward through the stall
        transfer = vm.net.message_time(max(moved, 1))
        # barrier join, as in ``_recover_buddy``: the rebuilt ranks'
        # time is set, not charged
        for c in vm.contexts:
            c.device.clock = base + transfer
        return self._charge_recovery(f"shrink:{vm.nranks}ranks", transfer)

    def _global_from_checkpoint(self, f) -> np.ndarray:
        """Reassemble ``f``'s global array from the checkpoint store
        (the dead rank's shard included) under the *current* decomp."""
        vm = self.vm
        g = vm.global_lattice
        ranks, lidx = vm.decomp.owner_of(g.coords)
        sample = None
        shards = []
        for r in range(vm.nranks):
            entry = self._field_ckpt.get((id(f), r))
            if entry is None:
                raise BuddyRestoreError(
                    r, f"field {f.name}",
                    "no checkpoint copy to redistribute from")
            payload, crc = entry
            if _crc(payload) != crc:
                raise BuddyRestoreError(
                    r, f"field {f.name}",
                    "checkpoint copy failed CRC32 validation")
            shards.append(payload)
            sample = payload
        out = np.empty((g.nsites,) + f.spec.shape, dtype=sample.dtype)
        for r in range(vm.nranks):
            sel = ranks == r
            out[sel] = shards[r][lidx[sel]]
        return out

    # -- reporting -------------------------------------------------------

    def as_json(self) -> dict:
        return {"mode": self.mode, "policy": self.policy,
                **self.stats.as_json()}
