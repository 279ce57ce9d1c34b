"""Automated GPU memory management: the software cache (paper Sec. IV).

Prior to a kernel launch the evaluator walks the expression AST,
extracts the data fields referenced at the leaves and asks this cache
to *make them available* in device memory.  Fields are paged out
(copied back to host memory) either when host code accesses them or
when a caching event cannot be serviced because device memory is full
— in which case a **least-recently-used** spill policy, based on the
timestamp of the last reference from a compute kernel, picks victims.

The cache fully automates CUDA memory management: user code never
issues a transfer.  Coherence is tracked per field with two validity
bits (host/device); the cache is the only component that mutates them.

Transfers are issued *asynchronously* on the device's dedicated copy
streams (:mod:`repro.runtime.stream`): page-ins go to the H2D stream
and record a per-entry ready event that the compute stream waits on
before any kernel may read the upload; LRU writebacks go to the D2H
stream (ordered after all compute enqueued so far) and record a reuse
event that gates the *next* upload — freed device memory may be
reallocated, so the writeback must drain before new bytes land on it.
Data still moves eagerly in program order, so results are bitwise
identical to the serial model; only modeled *time* overlaps.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol

import numpy as np

from .pool import DeviceOutOfMemory

if TYPE_CHECKING:  # the device drags in the driver: hint-only import
    from ..device.gpu import Device
    from ..runtime.stream import Event


class CacheableField(Protocol):
    """What the cache needs from a field object."""

    uid: int
    host: np.ndarray           # flat host-side data (SoA layout)
    host_valid: bool
    device_valid: bool

    @property
    def nbytes(self) -> int: ...


@dataclass
class CacheEntry:
    addr: int
    nbytes: int
    last_use: int
    ref: weakref.ref
    #: H2D completion event of the pending upload; the compute stream
    #: waits on it before a kernel may read this entry
    ready: "Event | None" = None


@dataclass
class CacheStats:
    #: residency hits/misses per requested field in
    #: :meth:`FieldCache.make_available` (a hit whose device copy is
    #: stale still pays a refresh page-in)
    hits: int = 0
    misses: int = 0
    page_ins: int = 0
    page_outs: int = 0
    spills: int = 0
    bytes_paged_in: int = 0
    bytes_paged_out: int = 0
    evictions_clean: int = 0
    #: high-water mark of bytes resident in the device pool
    resident_bytes_hwm: int = 0


class SpillImpossible(DeviceOutOfMemory):
    """Device memory exhausted and nothing can be spilled."""


class NoValidCopyError(RuntimeError):
    """A field holds no valid copy on either side of the cache.

    Raised when a kernel needs a field that was never initialized (or
    whose only copy was explicitly invalidated) — the coherence bits
    say neither the host nor the device array is current.  Carries the
    field's identity so diagnostics can name the culprit, and renders
    as a structured :class:`~repro.diagnostics.Diagnostic`.
    """

    def __init__(self, uid: int, nbytes: int, where: str):
        self.uid = uid
        self.nbytes = nbytes
        self.where = where
        super().__init__(
            f"field {uid} ({nbytes} bytes) has no valid copy anywhere "
            f"(host and device both stale) in {where}")

    @property
    def diagnostic(self):
        from ..diagnostics import Diagnostic, Severity

        return Diagnostic(
            severity=Severity.ERROR, pass_name="field-cache",
            message=f"no valid copy anywhere ({self.nbytes} bytes, "
                    f"host and device both stale)",
            obj=f"field {self.uid}", location=self.where)


class FieldCache:
    """The software cache managing a device's field residency."""

    def __init__(self, device: "Device"):
        self.device = device
        self.entries: dict[int, CacheEntry] = {}
        self.stats = CacheStats()
        self._clock = 0
        #: D2H event of the most recent LRU writeback; the next upload
        #: waits on it before reusing the freed device memory
        self._reuse_event: "Event | None" = None
        #: called before any host<->device coherence transition that
        #: host code observes — the context wires this to its fusion
        #: queue so pending deferred statements launch first (the
        #: ``to_numpy``/``from_numpy`` flush barriers).  The queue
        #: guards against reentry; launches themselves never call
        #: ensure_host/invalidate_device.
        self.flush_hook = None

    # -- internals -----------------------------------------------------

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _field_of(self, entry: CacheEntry):
        return entry.ref()

    def _release_entry(self, uid: int) -> None:
        entry = self.entries.pop(uid, None)
        if entry is not None:
            self.device.mem_free(entry.addr)

    def _on_field_deleted(self, uid: int) -> None:
        # weakref callback: the field was garbage collected
        self._release_entry(uid)

    def _spill_one(self, pinned: set[int]) -> bool:
        """Page out the least-recently-used unpinned field.

        Returns True if something was freed.  A field whose only valid
        copy lives on the device is copied back to host first (the
        "page-out" of the paper); a field with a valid host copy is
        dropped without a transfer.
        """
        victims = sorted(
            ((e.last_use, uid) for uid, e in self.entries.items()
             if uid not in pinned),
        )
        if not victims:
            return False
        _, uid = victims[0]
        entry = self.entries[uid]
        f = self._field_of(entry)
        if f is not None and f.device_valid and not f.host_valid:
            data = self.device.memcpy_dtoh(entry.addr, entry.nbytes,
                                           dtype=f.host.dtype,
                                           name=f"pageout:f{uid}")
            f.host[...] = data[:f.host.size]
            f.host_valid = True
            self.stats.page_outs += 1
            self.stats.bytes_paged_out += entry.nbytes
            # the freed memory may be handed right back out: gate the
            # next upload on this writeback draining
            self._reuse_event = self.device.runtime.d2h.record_event()
        else:
            self.stats.evictions_clean += 1
        if f is not None:
            f.device_valid = False
        self.stats.spills += 1
        self._release_entry(uid)
        return True

    def _allocate_with_spill(self, nbytes: int, pinned: set[int]) -> int:
        while True:
            try:
                return self.device.mem_alloc(nbytes)
            except DeviceOutOfMemory:
                if not self._spill_one(pinned):
                    raise SpillImpossible(
                        f"cannot make {nbytes} bytes available: all "
                        f"{len(self.entries)} cached fields are pinned "
                        f"by the current kernel") from None

    # -- public API ------------------------------------------------------

    def make_available(self, fields: Iterable[CacheableField],
                       write_only: Iterable[int] = ()) -> dict[int, int]:
        """Ensure every field is resident on the device.

        ``write_only`` lists uids whose contents will be fully
        overwritten by the kernel: they get device storage but no
        host-to-device copy.  Returns ``{uid: device_address}``.

        All requested fields are pinned for the duration of the call so
        the spill policy never evicts a member of the working set.
        """
        fields = list(fields)
        write_only = set(write_only)
        pinned = {f.uid for f in fields}
        addrs: dict[int, int] = {}
        now = self._tick()
        for f in fields:
            entry = self.entries.get(f.uid)
            if entry is None:
                self.stats.misses += 1
                addr = self._allocate_with_spill(f.nbytes, pinned)
                entry = CacheEntry(
                    addr=addr, nbytes=f.nbytes, last_use=now,
                    ref=weakref.ref(
                        f, lambda _, uid=f.uid: self._on_field_deleted(uid)))
                self.entries[f.uid] = entry
                if f.uid not in write_only:
                    if not f.host_valid:
                        raise NoValidCopyError(f.uid, f.nbytes,
                                               "make_available")
                    self._page_in(entry, f)
            else:
                self.stats.hits += 1
                entry.last_use = now
                if f.uid not in write_only and not f.device_valid:
                    # device copy stale (host was modified): refresh
                    self._page_in(entry, f)
            addrs[f.uid] = entry.addr
        # every upload must land before the kernel reads it: the
        # compute stream waits each pending H2D ready event once
        compute = self.device.runtime.compute
        for f in fields:
            entry = self.entries[f.uid]
            if entry.ready is not None:
                compute.wait_event(entry.ready)
                entry.ready = None
        self.stats.resident_bytes_hwm = max(
            self.stats.resident_bytes_hwm, self.resident_bytes())
        return addrs

    def _page_in(self, entry: CacheEntry, f: CacheableField) -> None:
        """Async upload of ``f`` to its device slot on the H2D stream."""
        h2d = self.device.runtime.h2d
        if self._reuse_event is not None:
            # writeback-before-reuse: the memory this upload targets
            # may have just been vacated by a pending D2H writeback
            h2d.wait_event(self._reuse_event)
            self._reuse_event = None
        self.device.memcpy_htod(entry.addr, f.host,
                                name=f"pagein:f{f.uid}")
        entry.ready = h2d.record_event()
        f.device_valid = True
        self.stats.page_ins += 1
        self.stats.bytes_paged_in += f.nbytes

    def mark_device_dirty(self, f: CacheableField) -> None:
        """Record that a kernel wrote ``f``: host copy is now stale."""
        f.device_valid = True
        f.host_valid = False

    def ensure_host(self, f: CacheableField) -> None:
        """Page a field out to the host before CPU code reads it.

        The device copy stays resident and valid (read sharing); a
        subsequent CPU *write* must call :meth:`invalidate_device`.
        """
        if self.flush_hook is not None:
            self.flush_hook()
        if f.host_valid:
            return
        entry = self.entries.get(f.uid)
        if entry is None or not f.device_valid:
            raise NoValidCopyError(f.uid, f.nbytes, "ensure_host")
        data = self.device.memcpy_dtoh(entry.addr, entry.nbytes,
                                       dtype=f.host.dtype,
                                       name=f"pageout:f{f.uid}")
        f.host[...] = data[:f.host.size]
        f.host_valid = True
        self.stats.page_outs += 1
        self.stats.bytes_paged_out += entry.nbytes

    def invalidate_device(self, f: CacheableField) -> None:
        """CPU code wrote the host copy: the device copy is stale.

        Drains the deferred-statement queue first: a pending statement
        reading ``f`` must consume the value ``f`` held *before* this
        host write (program order), and a pending write of ``f`` must
        land before being superseded.
        """
        if self.flush_hook is not None:
            self.flush_hook()
        f.device_valid = False
        f.host_valid = True

    def release(self, f: CacheableField) -> None:
        """Drop a field's device residency (no page-out)."""
        f.device_valid = False
        self._release_entry(f.uid)

    def resident_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries.values())

    def is_resident(self, f: CacheableField) -> bool:
        return f.uid in self.entries
