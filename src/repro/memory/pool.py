"""Device memory pool: a flat virtual address space with an allocator.

The simulated GPU's global memory is one contiguous byte range.
Kernel parameters carry real byte addresses into this range, so the
pointer arithmetic performed by generated PTX (base + layout offset)
is genuine, and the driver JIT implements ``ld.global``/``st.global``
as single vectorized gathers/scatters on typed views of the backing
buffer.

The allocator is a first-fit free list with 256-byte alignment
(matching ``cudaMalloc`` alignment).  :class:`DeviceOutOfMemory` is
the signal that drives the LRU spill policy in
:mod:`repro.memory.cache` (paper Sec. IV).
"""

from __future__ import annotations

import bisect
import mmap
from dataclasses import dataclass

import numpy as np

#: Allocation alignment in bytes (cudaMalloc guarantees >= 256).
ALIGNMENT = 256

#: The first usable device address; address 0 is the null pointer.
BASE_ADDRESS = ALIGNMENT


class DeviceOutOfMemory(Exception):
    """Raised when an allocation cannot be satisfied."""


class InvalidFree(Exception):
    """Raised when freeing an address that is not allocated."""


@dataclass
class PoolStats:
    """Cumulative allocator statistics."""

    n_allocs: int = 0
    n_frees: int = 0
    bytes_in_use: int = 0
    peak_bytes_in_use: int = 0
    n_failed_allocs: int = 0


def _align_up(n: int, a: int = ALIGNMENT) -> int:
    return (n + a - 1) // a * a


class DevicePool:
    """Flat device memory with a first-fit free-list allocator.

    Parameters
    ----------
    capacity:
        Usable bytes of device memory.  The backing buffer is an
        anonymous mapping, zero-initialized and committed by the OS
        one page at a time as it is touched, so large capacities are
        cheap.  (``np.zeros`` of this size would ask the kernel for
        transparent huge pages, and then whether a touched region
        costs a 4 KiB page or a 2 MiB one depends on the kernel's
        state, not on the program.)
    """

    def __init__(self, capacity: int = 1 << 30):
        if capacity <= 2 * ALIGNMENT:
            raise ValueError("pool capacity too small")
        # round down so every typed view divides the backing buffer
        self.capacity = int(capacity) // ALIGNMENT * ALIGNMENT
        self._mem = np.frombuffer(mmap.mmap(-1, self.capacity),
                                  dtype=np.uint8)
        self._views: dict[str, np.ndarray] = {}
        # free list: sorted list of (addr, size) extents
        self._free: list[tuple[int, int]] = [
            (BASE_ADDRESS, self.capacity - BASE_ADDRESS)
        ]
        self._allocs: dict[int, int] = {}  # addr -> size
        self.stats = PoolStats()

    # -- typed access -------------------------------------------------

    def view(self, dtype) -> np.ndarray:
        """A flat view of device memory with element type ``dtype``."""
        key = np.dtype(dtype).str
        v = self._views.get(key)
        if v is None:
            v = self._mem.view(dtype)
            self._views[key] = v
        return v

    # -- allocation -----------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns the device address.

        Raises :class:`DeviceOutOfMemory` when no free extent fits.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        size = _align_up(int(nbytes))
        for i, (addr, extent) in enumerate(self._free):
            if extent >= size:
                if extent == size:
                    self._free.pop(i)
                else:
                    self._free[i] = (addr + size, extent - size)
                self._allocs[addr] = size
                self.stats.n_allocs += 1
                self.stats.bytes_in_use += size
                self.stats.peak_bytes_in_use = max(
                    self.stats.peak_bytes_in_use, self.stats.bytes_in_use)
                return addr
        self.stats.n_failed_allocs += 1
        raise DeviceOutOfMemory(
            f"cannot allocate {size} bytes "
            f"({self.stats.bytes_in_use}/{self.capacity} in use)")

    def free(self, addr: int) -> None:
        """Return an allocation to the free list, coalescing neighbors."""
        size = self._allocs.pop(addr, None)
        if size is None:
            raise InvalidFree(f"address {addr:#x} is not allocated")
        self.stats.n_frees += 1
        self.stats.bytes_in_use -= size
        i = bisect.bisect_left(self._free, (addr, 0))
        self._free.insert(i, (addr, size))
        # coalesce with successor, then predecessor
        if i + 1 < len(self._free):
            a, s = self._free[i]
            na, ns = self._free[i + 1]
            if a + s == na:
                self._free[i] = (a, s + ns)
                self._free.pop(i + 1)
        if i > 0:
            pa, ps = self._free[i - 1]
            a, s = self._free[i]
            if pa + ps == a:
                self._free[i - 1] = (pa, ps + s)
                self._free.pop(i)

    def allocation_size(self, addr: int) -> int:
        return self._allocs[addr]

    @property
    def bytes_free(self) -> int:
        return sum(s for _, s in self._free)

    @property
    def largest_free_extent(self) -> int:
        return max((s for _, s in self._free), default=0)

    # -- host<->device transfer primitives ------------------------------
    # (The runtime layers accounting/timing on top of these.)

    def write(self, addr: int, data: np.ndarray) -> None:
        """Copy host array bytes to device memory at ``addr``."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if addr < BASE_ADDRESS or addr + raw.size > self.capacity:
            raise ValueError("device write out of range")
        self._mem[addr:addr + raw.size] = raw

    def read(self, addr: int, nbytes: int, dtype=np.uint8,
             out: np.ndarray | None = None) -> np.ndarray:
        """Copy device bytes starting at ``addr`` to a new host array,
        or into ``out``'s ``out.nbytes`` bytes (one copy) and return it."""
        if addr < BASE_ADDRESS or addr + nbytes > self.capacity:
            raise ValueError("device read out of range")
        if out is not None:
            if out.nbytes > nbytes:
                raise ValueError("host buffer larger than the device read")
            src = self._mem[addr:addr + out.nbytes]
            np.copyto(out, src.view(out.dtype).reshape(out.shape))
            return out
        raw = self._mem[addr:addr + nbytes].copy()
        return raw.view(dtype)
