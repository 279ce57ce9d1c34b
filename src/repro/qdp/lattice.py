"""Lattice geometry: the hypercubic grid, site indexing, shift maps,
and checkerboard subsets.

A :class:`Lattice` describes the (node-local) sub-grid of sites.  Site
ordering is lexicographic with the first dimension fastest.  Shift
maps are the gather tables implementing the QDP++ ``shift`` operation
(paper Sec. II-C): ``shift(phi, FORWARD, mu)(x) = phi(x + mu)``, with
periodic wrap-around on a single node.  In multi-node runs the wrap
crosses node boundaries; :mod:`repro.comm` builds the corresponding
face/recv maps from the same geometry primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..ptx.absint import table_facts

FORWARD = +1
BACKWARD = -1


@dataclass(frozen=True)
class Subset:
    """A subset of lattice sites (QDP++ ``Subset``).

    ``sites`` is the sorted array of member site indices, read-only
    from construction on; ``name`` feeds kernel cache keys (kernels
    are specialized on whether they run on the full lattice or
    through a site table).
    """

    name: str
    sites: np.ndarray
    is_full: bool = False

    def __post_init__(self):
        self.sites.flags.writeable = False

    @cached_property
    def table_facts(self) -> tuple:
        """:func:`~repro.ptx.absint.table_facts` of ``sites``, measured
        once: the launch env's ``p_stab`` region."""
        return table_facts(self.sites)

    def __len__(self) -> int:
        return int(self.sites.size)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subset) and self.name == other.name
                and np.array_equal(self.sites, other.sites))

    def __hash__(self) -> int:
        return hash((self.name, self.sites.tobytes()))


class Lattice:
    """An Nd-dimensional hypercubic lattice (node-local sub-grid).

    Parameters
    ----------
    dims:
        Extent in each dimension, e.g. ``(8, 8, 8, 16)``.  All extents
        must be even so the even/odd checkerboarding is well defined
        and shift maps are parity-flipping.
    """

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("lattice needs at least one dimension")
        if any(d < 2 or d % 2 for d in dims):
            raise ValueError(f"all extents must be even and >= 2, got {dims}")
        self.dims = dims
        self.nd = len(dims)
        self.nsites = int(np.prod(dims))
        self._shift_maps: dict[tuple[int, int], np.ndarray] = {}
        self._shift_facts: dict[tuple[int, int], tuple] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Lattice{self.dims}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    # -- site indexing -------------------------------------------------

    @cached_property
    def coords(self) -> np.ndarray:
        """Array of shape (nsites, nd): coordinates of every site.

        Site index is lexicographic with dimension 0 fastest:
        ``index = x0 + dims[0]*(x1 + dims[1]*(x2 + ...))``.
        """
        idx = np.arange(self.nsites)
        out = np.empty((self.nsites, self.nd), dtype=np.int64)
        for mu, d in enumerate(self.dims):
            out[:, mu] = idx % d
            idx = idx // d
        return out

    def site_index(self, coords) -> int | np.ndarray:
        """Site index of coordinate(s); accepts (nd,) or (n, nd)."""
        coords = np.asarray(coords)
        single = coords.ndim == 1
        c = np.atleast_2d(coords) % np.array(self.dims)
        idx = np.zeros(c.shape[0], dtype=np.int64)
        stride = 1
        for mu, d in enumerate(self.dims):
            idx += c[:, mu] * stride
            stride *= d
        return int(idx[0]) if single else idx

    # -- parity / subsets ---------------------------------------------------

    @cached_property
    def parity(self) -> np.ndarray:
        """Checkerboard parity (0 = even, 1 = odd) of every site."""
        return (self.coords.sum(axis=1) % 2).astype(np.int32)

    @cached_property
    def all_sites(self) -> Subset:
        return Subset("all", np.arange(self.nsites, dtype=np.int32),
                      is_full=True)

    @cached_property
    def even(self) -> Subset:
        return Subset("even", np.nonzero(self.parity == 0)[0].astype(np.int32))

    @cached_property
    def odd(self) -> Subset:
        return Subset("odd", np.nonzero(self.parity == 1)[0].astype(np.int32))

    def checkerboard(self, cb: int) -> Subset:
        """Subset with parity ``cb`` (0 even / 1 odd)."""
        return self.even if cb == 0 else self.odd

    # -- shift maps -----------------------------------------------------------

    def shift_map(self, mu: int, sign: int) -> np.ndarray:
        """Gather table for ``shift(phi, sign, mu)``.

        ``T`` such that ``result[x] = phi[T[x]]``; for the forward
        shift ``T[x] = index(x + mu_hat)`` with periodic wrap.  Tables
        are int32 (they are uploaded to the device and read by the
        generated kernels) and read-only.
        """
        if not 0 <= mu < self.nd:
            raise ValueError(f"bad direction mu={mu}")
        if sign not in (FORWARD, BACKWARD):
            raise ValueError(f"bad sign {sign}; use FORWARD/BACKWARD")
        key = (mu, sign)
        table = self._shift_maps.get(key)
        if table is None:
            c = self.coords.copy()
            c[:, mu] = (c[:, mu] + sign) % self.dims[mu]
            table = np.asarray(self.site_index(c), dtype=np.int32)
            table.flags.writeable = False
            self._shift_maps[key] = table
            self._shift_facts[key] = table_facts(table)
        return table

    def shift_facts(self, mu: int, sign: int) -> tuple:
        """:func:`~repro.ptx.absint.table_facts` of :meth:`shift_map`'s
        table, measured with it: the launch env's ``p_sh`` region."""
        self.shift_map(mu, sign)
        return self._shift_facts[mu, sign]

    def face_sites(self, mu: int, sign: int) -> np.ndarray:
        """Sites whose ``shift(, sign, mu)`` source wraps the boundary.

        For a forward shift these are the sites at the upper boundary
        ``x_mu = dims[mu]-1`` (their source ``x+mu`` wraps to 0); they
        are the sites that need off-node data in a multi-node run —
        the "face sites" of paper Sec. V.
        """
        if sign == FORWARD:
            sel = self.coords[:, mu] == self.dims[mu] - 1
        else:
            sel = self.coords[:, mu] == 0
        return np.nonzero(sel)[0].astype(np.int32)

    def inner_sites(self, directions) -> np.ndarray:
        """Sites not on any face of the given (mu, sign) list.

        The complement of the union of faces: the "inner sites" on
        which computation overlaps with communication (paper Sec. V).
        """
        mask = np.ones(self.nsites, dtype=bool)
        for mu, sign in directions:
            mask[self.face_sites(mu, sign)] = False
        return np.nonzero(mask)[0].astype(np.int32)
