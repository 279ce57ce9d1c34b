"""Processor grid and lattice decomposition.

Node parallelization lives on the outer (Lattice) level of the type
hierarchy (paper Sec. II-B): the global lattice is split into
hypercubic sub-grids, one per rank, with ranks arranged on an
Nd-dimensional processor grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qdp.lattice import Lattice


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class ProcessorGrid:
    """An Nd-dimensional grid of ranks (row-major, dim 0 fastest)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise DecompositionError(f"bad grid dims {self.dims}")

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nd(self) -> int:
        return len(self.dims)

    @property
    def split_dims(self) -> frozenset[int]:
        """The directions the grid splits (more than one rank along
        them): only there does a shift cross a rank boundary."""
        return frozenset(mu for mu, d in enumerate(self.dims) if d > 1)

    def coords_of(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.size:
            raise DecompositionError(f"bad rank {rank}")
        out = []
        for d in self.dims:
            out.append(rank % d)
            rank //= d
        return tuple(out)

    def rank_of(self, coords) -> int:
        rank = 0
        stride = 1
        for c, d in zip(coords, self.dims):
            rank += (c % d) * stride
            stride *= d
        return rank

    def neighbor(self, rank: int, mu: int, sign: int) -> int:
        """The rank one step in (mu, sign); periodic."""
        c = list(self.coords_of(rank))
        c[mu] = (c[mu] + sign) % self.dims[mu]
        return self.rank_of(c)


def shrunken_grid(grid: ProcessorGrid,
                  global_dims: tuple[int, ...]) -> ProcessorGrid:
    """The largest valid processor grid strictly smaller than ``grid``.

    A pure function of the inputs: the candidate grid with the most
    ranks that still decomposes ``global_dims`` (divisibility plus even
    local extents).  Candidates reduce one grid extent at a time; ties
    break toward reducing the highest dimension (time first), which
    keeps the cheap spatial grid layouts intact.  Raises
    :class:`DecompositionError` when no smaller grid decomposes the
    lattice (e.g. a single-rank grid).
    """
    best: tuple[int, ...] | None = None
    best_size = 0
    for mu in reversed(range(grid.nd)):
        for extent in range(grid.dims[mu] - 1, 0, -1):
            cand = list(grid.dims)
            cand[mu] = extent
            try:
                Decomposition(tuple(global_dims),
                              ProcessorGrid(tuple(cand)))
            except DecompositionError:
                continue
            size = int(np.prod(cand))
            if size > best_size:
                best, best_size = tuple(cand), size
            break  # larger extents dominate smaller ones in this dim
    if best is None:
        raise DecompositionError(
            f"grid {grid.dims} cannot shrink: no smaller grid "
            f"decomposes lattice {tuple(global_dims)}")
    return ProcessorGrid(best)


@dataclass(frozen=True)
class Decomposition:
    """A global lattice split over a processor grid."""

    global_dims: tuple[int, ...]
    grid: ProcessorGrid

    def __post_init__(self):
        if len(self.global_dims) != self.grid.nd:
            raise DecompositionError(
                "lattice and processor grid dimensionality differ")
        for l, p in zip(self.global_dims, self.grid.dims):
            if l % p:
                raise DecompositionError(
                    f"lattice extent {l} not divisible by grid extent {p}")
            if (l // p) % 2:
                raise DecompositionError(
                    f"local extent {l // p} must be even (checkerboarding)")

    @property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(l // p for l, p in zip(self.global_dims,
                                            self.grid.dims))

    def local_lattice(self) -> Lattice:
        return Lattice(self.local_dims)

    def global_lattice(self) -> Lattice:
        return Lattice(self.global_dims)

    def owner_of(self, global_coords: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized: (rank, local_site_index) for global coords
        of shape (n, nd)."""
        gc = np.atleast_2d(np.asarray(global_coords))
        ld = np.array(self.local_dims)
        rank_coords = gc // ld
        local_coords = gc % ld
        rank = np.zeros(gc.shape[0], dtype=np.int64)
        stride = 1
        for mu, p in enumerate(self.grid.dims):
            rank += rank_coords[:, mu] * stride
            stride *= p
        lidx = np.zeros(gc.shape[0], dtype=np.int64)
        stride = 1
        for mu, d in enumerate(self.local_dims):
            lidx += local_coords[:, mu] * stride
            stride *= d
        return rank, lidx
