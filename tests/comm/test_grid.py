"""Tests for processor grids and lattice decomposition."""

import numpy as np
import pytest

from repro.comm.grid import (
    Decomposition,
    DecompositionError,
    ProcessorGrid,
    shrunken_grid,
)


class TestProcessorGrid:
    def test_size(self):
        assert ProcessorGrid((2, 1, 1, 2)).size == 4

    def test_split_dims(self):
        assert ProcessorGrid((2, 1, 1, 2)).split_dims == {0, 3}
        assert ProcessorGrid((1, 1, 1, 1)).split_dims == frozenset()
        # a shrink only ever unsplits a direction
        g = ProcessorGrid((1, 1, 2, 2))
        assert shrunken_grid(g, (4, 4, 4, 8)).split_dims < g.split_dims

    def test_coords_roundtrip(self):
        g = ProcessorGrid((2, 3, 1, 2))
        for r in range(g.size):
            assert g.rank_of(g.coords_of(r)) == r

    def test_neighbor_periodic(self):
        g = ProcessorGrid((1, 1, 1, 4))
        assert g.neighbor(0, 3, +1) == 1
        assert g.neighbor(3, 3, +1) == 0
        assert g.neighbor(0, 3, -1) == 3

    def test_neighbor_inverse(self):
        g = ProcessorGrid((2, 2, 2, 2))
        for r in range(g.size):
            for mu in range(4):
                assert g.neighbor(g.neighbor(r, mu, +1), mu, -1) == r

    def test_bad_rank(self):
        with pytest.raises(DecompositionError):
            ProcessorGrid((2, 2)).coords_of(5)

    def test_bad_dims(self):
        with pytest.raises(DecompositionError):
            ProcessorGrid((2, 0))


class TestDecomposition:
    def test_local_dims(self):
        d = Decomposition((8, 8, 8, 16), ProcessorGrid((1, 1, 2, 4)))
        assert d.local_dims == (8, 8, 4, 4)

    def test_indivisible_rejected(self):
        with pytest.raises(DecompositionError):
            Decomposition((8, 8, 8, 10), ProcessorGrid((1, 1, 1, 4)))

    def test_odd_local_rejected(self):
        """Local extents must stay even for checkerboarding."""
        with pytest.raises(DecompositionError):
            Decomposition((4, 4, 4, 8), ProcessorGrid((1, 1, 1, 8)))
        with pytest.raises(DecompositionError):
            Decomposition((6, 4, 4, 4), ProcessorGrid((2, 1, 1, 1)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DecompositionError):
            Decomposition((8, 8, 8), ProcessorGrid((1, 1, 1, 2)))

    def test_owner_of_covers_lattice(self):
        d = Decomposition((4, 4, 4, 8), ProcessorGrid((1, 1, 1, 2)))
        g = d.global_lattice()
        ranks, lidx = d.owner_of(g.coords)
        assert set(ranks) == {0, 1}
        local_n = d.local_lattice().nsites
        for r in (0, 1):
            sel = ranks == r
            assert sel.sum() == local_n
            assert sorted(lidx[sel]) == list(range(local_n))

    def test_owner_respects_blocks(self):
        d = Decomposition((4, 4, 4, 8), ProcessorGrid((1, 1, 1, 2)))
        ranks, _ = d.owner_of(np.array([[0, 0, 0, 0], [0, 0, 0, 7]]))
        assert list(ranks) == [0, 1]


class TestEdgeCases:
    def test_single_rank_grid_wraps_to_itself(self):
        g = ProcessorGrid((1, 1, 1, 1))
        assert g.size == 1
        for mu in range(4):
            assert g.neighbor(0, mu, +1) == 0
            assert g.neighbor(0, mu, -1) == 0

    def test_single_rank_decomposition_is_the_global_lattice(self):
        d = Decomposition((4, 4, 4, 8), ProcessorGrid((1, 1, 1, 1)))
        assert d.local_dims == (4, 4, 4, 8)

    def test_non_power_of_two_grid(self):
        d = Decomposition((4, 6, 4, 8), ProcessorGrid((1, 3, 1, 2)))
        assert d.local_dims == (4, 2, 4, 4)
        g = d.grid
        for r in range(g.size):
            assert g.rank_of(g.coords_of(r)) == r

    def test_owner_of_covers_non_power_of_two(self):
        d = Decomposition((4, 6, 4, 8), ProcessorGrid((1, 3, 1, 2)))
        glat = d.global_lattice()
        ranks, lidx = d.owner_of(glat.coords)
        local_n = d.local_lattice().nsites
        assert set(ranks) == set(range(6))
        for r in range(6):
            sel = ranks == r
            assert sel.sum() == local_n
            assert sorted(lidx[sel]) == list(range(local_n))

    def test_boundary_wrap_neighbor_map(self):
        """Walking +1 in t visits every rank once, then wraps."""
        g = ProcessorGrid((1, 1, 1, 3))
        assert g.neighbor(2, 3, +1) == 0
        assert g.neighbor(0, 3, -1) == 2
        seen, r = [], 0
        for _ in range(g.size):
            seen.append(r)
            r = g.neighbor(r, 3, +1)
        assert sorted(seen) == list(range(g.size))
        assert r == 0


class TestShrunkenGrid:
    def test_prefers_shrinking_the_time_dimension(self):
        g = shrunken_grid(ProcessorGrid((1, 1, 2, 2)), (4, 4, 4, 8))
        assert g.dims == (1, 1, 2, 1)

    def test_two_ranks_shrink_to_one(self):
        g = shrunken_grid(ProcessorGrid((1, 1, 1, 2)), (4, 4, 4, 8))
        assert g.dims == (1, 1, 1, 1)

    def test_skips_non_decomposing_extents(self):
        # 8 % 3 != 0, so t=4 shrinks past 3 straight to 2
        g = shrunken_grid(ProcessorGrid((1, 1, 1, 4)), (4, 4, 4, 8))
        assert g.dims == (1, 1, 1, 2)

    def test_single_rank_cannot_shrink(self):
        with pytest.raises(DecompositionError):
            shrunken_grid(ProcessorGrid((1, 1, 1, 1)), (4, 4, 4, 8))

    def test_result_decomposes_and_is_deterministic(self):
        grid = ProcessorGrid((2, 1, 2, 2))
        a = shrunken_grid(grid, (4, 4, 4, 8))
        b = shrunken_grid(grid, (4, 4, 4, 8))
        assert a.dims == b.dims
        assert a.size < grid.size
        Decomposition((4, 4, 4, 8), a)   # must not raise
