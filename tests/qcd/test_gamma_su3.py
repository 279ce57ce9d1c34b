"""Tests for the gamma algebra and SU(3) utilities."""

import numpy as np

from repro.qcd import su3
from repro.qcd.gamma import GAMMA, GAMMA5, IDENTITY, projector, sigma


class TestCliffordAlgebra:
    def test_anticommutation(self):
        """{gamma_mu, gamma_nu} = 2 delta_{mu nu}."""
        for mu in range(4):
            for nu in range(4):
                anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                assert np.allclose(anti, 2 * (mu == nu) * IDENTITY)

    def test_hermiticity(self):
        for mu in range(4):
            assert np.allclose(GAMMA[mu], GAMMA[mu].conj().T)

    def test_gamma5_chiral_diagonal(self):
        """DeGrand-Rossi is a chiral basis: gamma5 diagonal, +/-1."""
        assert np.allclose(GAMMA5, np.diag([1, 1, -1, -1]))

    def test_gamma5_anticommutes(self):
        for mu in range(4):
            assert np.allclose(GAMMA5 @ GAMMA[mu] + GAMMA[mu] @ GAMMA5,
                               np.zeros((4, 4)))

    def test_projector_rank_two(self):
        """The Wilson projectors (1 -/+ gamma_mu) have rank 2 — the
        source of the spin-projection optimization."""
        for mu in range(4):
            for sign in (+1, -1):
                assert np.linalg.matrix_rank(projector(mu, sign)) == 2

    def test_projector_pair_sums_to_two(self):
        for mu in range(4):
            assert np.allclose(projector(mu, +1) + projector(mu, -1),
                               2 * IDENTITY)

    def test_sigma_block_diagonal(self):
        """sigma_{mu nu} commutes with gamma5: the clover term splits
        into two 6x6 blocks (paper Sec. VI-A)."""
        for mu in range(4):
            for nu in range(mu + 1, 4):
                s = sigma(mu, nu)
                assert np.allclose(s @ GAMMA5, GAMMA5 @ s)
                assert np.allclose(s[:2, 2:], 0)
                assert np.allclose(s[2:, :2], 0)

    def test_sigma_hermitian(self):
        for mu in range(4):
            for nu in range(4):
                if mu != nu:
                    assert np.allclose(sigma(mu, nu),
                                       sigma(mu, nu).conj().T)

    def test_sigma_antisymmetric(self):
        assert np.allclose(sigma(0, 1), -sigma(1, 0))


class TestSU3:
    def test_random_su3_is_unitary(self, rng):
        u = su3.random_su3(rng, 50)
        assert su3.unitarity_defect(u) < 1e-12

    def test_random_near_unit(self, rng):
        u = su3.random_su3_near_unit(rng, 50, eps=0.01)
        assert su3.unitarity_defect(u) < 1e-12
        assert np.abs(u - np.eye(3)).max() < 0.2

    def test_expm_unitary(self, rng):
        h = su3.random_hermitian_traceless(rng, 50)
        u = su3.expm_i_hermitian(h)
        assert su3.unitarity_defect(u) < 1e-12

    def test_expm_matches_series(self, rng):
        h = su3.random_hermitian_traceless(rng, 5) * 0.01
        u = su3.expm_i_hermitian(h)
        series = (np.eye(3) + 1j * h - 0.5 * np.einsum(
            "nab,nbc->nac", h, h))
        assert np.abs(u - series).max() < 1e-5

    def test_expm_inverse(self, rng):
        h = su3.random_hermitian_traceless(rng, 10)
        u = su3.expm_i_hermitian(h)
        uinv = su3.expm_i_hermitian(-h)
        prod = np.einsum("nab,nbc->nac", u, uinv)
        assert np.abs(prod - np.eye(3)).max() < 1e-12

    def test_reunitarize_projects(self, rng):
        u = su3.random_su3(rng, 20)
        drifted = u + 1e-4 * (rng.normal(size=u.shape)
                              + 1j * rng.normal(size=u.shape))
        fixed = su3.reunitarize(drifted)
        assert su3.unitarity_defect(fixed) < 1e-12
        assert np.abs(fixed - u).max() < 1e-3

    def test_momenta_normalization(self, rng):
        """<tr P^2> = 4 per link (8 generators at variance 1/2)."""
        h = su3.random_hermitian_traceless(rng, 20000)
        tr2 = np.einsum("nij,nji->n", h, h).real
        assert abs(tr2.mean() - 4.0) < 0.1

    def test_traceless(self, rng):
        h = su3.random_hermitian_traceless(rng, 100)
        assert np.abs(np.einsum("nii->n", h)).max() < 1e-13
