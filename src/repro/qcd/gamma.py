"""Dirac gamma matrices in the DeGrand-Rossi basis.

This is Chroma's basis.  It is chiral: gamma5 is diagonal
(diag(-1,-1,+1,+1) here... computed, not assumed — the test suite
verifies the Clifford algebra), and the products
``sigma_{mu nu} = (i/2)[gamma_mu, gamma_nu]`` are block diagonal in
2x2 spin blocks.  That block structure is exactly what makes the
clover term split into the two 6x6 Hermitian blocks of paper
Sec. VI-A.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..core.expr import ConstSpinMatrix

_i = 1j

#: gamma matrices, DeGrand-Rossi basis: index order (x, y, z, t).
GAMMA = np.zeros((4, 4, 4), dtype=complex)

GAMMA[0] = [[0, 0, 0, _i],
            [0, 0, _i, 0],
            [0, -_i, 0, 0],
            [-_i, 0, 0, 0]]

GAMMA[1] = [[0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0]]

GAMMA[2] = [[0, 0, _i, 0],
            [0, 0, 0, -_i],
            [-_i, 0, 0, 0],
            [0, _i, 0, 0]]

GAMMA[3] = [[0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0]]

#: gamma5 = gamma_x gamma_y gamma_z gamma_t
GAMMA5 = GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]

IDENTITY = np.eye(4, dtype=complex)


def gamma(mu: int) -> np.ndarray:
    """gamma_mu as a NumPy matrix (mu in 0..3 = x,y,z,t)."""
    return GAMMA[mu].copy()


def sigma(mu: int, nu: int) -> np.ndarray:
    """sigma_{mu nu} = (i/2) [gamma_mu, gamma_nu]."""
    g, h = GAMMA[mu], GAMMA[nu]
    return 0.5j * (g @ h - h @ g)


def projector(mu: int, sign: int) -> np.ndarray:
    """The Wilson spin projector ``(1 - sign*gamma_mu)``.

    The hopping term of the Wilson Dirac operator uses
    ``(1 - gamma_mu)`` on forward hops and ``(1 + gamma_mu)`` on
    backward hops (paper Sec. VIII-C).  These matrices have rank 2;
    the constant-folding code generator exploits their many exact
    zeros automatically.
    """
    return IDENTITY - sign * GAMMA[mu]


# the expression-tree constants are immutable nodes: one per argument
# list serves every tree, instead of a matrix and a digest per statement


@cache
def gamma_const(mu: int, precision: str = "f64") -> ConstSpinMatrix:
    """gamma_mu as an expression-tree constant."""
    return ConstSpinMatrix(GAMMA[mu], precision)


@cache
def gamma5_const(precision: str = "f64") -> ConstSpinMatrix:
    return ConstSpinMatrix(GAMMA5, precision)


@cache
def projector_const(mu: int, sign: int,
                    precision: str = "f64") -> ConstSpinMatrix:
    """``(1 - sign*gamma_mu)`` as an expression-tree constant."""
    return ConstSpinMatrix(projector(mu, sign), precision)
