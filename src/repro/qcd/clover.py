"""The clover term (paper Sec. VI-A and Table I lower part).

The clover term

    A(x) = 1 + c * sum_{mu<nu} sigma_{mu nu} F_{mu nu}(x)

is Hermitian and, in our chiral (DeGrand-Rossi) spin basis, splits
into two 6x6 blocks (spins {0,1} x colors, spins {2,3} x colors).
Each block is stored as the 6 real diagonal entries plus the 15
complex entries of the strictly lower triangle; the upper triangle is
recovered by Hermitian conjugation on the fly.

Because the 6x6 blocks *mix* the spin and color index spaces, the
level-wise QDP operators cannot express the application A*psi.  The
framework's user-defined-operation mechanism
(:class:`~repro.core.expr.CustomOpNode`) plugs a custom component
generator into the same kernel-generation machinery — this module is
the reference user of that extension point, mirroring how Chroma adds
the clover term on top of QDP-JIT.

Arithmetic intensity check (paper Table II, DP): 12+60 words of A,
24+24 words of spinor = 960 bytes; 12 components x (2 + 5*8) flops =
504 flops; 504/960 = 0.525.
"""

from __future__ import annotations

import numpy as np

from ..core.expr import CustomOpNode, FieldRef, as_expr
from ..qdp.fields import LatticeField, latt_clover_diag, latt_clover_tri, multi1d
from ..qdp.typesys import CLOVER_BLOCKS, fermion, tri_index
from .gamma import sigma
from .gauge import field_strength_numpy


def _sigma_f_blocks(u: multi1d, coeff: float) -> np.ndarray:
    """Dense clover blocks, shape (nsites, 2, 6, 6) — Hermitian."""
    lattice = u[0].lattice
    n = lattice.nsites
    nd = lattice.nd
    a12 = np.zeros((n, 12, 12), dtype=complex)
    for mu in range(nd):
        for nu in range(mu + 1, nd):
            f = field_strength_numpy(u, mu, nu)
            s = sigma(mu, nu)
            # A[(s,c),(s',c')] += coeff * sigma[s,s'] * F[c,c']
            a12 += coeff * np.einsum("ab,ncd->nacbd", s, f).reshape(n, 12, 12)
    a12 += np.eye(12)[None]
    blocks = np.empty((n, CLOVER_BLOCKS, 6, 6), dtype=complex)
    blocks[:, 0] = a12[:, 0:6, 0:6]
    blocks[:, 1] = a12[:, 6:12, 6:12]
    # sanity: the off-diagonal 6x6 blocks vanish in a chiral basis
    off = max(np.abs(a12[:, 0:6, 6:12]).max(),
              np.abs(a12[:, 6:12, 0:6]).max())
    if off > 1e-10:
        raise RuntimeError(
            f"clover term not block diagonal (off-block magnitude {off:g}); "
            f"spin basis is not chiral")
    return blocks


def _clover_gen(up, node, sidx, cidx, view, conjugate):
    """Component generator for A*psi (the custom-op codegen hook).

    Output component (spin s, color c) lives in block ``b = s // 2``
    at block-row ``i = (s % 2) * 3 + c``:

        chi_i = d_i psi_i + sum_{j<i} L_ij psi_j
                          + sum_{j>i} conj(L_ji) psi_j
    """
    diag_node, tri_node, psi_node = node.operands
    (s,) = sidx
    (c,) = cidx
    b = s // 2
    i = (s % 2) * 3 + c
    ops = up.ops

    def psi_comp(j):
        return up.gen(psi_node, (b * 2 + j // 3,), (j % 3,), view)

    d = up.gen(diag_node, (b,), (i,), view)
    acc = ops.mul(d, psi_comp(i))
    for j in range(6):
        if j == i:
            continue
        if j < i:
            l = up.gen(tri_node, (b,), (tri_index(i, j),), view)
            acc = ops.add(acc, ops.mul(l, psi_comp(j)))
        else:
            # upper triangle = conj of stored lower entry; the
            # conjugation folds into the multiply's sign pattern
            l = up.gen(tri_node, (b,), (tri_index(j, i),), view)
            acc = ops.add(acc, ops.mul_conj(l, psi_comp(j)))
    return ops.conj(acc) if conjugate else acc


class CloverTerm:
    """The packed clover term: construction, application, inversion.

    Parameters
    ----------
    u:
        The gauge field.
    coeff:
        The full coefficient multiplying ``sigma . F`` (in Chroma this
        is ``c_SW * kappa`` absorbed appropriately; we keep it as one
        number and document the convention in the class docstring).
    """

    def __init__(self, u: multi1d, coeff: float, precision: str = "f64"):
        self.u = u
        self.coeff = float(coeff)
        self.precision = precision
        self.lattice = u[0].lattice
        ctx = u[0].context
        self.blocks = _sigma_f_blocks(u, self.coeff)   # (n, 2, 6, 6)
        self.diag = latt_clover_diag(self.lattice, precision, ctx)
        self.tri = latt_clover_tri(self.lattice, precision, ctx)
        self._pack(self.blocks, self.diag, self.tri)
        self._inv_pair: tuple[LatticeField, LatticeField] | None = None

    @staticmethod
    def _pack(blocks: np.ndarray, diag: LatticeField,
              tri: LatticeField) -> None:
        n = blocks.shape[0]
        d = np.empty((n, CLOVER_BLOCKS, 6), dtype=float)
        t = np.empty((n, CLOVER_BLOCKS, 15), dtype=complex)
        for b in range(CLOVER_BLOCKS):
            d[:, b] = np.einsum("nii->ni", blocks[:, b]).real
            for i in range(6):
                for j in range(i):
                    t[:, b, tri_index(i, j)] = blocks[:, b, i, j]
        diag.from_numpy(d)
        tri.from_numpy(t)

    # -- application ------------------------------------------------------

    def apply_expr(self, psi) -> CustomOpNode:
        """The expression node for ``A * psi`` (paper test ``clover``)."""
        psi = as_expr(psi)
        return CustomOpNode(
            "clov", (FieldRef(self.diag), FieldRef(self.tri), psi),
            fermion(self.precision), _clover_gen)

    def apply(self, dest: LatticeField, psi, subset=None):
        return dest.assign(self.apply_expr(psi), subset=subset)

    # -- inverse (needed by even-odd clover and the determinant) ----------

    def _ensure_inverse(self) -> tuple[LatticeField, LatticeField]:
        if self._inv_pair is None:
            inv = np.linalg.inv(self.blocks)   # batched 6x6 inverse
            ctx = self.u[0].context
            idiag = latt_clover_diag(self.lattice, self.precision, ctx)
            itri = latt_clover_tri(self.lattice, self.precision, ctx)
            self._pack(inv, idiag, itri)
            self._inv_pair = (idiag, itri)
        return self._inv_pair

    def apply_inverse_expr(self, psi) -> CustomOpNode:
        """Expression for ``A^{-1} psi`` (the inverse blocks are packed
        in the same diag/tri layout — Hermitian too)."""
        idiag, itri = self._ensure_inverse()
        return CustomOpNode(
            "clovinv", (FieldRef(idiag), FieldRef(itri), as_expr(psi)),
            fermion(self.precision), _clover_gen)

    def apply_inverse(self, dest: LatticeField, psi, subset=None):
        return dest.assign(self.apply_inverse_expr(psi), subset=subset)

    # -- dense reference (for tests) ------------------------------------

    def dense_apply_numpy(self, psi_arr: np.ndarray) -> np.ndarray:
        """Reference: apply the dense blocks to a (n,4,3) spinor."""
        n = psi_arr.shape[0]
        flat = psi_arr.reshape(n, 2, 6)
        out = np.einsum("nbij,nbj->nbi", self.blocks, flat)
        return out.reshape(n, 4, 3)
