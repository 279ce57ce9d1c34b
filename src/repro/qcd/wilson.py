"""The Wilson-type fermion matrix — Wilson or Wilson-clover — and its
even-odd preconditioned form.

Conventions (Chroma's kappa normalization):

    M = A - kappa * D                      (unpreconditioned)

with D the hopping term of :mod:`repro.qcd.dslash` and A the site
term: ``A = 1`` for the Wilson operator, and for the clover operator
(the paper's production action: 2+1 flavours of anisotropic clover
fermions) ``A = 1 + c * sum_{mu<nu} sigma.F``, the packed clover term
of :mod:`repro.qcd.clover` applied through its custom-op kernel.
Because ``sigma_{mu nu}`` commutes with gamma5, gamma5-Hermiticity
``gamma5 M gamma5 = M-dagger`` holds for both.

Even-odd (red-black) preconditioning splits sites by parity; with
``M_eo = -kappa D_eo`` the Schur complement on the even sublattice is
(Chroma's ``EvenOddPrecCloverOp``)

    M_prec = A_ee - kappa^2 D_eo A_oo^{-1} D_oe

which is what the solvers in both QDP-JIT-based Chroma and QUDA
actually invert (half the volume, squared condition improvement).
For Wilson ``A_ee = A_oo^{-1} = 1`` and no site term is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.expr import ScalarParam
from ..qdp.fields import LatticeField, latt_fermion, multi1d
from .clover import CloverTerm
from .dslash import dslash_expr


@dataclass
class WilsonParams:
    """Physics parameters of the Wilson-type operator.

    ``kappa = 1 / (2 m + 8)`` relates the hopping parameter to the
    bare mass m (isotropic 4-d).  ``anisotropy`` optionally scales the
    temporal hops (the paper's production runs use anisotropic
    lattices).  ``clover_coeff`` set (zero included) adds the clover
    site term with that coefficient; ``None`` is the Wilson operator.
    """

    kappa: float
    anisotropy: float | None = None
    clover_coeff: float | None = None

    @property
    def mass(self) -> float:
        return (1.0 / self.kappa - 8.0) / 2.0

    def hop_coeffs(self, nd: int):
        if self.anisotropy is None:
            return None
        c = [1.0] * nd
        c[nd - 1] = self.anisotropy
        return c


class WilsonOperator:
    """The full-lattice matrix M = A - kappa D."""

    def __init__(self, u: multi1d, params: WilsonParams,
                 precision: str = "f64"):
        self.u = u
        self.params = params
        self.precision = precision
        self.lattice = u[0].lattice
        self.coeffs = params.hop_coeffs(self.lattice.nd)
        self.clover = (None if params.clover_coeff is None else
                       CloverTerm(u, params.clover_coeff, precision))

    def new_fermion(self) -> LatticeField:
        return latt_fermion(self.lattice, self.precision, self.u[0].context)

    def _site(self, psi):
        """A psi: psi itself for Wilson, the clover custom op otherwise."""
        return psi if self.clover is None else self.clover.apply_expr(psi)

    def _dslash(self, psi, sign: int = +1):
        return dslash_expr(self.u, psi, sign=sign, coeffs=self.coeffs,
                           precision=self.precision)

    def _apply_sign(self, dest: LatticeField, psi, sign: int) -> None:
        kappa = ScalarParam(self.params.kappa, self.precision)
        dest.assign(self._site(psi) - kappa * self._dslash(psi, sign))

    def apply(self, dest: LatticeField, psi) -> None:
        """dest = M psi."""
        self._apply_sign(dest, psi, +1)

    def apply_dagger(self, dest: LatticeField, psi) -> None:
        """dest = M-dagger psi (via gamma5-Hermiticity structure)."""
        self._apply_sign(dest, psi, -1)

    def apply_mdagm(self, dest: LatticeField, psi,
                    tmp: LatticeField | None = None) -> None:
        """dest = M-dagger M psi — the Hermitian positive-definite
        normal operator the CG solver inverts."""
        tmp = tmp if tmp is not None else self.new_fermion()
        self.apply(tmp, psi)
        self.apply_dagger(dest, tmp)


class EvenOddWilsonOperator(WilsonOperator):
    """The even-odd preconditioned matrix on the even subset:

        M_prec psi_e = A_ee psi_e - kappa^2 D_eo A_oo^{-1} (D_oe psi_e)

    Apply/apply_dagger evaluate only on the relevant checkerboards, so
    each application moves half the data of the full operator.
    """

    def __init__(self, u: multi1d, params: WilsonParams,
                 precision: str = "f64"):
        super().__init__(u, params, precision)
        self._t1 = self.new_fermion()
        self._t2 = None if self.clover is None else self.new_fermion()

    @property
    def even(self):
        return self.lattice.even

    @property
    def odd(self):
        return self.lattice.odd

    def _inverse_odd(self, dest: LatticeField, src: LatticeField
                     ) -> LatticeField:
        """The field whose odd sites hold A_oo^{-1} src: ``src`` itself
        for Wilson (no statement), ``dest`` written by the clover
        inverse otherwise."""
        if self.clover is None:
            return src
        self.clover.apply_inverse(dest, src, subset=self.odd)
        return dest

    def _apply_sign(self, dest: LatticeField, psi, sign: int) -> None:
        k2 = ScalarParam(self.params.kappa ** 2, self.precision)
        self._t1.assign(self._dslash(psi, sign), subset=self.odd)
        d_eo = self._dslash(self._inverse_odd(self._t2, self._t1), sign)
        dest.assign(self._site(psi) - k2 * d_eo, subset=self.even)

    # -- full-system reconstruction ------------------------------------

    def prepare_source(self, chi: LatticeField) -> LatticeField:
        """chi'_e = chi_e + kappa D_eo A_oo^{-1} chi_o (Schur forward
        step)."""
        k = ScalarParam(self.params.kappa, self.precision)
        out = self.new_fermion()
        d = self._dslash(self._inverse_odd(self._t1, chi))
        out.assign(chi + k * d, subset=self.even)
        out.assign(chi.ref(), subset=self.odd)
        return out

    def reconstruct(self, psi_e: LatticeField, chi: LatticeField
                    ) -> LatticeField:
        """psi_o = A_oo^{-1} (chi_o + kappa D_oe psi_e) (Schur
        back-substitution)."""
        k = ScalarParam(self.params.kappa, self.precision)
        out = self.new_fermion()
        out.assign(psi_e.ref(), subset=self.even)
        rhs = out if self.clover is None else self._t1
        rhs.assign(chi + k * self._dslash(psi_e), subset=self.odd)
        self._inverse_odd(out, rhs)
        return out
