"""Action monomials for HMC/RHMC gauge generation.

Chroma decomposes the molecular-dynamics action into *monomials*
(gauge action, two-flavor pseudofermion, Hasenbusch mass-
preconditioned ratios, one-flavor rational terms) that can be placed
on different timescales of the integrator.  The paper's production
run (Fig. 7) is exactly such a composition: 2+1 flavors with mass
preconditioning [13] and the rational approximation [14] for the
strange quark.

Every monomial implements ``refresh`` (pseudofermion heatbath),
``action`` and ``force``; all force conventions are finite-difference
tested (see :mod:`repro.hmc.forces`).
"""

from __future__ import annotations

import numpy as np

from ..core.reduction import innerProduct, norm2
from ..qdp.fields import LatticeField, latt_fermion, multi1d
from ..qcd.solver import bicgstab, cg, multishift_cg
from ..qcd.wilson import WilsonOperator, WilsonParams
from .forces import dslash_outer_force, wilson_gauge_action, wilson_gauge_force
from .rational import PartialFraction


class CloverForceError(NotImplementedError):
    """Clover params reached a fermion monomial.  Its force is the
    hopping term's outer product alone; the clover term's sigma.F
    derivative and ``log det A_ee`` term (ROADMAP item 4(f)) are not
    there, so the trajectory would integrate the wrong force."""


def _require_wilson(*params: WilsonParams) -> None:
    for p in params:
        if p.clover_coeff is not None:
            raise CloverForceError(
                f"clover_coeff={p.clover_coeff!r}: the fermion monomials "
                "have no clover force yet (ROADMAP item 4(f)); pass "
                "Wilson params (clover_coeff=None)")


class Monomial:
    """Base class: a term of the MD action."""

    name = "monomial"

    def refresh(self, u: multi1d, rng: np.random.Generator) -> None:
        """Pseudofermion heatbath at the start of a trajectory."""

    def action(self, u: multi1d) -> float:
        raise NotImplementedError

    def force(self, u: multi1d) -> np.ndarray:
        raise NotImplementedError


class GaugeMonomial(Monomial):
    """The Wilson plaquette gauge action."""

    name = "gauge"

    def __init__(self, beta: float):
        self.beta = float(beta)

    def action(self, u: multi1d) -> float:
        return wilson_gauge_action(u, self.beta)

    def force(self, u: multi1d) -> np.ndarray:
        return wilson_gauge_force(u, self.beta)


class TwoFlavorWilsonMonomial(Monomial):
    """S = phi+ (M+ M)^{-1} phi — two degenerate Wilson flavors."""

    name = "two_flavor"

    def __init__(self, params: WilsonParams, tol: float = 1e-9,
                 max_iter: int = 2000):
        _require_wilson(params)
        self.params = params
        self.tol = tol
        self.max_iter = max_iter
        self.phi: LatticeField | None = None
        self.solve_iterations = 0

    def _op(self, u: multi1d) -> WilsonOperator:
        return WilsonOperator(u, self.params)

    def refresh(self, u: multi1d, rng: np.random.Generator) -> None:
        m = self._op(u)
        eta = m.new_fermion()
        eta.gaussian(rng)
        self.phi = m.new_fermion()
        m.apply_dagger(self.phi, eta)     # phi = M+ eta  =>  S = |eta|^2

    def _solve_x(self, u: multi1d) -> tuple[LatticeField, WilsonOperator]:
        m = self._op(u)
        x = m.new_fermion()
        res = cg(lambda d, s: m.apply_mdagm(d, s), x, self.phi,
                 tol=self.tol, max_iter=self.max_iter)
        if not res.converged:
            raise RuntimeError(
                f"two-flavor CG failed: residual {res.residual_norm:g}")
        self.solve_iterations += res.iterations
        return x, m

    def action(self, u: multi1d) -> float:
        x, _ = self._solve_x(u)
        return innerProduct(self.phi, x).real

    def force(self, u: multi1d) -> np.ndarray:
        x, m = self._solve_x(u)
        y = m.new_fermion()
        m.apply(y, x)
        g = dslash_outer_force(u, x.to_numpy(), y.to_numpy(),
                               coeffs=self.params.hop_coeffs(u[0].lattice.nd))
        return -self.params.kappa * g


class HasenbuschRatioMonomial(Monomial):
    """Mass preconditioning [13]: S = phi+ M2 (M1+ M1)^{-1} M2+ phi.

    M1 is the light (target) operator, M2 the heavier preconditioner;
    the ratio has a mild force, letting the expensive light solves sit
    on a coarser timescale.  (The heavy determinant is supplied by a
    separate TwoFlavor monomial with M2's mass.)
    """

    name = "hasenbusch"

    def __init__(self, light: WilsonParams, heavy: WilsonParams,
                 tol: float = 1e-9, max_iter: int = 2000):
        _require_wilson(light, heavy)
        self.light = light
        self.heavy = heavy
        self.tol = tol
        self.max_iter = max_iter
        self.phi: LatticeField | None = None
        self.solve_iterations = 0

    def refresh(self, u: multi1d, rng: np.random.Generator) -> None:
        m1 = WilsonOperator(u, self.light)
        m2 = WilsonOperator(u, self.heavy)
        eta = m1.new_fermion()
        eta.gaussian(rng)
        chi = m1.new_fermion()
        m1.apply_dagger(chi, eta)          # chi = M1+ eta
        self.phi = m1.new_fermion()
        # solve M2+ phi = M1+ eta  (heavy operator: cheap)
        res = bicgstab(lambda d, s: m2.apply_dagger(d, s), self.phi, chi,
                       tol=self.tol, max_iter=self.max_iter)
        if not res.converged:
            raise RuntimeError("Hasenbusch heatbath solve failed")

    def _chi_x(self, u: multi1d):
        m1 = WilsonOperator(u, self.light)
        m2 = WilsonOperator(u, self.heavy)
        chi = m1.new_fermion()
        m2.apply_dagger(chi, self.phi)     # chi = M2+ phi
        x = m1.new_fermion()
        res = cg(lambda d, s: m1.apply_mdagm(d, s), x, chi,
                 tol=self.tol, max_iter=self.max_iter)
        if not res.converged:
            raise RuntimeError("Hasenbusch light solve failed")
        self.solve_iterations += res.iterations
        return chi, x, m1, m2

    def action(self, u: multi1d) -> float:
        chi, x, _, _ = self._chi_x(u)
        return innerProduct(chi, x).real

    def force(self, u: multi1d) -> np.ndarray:
        chi, x, m1, m2 = self._chi_x(u)
        y = m1.new_fermion()
        m1.apply(y, x)
        nd = u[0].lattice.nd
        g1 = dslash_outer_force(u, x.to_numpy(), y.to_numpy(),
                                coeffs=self.light.hop_coeffs(nd))
        # variation of chi = M2+ phi: pattern 2Re(phi+ dD x)
        g2 = dslash_outer_force(u, x.to_numpy(), self.phi.to_numpy(),
                                coeffs=self.heavy.hop_coeffs(nd))
        return -self.light.kappa * g1 + self.heavy.kappa * g2


class OneFlavorRationalMonomial(Monomial):
    """RHMC one-flavor term [14]: S = phi+ (M+ M)^{-1/2} phi.

    The inverse square root is the partial-fraction rational
    approximation applied with a single multi-shift CG; the heatbath
    uses a rational x^{+1/4}.  This is the strange quark of the
    paper's 2+1-flavor production runs.
    """

    name = "one_flavor_rational"

    def __init__(self, params: WilsonParams, action_pf: PartialFraction,
                 heatbath_pf: PartialFraction, tol: float = 1e-9,
                 max_iter: int = 2000):
        _require_wilson(params)
        self.params = params
        self.action_pf = action_pf
        self.heatbath_pf = heatbath_pf
        self.tol = tol
        self.max_iter = max_iter
        self.phi: LatticeField | None = None
        self.solve_iterations = 0

    def _multishift(self, u: multi1d, pf: PartialFraction,
                    src: LatticeField, what: str
                    ) -> tuple[WilsonOperator, list[LatticeField]]:
        """x_i = (M+M + s_i)^{-1} src for every shift of ``pf``, from
        one multi-shift CG; ``what`` names the solve in its error."""
        m = WilsonOperator(u, self.params)
        xs = [m.new_fermion() for _ in pf.shifts]
        res = multishift_cg(lambda d, s: m.apply_mdagm(d, s), xs, src,
                            list(pf.shifts), tol=self.tol,
                            max_iter=self.max_iter)
        if not res.converged:
            raise RuntimeError(f"rational {what} solve failed")
        self.solve_iterations += res.iterations
        return m, xs

    def _apply_rational(self, u: multi1d, pf: PartialFraction,
                        src: LatticeField) -> LatticeField:
        """dest = (a0 + sum_i a_i (M+M + s_i)^{-1}) src."""
        m, xs = self._multishift(u, pf, src, "multishift")
        out = m.new_fermion()
        expr = pf.a0 * src.ref()
        for a_i, x_i in zip(pf.residues, xs):
            expr = expr + a_i * x_i
        out.assign(expr)
        return out

    def refresh(self, u: multi1d, rng: np.random.Generator) -> None:
        eta = latt_fermion(u[0].lattice, "f64", u[0].context)
        eta.gaussian(rng)
        # phi = (M+M)^{1/4} eta  =>  S = eta+ (M+M)^{1/4 * 2 * -1/2} ...
        self.phi = self._apply_rational(u, self.heatbath_pf, eta)

    def action(self, u: multi1d) -> float:
        _, xs = self._multishift(u, self.action_pf, self.phi, "action")
        s = self.action_pf.a0 * norm2(self.phi)
        for a_i, x_i in zip(self.action_pf.residues, xs):
            s += a_i * innerProduct(self.phi, x_i).real
        return s

    def force(self, u: multi1d) -> np.ndarray:
        pf = self.action_pf
        m, xs = self._multishift(u, pf, self.phi, "force")
        nd = u[0].lattice.nd
        lattice = u[0].lattice
        total = np.zeros((nd, lattice.nsites, 3, 3), dtype=complex)
        y = m.new_fermion()
        for a_i, x_i in zip(pf.residues, xs):
            m.apply(y, x_i)
            g = dslash_outer_force(u, x_i.to_numpy(), y.to_numpy(),
                                   coeffs=self.params.hop_coeffs(nd))
            total += a_i * (-self.params.kappa) * g
        return total
