"""The Wilson Dslash (hopping term), written in the high-level
operator form — paper Sec. VIII-C:

    H(x,x') = sum_mu (1 - gamma_mu) U_mu(x)       delta_{x+mu, x'}
            + sum_mu (1 + gamma_mu) U+_mu(x - mu) delta_{x-mu, x'}

As the paper stresses, this implementation is *generated from its
high-level representation* — no hand-tuning.  It is built from the
half-spinor ops of :mod:`repro.qcd.halfspinor` in the order Chroma's
QDP++ Dslash uses (``spinReconstructDir(u * shift(spinProjectDir(psi)))``):
each hop projects to two spin components, multiplies the link on
those, and reconstructs four.  The backward hop
``shift(adj(u) * spin_project(psi), BACKWARD, mu)`` shifts a non-leaf
expression and is therefore materialized into a 12-word half-fermion
temporary by the evaluator, exactly like QDP++ evaluates it.

:func:`forward_half`, :func:`backward_half` and :func:`hop` are the one
place that knows which projector goes on which hop; the distributed
Dslash (:mod:`repro.comm.overlap`) builds its terms from them too.

The standard Wilson Dslash flop count used when quoting GFLOPS
(paper Fig. 6 and the QUDA comparison) is 1320 flops per site.
"""

from __future__ import annotations

from ..core.expr import ScalarParam, adj, shift
from ..qdp.fields import LatticeField, latt_fermion, multi1d
from ..qdp.lattice import BACKWARD, FORWARD, Subset
from .halfspinor import spin_project, spin_reconstruct

#: The community-standard Wilson Dslash flop count per site (4-d),
#: assuming spin projection: what QUDA and the paper quote GFLOPS in.
#: The generated kernels of a lone ``D psi`` (the main kernel and one
#: backward-hop kernel per direction) count 1452: the same arithmetic
#: plus the 132 ``neg`` the -1 and +/-i projector entries fold to.  A
#: distributed apply (:mod:`repro.comm.overlap`) builds the same hops
#: and counts the same 1452 per local site.
DSLASH_FLOPS_PER_SITE = 1320


def forward_half(psi, mu: int, sign: int):
    """The forward hop's half spinor: ``(1 - sign*gamma_mu) psi``
    projected to two spin rows.  Shift it (or receive it across a
    face) to the site that multiplies it by ``u_mu``."""
    return spin_project(psi, mu, +sign)


def backward_half(u_mu, psi, mu: int, sign: int):
    """The backward hop's half spinor ``adj(u_mu) (1 + sign*gamma_mu)
    psi``, link applied at the sending site ``x``: the site ``x + mu``
    reads it through the backward shift."""
    return adj(u_mu) * spin_project(psi, mu, -sign)


def hop(u_mu, fwd, bwd, mu: int, sign: int):
    """One direction's term from the half spinors the site reads:
    ``fwd`` its forward neighbour's :func:`forward_half`, ``bwd`` its
    backward neighbour's :func:`backward_half`, both reconstructed
    on-site."""
    return (spin_reconstruct(u_mu * fwd, mu, +sign)
            + spin_reconstruct(bwd, mu, -sign))


def dslash_expr(u: multi1d, psi, sign: int = +1, coeffs=None,
                precision: str = "f64"):
    """Build the Dslash expression tree.

    ``sign=+1`` gives D, ``sign=-1`` gives the gamma5-conjugate
    (projectors swapped), i.e. the hopping part of M-dagger.
    ``coeffs`` optionally scales each direction's hop (anisotropy).
    """
    total = None
    for mu in range(len(u)):
        term = hop(u[mu], forward_half(shift(psi, FORWARD, mu), mu, sign),
                   shift(backward_half(u[mu], psi, mu, sign), BACKWARD, mu),
                   mu, sign)
        if coeffs is not None and coeffs[mu] != 1.0:
            term = ScalarParam(coeffs[mu], precision) * term
        total = term if total is None else total + term
    return total


class WilsonDslash:
    """Callable Dslash: ``D(dest, psi, subset)``.

    Holding the gauge field, it evaluates the hopping term into
    ``dest``, optionally restricted to a checkerboard subset (the
    even-odd preconditioned operator applies D_eo / D_oe this way:
    a Dslash evaluated on the even subset reads odd-site spinors).
    """

    def __init__(self, u: multi1d, coeffs=None, precision: str = "f64"):
        self.u = u
        self.coeffs = coeffs
        self.precision = precision
        self.lattice = u[0].lattice

    def __call__(self, dest: LatticeField, psi, sign: int = +1,
                 subset: Subset | None = None):
        expr = dslash_expr(self.u, psi, sign=sign, coeffs=self.coeffs,
                           precision=self.precision)
        return dest.assign(expr, subset=subset)

    def new_fermion(self, context=None) -> LatticeField:
        return latt_fermion(self.lattice, self.precision,
                            context or self.u[0].context)
