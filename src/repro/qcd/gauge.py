"""Gauge field utilities: construction, plaquette, staples, field
strength, gauge transformations.

The observables are written in the QDP operator form and evaluate
through the JIT pipeline — e.g. the plaquette sum is the expression

    sum( real( trace( U_mu(x) U_nu(x+mu) adj(U_mu(x+nu)) adj(U_nu(x)) )))

with the shifts materialized automatically by the evaluator.
"""

from __future__ import annotations

import numpy as np

from ..core.expr import adj, real, shift, trace
from ..core.reduction import sum_sites
from ..qdp.fields import LatticeField, latt_color_matrix, multi1d
from ..qdp.lattice import FORWARD, Lattice
from . import su3


# -- configuration constructors ----------------------------------------------

def unit_gauge(lattice: Lattice, precision: str = "f64",
               context=None) -> multi1d:
    """The free-field configuration U = 1."""
    u = multi1d([latt_color_matrix(lattice, precision, context)
                 for _ in range(lattice.nd)])
    eye = np.broadcast_to(np.eye(3, dtype=complex),
                          (lattice.nsites, 3, 3))
    for umu in u:
        umu.from_numpy(eye)
    return u


def weak_gauge(lattice: Lattice, rng: np.random.Generator,
               eps: float = 0.2, precision: str = "f64",
               context=None) -> multi1d:
    """A weak-field configuration exp(i eps H): near the free field,
    useful for solver tests (well-conditioned Dirac operator)."""
    u = multi1d([latt_color_matrix(lattice, precision, context)
                 for _ in range(lattice.nd)])
    for umu in u:
        umu.from_numpy(su3.random_su3_near_unit(rng, lattice.nsites, eps))
    return u


def gauge_transform(u: multi1d, g: LatticeField) -> multi1d:
    """Apply the gauge transformation
    ``U_mu(x) -> g(x) U_mu(x) adj(g(x+mu))``.

    Used by the gauge-invariance tests: the plaquette must not move.
    """
    lattice = g.lattice
    out = multi1d([latt_color_matrix(lattice, umu.spec.precision, g.context)
                   for umu in u])
    for mu, umu in enumerate(u):
        out[mu].assign(g * umu * shift(adj(g), FORWARD, mu))
    return out


# -- observables -----------------------------------------------------------------

def plaquette_field_expr(u: multi1d, mu: int, nu: int):
    """The (mu, nu) plaquette as an expression:
    ``U_mu(x) U_nu(x+mu) adj(U_mu(x+nu)) adj(U_nu(x))``."""
    return (u[mu] * shift(u[nu], FORWARD, mu)
            * adj(shift(u[mu], FORWARD, nu)) * adj(u[nu]))


def plaquette(u: multi1d, lattice: Lattice | None = None) -> float:
    """The average plaquette ``<1/3 Re tr U_P>`` over all planes.

    Equals 1 on the unit configuration; gauge invariant.
    """
    lattice = lattice or u[0].lattice
    nd = lattice.nd
    total = 0.0
    nplanes = 0
    for mu in range(nd):
        for nu in range(mu + 1, nd):
            total += sum_sites(
                real(trace(plaquette_field_expr(u, mu, nu)))).real
            nplanes += 1
    return total / (3.0 * nplanes * lattice.nsites)


def plaquette_site_sum(u: multi1d, mu: int, nu: int) -> float:
    """Re tr of the (mu,nu)-plaquette summed over sites."""
    return sum_sites(real(trace(plaquette_field_expr(u, mu, nu)))).real


def staple(u: multi1d, mu: int) -> LatticeField:
    """The sum of staples around the mu-link (both orientations,
    all nu != mu):

        S_mu(x) = sum_nu [ U_nu(x+mu) adj(U_mu(x+nu)) adj(U_nu(x))
                         + adj(U_nu(x+mu-nu)) adj(U_mu(x-nu)) U_nu(x-nu) ]

    The derivative of the Wilson gauge action with respect to the
    mu-link is built from this.
    """
    lattice = u[0].lattice
    out = latt_color_matrix(lattice, u[mu].spec.precision, u[mu].context)
    first = True
    for nu in range(lattice.nd):
        if nu == mu:
            continue
        upper = (shift(u[nu], FORWARD, mu) * adj(shift(u[mu], FORWARD, nu))
                 * adj(u[nu]))
        lower = shift(adj(shift(u[nu], FORWARD, mu)) * adj(u[mu]) * u[nu],
                      -1, nu)
        if first:
            out.assign(upper + lower)
            first = False
        else:
            out.assign(out + upper + lower)
    return out


def field_strength_numpy(u: multi1d, mu: int, nu: int) -> np.ndarray:
    """The clover-leaf field strength F_{mu nu} as a NumPy batch.

    F = (1/8i) * sum of the four plaquette leaves minus Hermitian
    conjugate, traceless part — the standard clover discretization
    feeding the clover term (paper Sec. VI-A).  Computed host-side
    (it is setup code, executed once per configuration).
    """
    lattice = u[0].lattice
    U = [f.to_numpy() for f in u]
    tf = {d: lattice.shift_map(d, +1) for d in (mu, nu)}
    tb = {d: lattice.shift_map(d, -1) for d in (mu, nu)}

    def mm(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = np.einsum("nab,nbc->nac", out, m)
        return out

    def dag(m):
        return m.conj().transpose(0, 2, 1)

    u_mu, u_nu = U[mu], U[nu]
    # four leaves around x in the (mu, nu) plane
    q1 = mm(u_mu, u_nu[tf[mu]], dag(u_mu[tf[nu]]), dag(u_nu))
    q2 = mm(u_nu, dag(u_mu[tf[nu]][tb[mu]]), dag(u_nu[tb[mu]]), u_mu[tb[mu]])
    q3 = mm(dag(u_mu[tb[mu]]), dag(u_nu[tb[mu]][tb[nu]]),
            u_mu[tb[mu]][tb[nu]], u_nu[tb[nu]])
    q4 = mm(dag(u_nu[tb[nu]]), u_mu[tb[nu]], u_nu[tf[mu]][tb[nu]], dag(u_mu))
    q = q1 + q2 + q3 + q4
    f = (q - dag(q)) / 8j
    tr = np.einsum("nii->n", f) / 3.0
    for i in range(3):
        f[:, i, i] -= tr
    return f
