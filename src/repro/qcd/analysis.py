"""The post-Monte-Carlo analysis phase (paper Sec. I).

"LQCD calculations are usually divided into two main parts: the HMC
gauge field generation part ... and the analysis part in which the
physical observables are determined."  This module is the analysis
part: sources, propagators (12 solves per source point), and meson
two-point correlators, all through the framework's solvers.
"""

from __future__ import annotations

import numpy as np

from ..qdp.fields import LatticeField, latt_fermion, multi1d
from ..qdp.lattice import Lattice
from .solver import cg
from .wilson import EvenOddWilsonOperator, WilsonParams


def point_source(lattice: Lattice, coords, spin: int, color: int,
                 precision: str = "f64", context=None) -> LatticeField:
    """A delta-function source at ``coords`` with one (spin, color)
    component set to 1 — the column source of a point propagator."""
    src = latt_fermion(lattice, precision, context)
    arr = np.zeros((lattice.nsites, 4, 3), dtype=complex)
    arr[lattice.site_index(tuple(coords)), spin, color] = 1.0
    src.from_numpy(arr)
    return src


def compute_propagator(u: multi1d, params: WilsonParams,
                       source_builder, *, tol: float = 1e-10,
                       max_iter: int = 2000) -> np.ndarray:
    """The 12-column point-to-all propagator.

    ``source_builder(spin, color)`` returns the source field for one
    column.  Solves ``M psi = src`` with the even-odd preconditioned
    CG (the production path) and returns the propagator as a dense
    array of shape ``(nsites, 4, 3, 4, 3)`` indexed
    ``[x, s_sink, c_sink, s_src, c_src]``.
    """
    lattice = u[0].lattice
    m_eo = EvenOddWilsonOperator(u, params)
    out = np.zeros((lattice.nsites, 4, 3, 4, 3), dtype=complex)
    for s in range(4):
        for c in range(3):
            chi = source_builder(s, c)
            b = m_eo.prepare_source(chi)
            rhs = m_eo.new_fermion()
            m_eo.apply_dagger(rhs, b)
            x = m_eo.new_fermion()
            res = cg(lambda d, v: m_eo.apply_mdagm(d, v), x, rhs,
                     tol=tol, max_iter=max_iter,
                     subset=lattice.even)
            if not res.converged:
                raise RuntimeError(
                    f"propagator solve (s={s}, c={c}) failed at "
                    f"residual {res.residual_norm:g}")
            psi = m_eo.reconstruct(x, chi)
            out[:, :, :, s, c] = psi.to_numpy()
    return out


def pion_correlator(prop: np.ndarray, lattice: Lattice) -> np.ndarray:
    """The pion two-point function from a point propagator:

        C(t) = sum_{x, t(x)=t}  sum tr[ S(x)^+ S(x) ]

    (the gamma5-gamma5 contraction collapses to the propagator's
    squared modulus via gamma5-Hermiticity).  Returns the length-Nt
    real correlator — positive and, on a quenched weak field, decaying
    away from the source time slice.
    """
    dens = np.einsum("xscud,xscud->x", prop.conj(), prop).real
    nt = lattice.dims[lattice.nd - 1]
    t_of_x = lattice.coords[:, lattice.nd - 1]
    corr = np.zeros(nt)
    np.add.at(corr, t_of_x, dens)
    return corr


def effective_mass(corr: np.ndarray) -> np.ndarray:
    """log(C(t)/C(t+1)) — the standard effective-mass estimator."""
    c = np.asarray(corr, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(c[:-1] / c[1:])
