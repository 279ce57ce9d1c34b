"""Half-spinor (spin projection) operations: the building blocks of
the Wilson Dslash (:func:`repro.qcd.dslash.dslash_expr`).

The Wilson projectors ``(1 -/+ gamma_mu)`` have rank 2, so a projected
spinor carries only two independent spin components.  Projecting
first lets the link multiply two spin components instead of four and
halves the shifted temporary of a backward hop — the trick hand-tuned
kernels (QUDA — the paper's Sec. VIII-C headroom discussion) are built
around, realized here through the framework's own code generators.

``T = P[:2, :]`` compresses (project), and ``R`` with ``R @ T = P``
reconstructs.  In the DeGrand-Rossi basis ``gamma_mu`` has zero 2x2
diagonal blocks, so ``R``'s lower block is ``-sign`` times the lower
off-diagonal block of ``gamma_mu``: both matrices have entries in
{0, +/-1, +/-i}, ``R @ T == P`` holds bitwise, and the code generator
folds every entry into a sign or a component swap.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..core.codegen import CVal
from ..core.expr import CustomOpNode, Expr, ExprTypeError, as_expr
from ..typesys import TypeSpec, fermion
from .gamma import GAMMA, projector

_fermion = cache(fermion)


@cache
def half_fermion(precision: str = "f64") -> TypeSpec:
    """Half-spinor type: 2 spin components x 3 colors."""
    return TypeSpec(spin=(2,), color=(3,), is_complex=True,
                    precision=precision)


@cache
def projection_matrices(mu: int, sign: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(T, R): T compresses P = 1 - sign*gamma_mu to 2 spin rows,
    R reconstructs (R @ T = P exactly).  Built once per ``(mu, sign)``;
    the arrays are read-only."""
    p = projector(mu, sign)
    t = p[:2, :]
    r = np.vstack([np.eye(2), -sign * GAMMA[mu][2:, :2]])
    assert np.array_equal(r @ t, p), "gamma_mu is not block off-diagonal"
    t.flags.writeable = r.flags.writeable = False
    return t, r


def _matrix_gen(rows: tuple):
    """A component generator applying a constant (non-square) spin
    matrix, given as its rows of ``(column, entry)`` nonzeros:
    out(s, c) = sum_t M[s, t] x(t, c)."""
    def gen(up, node, sidx, cidx, view, conjugate):
        (child,) = node.operands
        ops = up.ops
        acc = None
        for t, entry in rows[sidx[0]]:
            v = up.gen(child, (t,), cidx, view, conjugate)
            term = ops.mul(CVal(const=entry.conjugate() if conjugate
                                else entry), v)
            acc = term if acc is None else ops.add(acc, term)
        return acc

    return gen


@cache
def _spin_op(kind: int, mu: int, sign: int):
    """(name, generator) of the project (``kind`` 0) or reconstruct
    (1) op of ``(mu, sign)``: one generator per matrix."""
    m = projection_matrices(mu, sign)[kind]
    rows = tuple(tuple((t, complex(e)) for t, e in enumerate(row) if e != 0)
                 for row in m)
    name = f"{('sproj', 'srecon')[kind]}{mu}{'p' if sign > 0 else 'm'}"
    return name, _matrix_gen(rows)


def spin_project(psi, mu: int, sign: int) -> Expr:
    """h = T (1 - sign*gamma_mu) psi — compress to two spin rows.

    The result is a half-fermion expression (spin=(2,)); assign it to
    a field of :func:`half_fermion` type.
    """
    psi = as_expr(psi)
    if psi.spec.spin != (4,):
        raise ExprTypeError("spin_project needs a full spinor")
    name, gen = _spin_op(0, mu, sign)
    return CustomOpNode(name, (psi,), half_fermion(psi.spec.precision), gen)


def spin_reconstruct(h, mu: int, sign: int) -> Expr:
    """psi = R h — expand a half spinor back to four components."""
    h = as_expr(h)
    if h.spec.spin != (2,):
        raise ExprTypeError("spin_reconstruct needs a half spinor")
    name, gen = _spin_op(1, mu, sign)
    return CustomOpNode(name, (h,), _fermion(h.spec.precision), gen)
