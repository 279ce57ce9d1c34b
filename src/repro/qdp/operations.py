"""Additional QDP++ interface operations.

Per-site reductions (``localNorm2``, ``localInnerProduct``) and the
color outer product, built on the framework's user-defined-operation
hook (:class:`CustomOpNode`) — they mix or collapse index spaces in
ways the level-wise operators cannot express, exactly like the clover
term of paper Sec. VI-A.
"""

from __future__ import annotations

from ..core.expr import CustomOpNode, Expr, ExprTypeError, as_expr
from ..typesys import TypeSpec


# -- per-site reductions ------------------------------------------------------

def _local_norm2_gen(up, node, sidx, cidx, view, conjugate):
    (child,) = node.operands
    ops = up.ops
    acc = None
    for s in child.spec.spin_indices():
        for c in child.spec.color_indices():
            v = up.gen(child, s, c, view)
            term = ops.mul_conj(v, v)
            # |z|^2 is real: keep only the real part
            from ..core.codegen import CVal

            term = CVal(re=term.re) if not term.is_const else CVal(
                const=complex(abs(term.const)))
            acc = term if acc is None else ops.add(acc, term)
    return acc


def localNorm2(x) -> Expr:
    """Per-site sum of |component|^2 — a LatticeReal expression."""
    x = as_expr(x)
    spec = TypeSpec(spin=(), color=(), is_complex=False,
                    precision=x.spec.precision, is_lattice=True)
    return CustomOpNode("lnorm2", (x,), spec, _local_norm2_gen)


def _local_inner_gen(up, node, sidx, cidx, view, conjugate):
    a, b = node.operands
    ops = up.ops
    acc = None
    for s in a.spec.spin_indices():
        for c in a.spec.color_indices():
            va = up.gen(a, s, c, view)
            vb = up.gen(b, s, c, view)
            term = ops.mul_conj(va, vb)
            acc = term if acc is None else ops.add(acc, term)
    return ops.conj(acc) if conjugate else acc


def localInnerProduct(a, b) -> Expr:
    """Per-site <a|b> (conjugate left) — a LatticeComplex expression."""
    a = as_expr(a)
    b = as_expr(b)
    if a.spec.spin != b.spec.spin or a.spec.color != b.spec.color:
        raise ExprTypeError("localInnerProduct shape mismatch")
    spec = TypeSpec(spin=(), color=(), is_complex=True,
                    precision=a.spec.precision, is_lattice=True)
    return CustomOpNode("linner", (a, b), spec, _local_inner_gen)


# -- outer product ---------------------------------------------------------------

def _outer_gen(up, node, sidx, cidx, view, conjugate):
    a, b = node.operands
    i, j = cidx
    va = up.gen(a, sidx, (i,), view)
    vb = up.gen(b, sidx, (j,), view)
    v = up.ops.mul_conj(vb, va)      # a_i * conj(b_j)
    return up.ops.conj(v) if conjugate else v


def outerProduct(a, b) -> Expr:
    """Color outer product: ``out[i, j] = a[i] * conj(b[j])``.

    Defined for color vectors (spin-scalar); the building block of
    gauge-force outer products.
    """
    a = as_expr(a)
    b = as_expr(b)
    for x in (a, b):
        if x.spec.color != (3,) or x.spec.spin != ():
            raise ExprTypeError(
                "outerProduct is defined for LatticeColorVectors")
    spec = TypeSpec(spin=(), color=(3, 3), is_complex=True,
                    precision=a.spec.precision, is_lattice=True)
    return CustomOpNode("outer", (a, b), spec, _outer_gen)
