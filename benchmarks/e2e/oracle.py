"""Plain-NumPy references for the end-to-end benchmark's correctness checks.

Nothing here goes through the pipeline under test: no PTX, no kernel
or module cache, no fusion queue, no ``Context``.  The only things
borrowed from ``repro`` are *numerics* — the gamma matrices of
``repro.qcd.gamma`` and the packed-triangle index of the clover type —
and the node classes of the expression AST, which the walker needs in
order to recognise what it is looking at.

Site ordering everywhere is the library's: lexicographic with
dimension 0 fastest, so a ``(nsites, ...)`` array reshapes to
``dims[::-1] + (...)`` and ``shift(x, sign, mu)`` is an ``np.roll`` by
``-sign`` along axis ``nd - 1 - mu``.
"""

from __future__ import annotations

import numpy as np

from repro.core import expr as E
from repro.qcd.gamma import GAMMA, IDENTITY
from repro.qdp.typesys import tri_index

#: relative tolerance of an oracle comparison, by destination precision
TOLERANCE = {"f64": 1e-12, "f32": 1e-5}


def shift(arr: np.ndarray, dims, mu: int, sign: int) -> np.ndarray:
    """``result[x] = arr[x + sign * mu_hat]`` with periodic wrap."""
    nd = len(dims)
    view = arr.reshape(tuple(dims[::-1]) + arr.shape[1:])
    return np.roll(view, -sign, axis=nd - 1 - mu).reshape(arr.shape)


def close(got, want, tol: float) -> bool:
    """``max|got - want| <= tol * max(1, max|want|)`` and all finite."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(1.0, float(np.abs(want).max())) if want.size else 1.0
    return float(np.abs(got - want).max()) <= tol * scale


# -- Wilson operator ----------------------------------------------------------

def dslash(u, psi: np.ndarray, dims, sign: int = +1) -> np.ndarray:
    """The Wilson hopping term on ``(nsites, 4, 3)`` spinors.

    ``sum_mu (1 - sign gamma_mu) U_mu(x) psi(x+mu)
           + (1 + sign gamma_mu) U_mu(x-mu)^+ psi(x-mu)``
    """
    out = np.zeros_like(psi)
    for mu, umu in enumerate(u):
        fwd = np.einsum("nab,nsb->nsa", umu, shift(psi, dims, mu, +1))
        bwd = shift(np.einsum("nba,nsb->nsa", umu.conj(), psi), dims, mu, -1)
        out += np.einsum("st,nta->nsa", IDENTITY - sign * GAMMA[mu], fwd)
        out += np.einsum("st,nta->nsa", IDENTITY + sign * GAMMA[mu], bwd)
    return out


def mdagm_shifted(u, psi, dims, kappa: float, sigma: float) -> np.ndarray:
    """``(M^+ M + sigma) psi`` with ``M = 1 - kappa D``."""
    m = psi - kappa * dslash(u, psi, dims, +1)
    return m - kappa * dslash(u, m, dims, -1) + sigma * psi


def cg(apply_op, b: np.ndarray, iterations: int) -> np.ndarray:
    """Textbook CG from ``x = 0`` for a fixed iteration count."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = np.vdot(r, r).real
    for _ in range(iterations):
        ap = apply_op(p)
        alpha = rr / np.vdot(p, ap).real
        x += alpha * p
        r -= alpha * ap
        rr_new = np.vdot(r, r).real
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def check_cg(u, b, x, dims, kappa, sigma, iterations) -> tuple[bool, dict]:
    """The pipeline's solution must be as good as the oracle's own:
    its *true* residual within 10x of what ``iterations`` steps of the
    NumPy CG reach on the NumPy operator."""
    def op(v):
        return mdagm_shifted(u, v, dims, kappa, sigma)

    bnorm = np.linalg.norm(b)
    res_oracle = np.linalg.norm(b - op(cg(op, b, iterations))) / bnorm
    res_pipeline = np.linalg.norm(b - op(x)) / bnorm
    ok = bool(np.all(np.isfinite(x)) and res_pipeline <= 10.0 * res_oracle)
    return ok, {"residual": float(res_pipeline),
                "oracle_residual": float(res_oracle)}


# -- gauge observables --------------------------------------------------------

def plaquette(u, dims) -> float:
    """``<1/3 Re tr U_P>`` averaged over sites and planes."""
    nd = len(dims)
    total = 0.0
    for mu in range(nd):
        for nu in range(mu + 1, nd):
            p = np.einsum("nab,nbc,ndc,ned->nae",
                          u[mu], shift(u[nu], dims, mu, +1),
                          shift(u[mu], dims, nu, +1).conj(), u[nu].conj())
            total += np.einsum("naa->", p).real
    nplanes = nd * (nd - 1) // 2
    return float(total / (3.0 * nplanes * u[0].shape[0]))


def su3_defect(u) -> float:
    """``max(|U U^+ - 1|, |det U - 1|)`` over all links."""
    worst = 0.0
    for umu in u:
        prod = np.einsum("nab,ncb->nac", umu, umu.conj())
        worst = max(worst, float(np.abs(prod - np.eye(3)).max()),
                    float(np.abs(np.linalg.det(umu) - 1.0).max()))
    return worst


# -- expression-AST walker ----------------------------------------------------

_LETTERS = "abcdefgh"

_MATH = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
         "tan": np.tan, "sqrt": np.sqrt, "fabs": np.abs,
         "rsqrt": lambda x: 1.0 / np.sqrt(x)}


def _level_subscripts(ls: tuple, rs: tuple, letters: str):
    """einsum index strings (left, right, out) of one spin/color level."""
    if not ls:
        idx = letters[:len(rs)]
        return "", idx, idx
    if not rs:
        idx = letters[:len(ls)]
        return idx, "", idx
    if len(ls) == 2 and len(rs) == 1:
        return letters[:2], letters[1], letters[0]
    if len(ls) == 2 and len(rs) == 2:
        return letters[:2], letters[1:3], letters[0] + letters[2]
    raise ValueError(f"no level-wise product for shapes {ls} x {rs}")


def _mul(lv, lspec, rv, rspec):
    sl, sr, so = _level_subscripts(lspec.spin, rspec.spin, _LETTERS[:3])
    cl, cr, co = _level_subscripts(lspec.color, rspec.color, _LETTERS[3:6])
    nl = "n" if lspec.is_lattice else ""
    nr = "n" if rspec.is_lattice else ""
    no = "n" if (nl or nr) else ""
    return np.einsum(f"{nl}{sl}{cl},{nr}{sr}{cr}->{no}{so}{co}", lv, rv)


def _transpose_levels(v, spec):
    """Swap the two indices of every matrix-shaped level."""
    off = 1 if spec.is_lattice else 0
    axes = list(range(v.ndim))
    if len(spec.spin) == 2:
        axes[off], axes[off + 1] = axes[off + 1], axes[off]
    coff = off + len(spec.spin)
    if len(spec.color) == 2:
        axes[coff], axes[coff + 1] = axes[coff + 1], axes[coff]
    return v.transpose(axes)


def _clover_apply(diag, tri, psi):
    """``A psi`` from the packed blocks: ``diag`` (n,2,6) real, ``tri``
    (n,2,15) complex strictly-lower entries, ``psi`` (n,4,3)."""
    n = psi.shape[0]
    blocks = np.zeros((n, 2, 6, 6), dtype=complex)
    for i in range(6):
        blocks[:, :, i, i] = diag[:, :, i]
        for j in range(i):
            blocks[:, :, i, j] = tri[:, :, tri_index(i, j)]
            blocks[:, :, j, i] = tri[:, :, tri_index(i, j)].conj()
    out = np.einsum("nbij,nbj->nbi", blocks, psi.reshape(n, 2, 6))
    return out.reshape(n, 4, 3)


def evaluate(node, leaves: dict, dims) -> np.ndarray:
    """Value of an expression tree, computed in double precision.

    ``leaves`` maps a field's ``uid`` to its host array (shape
    ``(nsites,) + spin + color``), already rounded to the field's
    storage precision.
    """
    if isinstance(node, E.FieldRef):
        return np.asarray(leaves[node.field.uid])
    if isinstance(node, (E.ScalarParam, E.ScalarLit)):
        return np.asarray(node.value)
    if isinstance(node, E.ConstSpinMatrix):
        return node.matrix
    if isinstance(node, E.BinaryNode):
        lv = evaluate(node.left, leaves, dims)
        rv = evaluate(node.right, leaves, dims)
        if node.op == "mul":
            return _mul(lv, node.left.spec, rv, node.right.spec)
        return lv + rv if node.op == "add" else lv - rv
    if isinstance(node, E.UnaryNode):
        v = evaluate(node.child, leaves, dims)
        op = node.op
        if op == "neg":
            return -v
        if op == "conj":
            return np.conj(v)
        if op == "adj":
            return np.conj(_transpose_levels(v, node.child.spec))
        if op == "transpose":
            return _transpose_levels(v, node.child.spec)
        if op == "timesI":
            return 1j * v
        if op == "timesMinusI":
            return -1j * v
        if op == "real":
            return np.real(v)
        if op == "imag":
            return np.imag(v)
        return _MATH[op](v)
    if isinstance(node, E.TraceNode):
        v = evaluate(node.child, leaves, dims)
        spec = node.child.spec
        off = 1 if spec.is_lattice else 0
        coff = off + len(spec.spin)
        if node.which in ("color", "both") and len(spec.color) == 2:
            v = np.trace(v, axis1=coff, axis2=coff + 1)
        if node.which in ("spin", "both") and len(spec.spin) == 2:
            v = np.trace(v, axis1=off, axis2=off + 1)
        return v
    if isinstance(node, E.ShiftNode):
        return shift(evaluate(node.child, leaves, dims), dims,
                     node.mu, node.sign)
    if isinstance(node, E.PowNode):
        return evaluate(node.child, leaves, dims) ** node.exponent
    if isinstance(node, E.CustomOpNode) and node.name == "clov":
        diag, tri, psi = (evaluate(o, leaves, dims) for o in node.operands)
        return _clover_apply(diag, tri, psi)
    raise TypeError(f"oracle cannot evaluate {type(node).__name__}")


def assign(dest_before, value, subset_sites=None, precision="f64"):
    """The array ``dest = value`` leaves behind (other sites keep
    ``dest_before`` under a subset), rounded to ``precision``."""
    out = np.array(dest_before, copy=True)
    value = np.broadcast_to(value, out.shape)
    if subset_sites is None:
        out[...] = value
    else:
        out[subset_sites] = value[subset_sites]
    if precision == "f32":
        out = out.astype(np.complex64 if np.iscomplexobj(out)
                         else np.float32)
    return out


def reduce(kind: str, values) -> complex:
    """norm2 / inner (conjugate on the left) / sum over all sites."""
    if kind == "norm2":
        return float(np.sum(np.abs(values[0]) ** 2))
    if kind == "inner":
        return complex(np.vdot(values[0], values[1]))
    if kind == "sum":
        return complex(np.sum(values[0]))
    raise ValueError(f"unknown reduction {kind!r}")


# -- corruption (the ops_failed self-test) ------------------------------------

def corrupt(result: dict) -> dict:
    """A copy of a pass result with one value of its largest array
    pushed far outside every tolerance — what a silently wrong kernel
    would hand back.  The checks must count the pass as failed."""
    out = dict(result)
    key = max((k for k, v in result.items() if isinstance(v, np.ndarray)),
              key=lambda k: result[k].size)
    arr = np.array(result[key], copy=True)
    flat = arr.reshape(-1)
    flat[flat.size // 2] = flat[flat.size // 2] + 1.0 + abs(flat[flat.size // 2])
    out[key] = arr
    return out
