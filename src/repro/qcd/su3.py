"""SU(3) matrix utilities (vectorized over sites).

Host-side helpers for constructing and validating gauge
configurations: random group elements, reunitarization, the su(3)
algebra projection used by HMC, and a batched matrix exponential.
These operate on NumPy arrays of shape ``(..., 3, 3)``; lattice-wide
evaluation through the JIT framework uses the QDP expression layer,
but configuration setup and the HMC momentum refresh are host-side
in Chroma too (they happen once per trajectory, not per kernel).
"""

from __future__ import annotations

import numpy as np


def random_su3(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-ish random SU(3) matrices, shape (n, 3, 3).

    QR of a complex Ginibre matrix with phase fixing gives Haar U(3);
    dividing out the determinant's cube root lands in SU(3).
    """
    z = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is Haar
    d = np.einsum("nii->ni", r)
    q = q * (d / np.abs(d))[:, None, :]
    det = np.linalg.det(q)
    return q / np.cbrt(np.abs(det))[..., None, None] / np.exp(
        1j * np.angle(det) / 3)[..., None, None]


def random_su3_near_unit(rng: np.random.Generator, n: int,
                         eps: float = 0.1) -> np.ndarray:
    """Random SU(3) close to the identity: exp(i eps H)."""
    h = random_hermitian_traceless(rng, n)
    return expm_i_hermitian(eps * h)


def random_hermitian_traceless(rng: np.random.Generator, n: int
                               ) -> np.ndarray:
    """Gaussian traceless Hermitian 3x3 matrices — su(3) algebra
    elements with the HMC kinetic normalization ``<tr P^2> = 4``
    (8 generators, each coefficient unit variance, tr(T^a T^b) =
    delta_ab / 2)."""
    a = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    h = (a + a.conj().transpose(0, 2, 1)) / 2
    tr = np.einsum("nii->n", h) / 3.0
    h[:, 0, 0] -= tr
    h[:, 1, 1] -= tr
    h[:, 2, 2] -= tr
    return h / np.sqrt(2.0)


def expm_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for batched Hermitian H via eigendecomposition.

    Exactly unitary up to rounding; used for the HMC link update
    ``U' = exp(i dt P) U``.
    """
    w, v = np.linalg.eigh(h)
    phase = np.exp(1j * w)
    return np.einsum("nij,nj,nkj->nik", v, phase, v.conj())


def reunitarize(u: np.ndarray) -> np.ndarray:
    """Project a near-SU(3) batch back onto SU(3).

    Gram-Schmidt on the first two rows, third row from the cross
    product — the standard lattice reunitarization that kills the
    accumulation of rounding drift during long HMC runs.
    """
    u = np.array(u, dtype=complex, copy=True)
    r0 = u[..., 0, :]
    r0 = r0 / np.linalg.norm(r0, axis=-1, keepdims=True)
    r1 = u[..., 1, :]
    r1 = r1 - np.sum(r0.conj() * r1, axis=-1, keepdims=True) * r0
    r1 = r1 / np.linalg.norm(r1, axis=-1, keepdims=True)
    r2 = np.cross(r0.conj(), r1.conj())
    out = np.stack([r0, r1, r2], axis=-2)
    return out


def unitarity_defect(u: np.ndarray) -> float:
    """max ||U U+ - 1||_inf over the batch (0 for exact SU(3))."""
    eye = np.eye(3)
    prod = np.einsum("...ij,...kj->...ik", u, u.conj())
    defect = np.abs(prod - eye).max()
    det_defect = np.abs(np.linalg.det(u) - 1.0).max()
    return float(max(defect, det_defect))
