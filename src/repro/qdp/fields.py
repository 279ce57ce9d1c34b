"""Lattice field containers: the user-facing data types.

A :class:`LatticeField` is the Python incarnation of a QDP++
``OLattice`` instance — a data-parallel container whose elements live
on the grid points of the lattice (paper Sec. II-B).  Fields carry
their SoA-packed host data and two coherence bits; all device
residency is managed by the software cache, never by user code.

Operators on fields build expression ASTs (:mod:`repro.core.expr`);
``assign``/``<<=`` evaluates an AST through the JIT pipeline.  Helpers
like :func:`latt_fermion` construct fields of the standard Table I
type aliases.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.context import Context, default_context
from ..core.expr import FieldRef, as_expr
from ..qdp.lattice import Lattice, Subset
from . import typesys
from .typesys import TypeSpec

_uid_counter = itertools.count(1)


class LatticeField:
    """A data-parallel lattice container (QDP++ ``OLattice``).

    Parameters
    ----------
    lattice:
        The (node-local) lattice geometry.
    spec:
        The nested type of the elements (see
        :mod:`repro.qdp.typesys`).
    context:
        The QDP-JIT context (device) this field belongs to; defaults
        to the global context.
    """

    def __init__(self, lattice: Lattice, spec: TypeSpec,
                 context: Context | None = None, name: str | None = None):
        if not spec.is_lattice:
            raise ValueError("LatticeField requires a lattice TypeSpec")
        self.lattice = lattice
        self.spec = spec
        self.context = context if context is not None else default_context()
        self.name = name or f"field{next(_uid_counter)}"
        self.uid = next(_uid_counter)
        self.host = np.zeros(spec.words_per_site * lattice.nsites,
                             dtype=spec.dtype)
        #: coherence bits, owned by the memory cache
        self.host_valid = True
        self.device_valid = False

    # -- geometry / sizes ---------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.host.nbytes

    @property
    def nsites(self) -> int:
        return self.lattice.nsites

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<LatticeField {self.name} {self.spec.describe()} "
                f"on {self.lattice!r}>")

    # -- expression interface ------------------------------------------------

    def ref(self) -> FieldRef:
        return FieldRef(self)

    def __add__(self, other):
        return self.ref() + other

    def __radd__(self, other):
        return as_expr(other, like=self.ref()) + self.ref()

    def __sub__(self, other):
        return self.ref() - other

    def __rsub__(self, other):
        return as_expr(other, like=self.ref()) - self.ref()

    def __mul__(self, other):
        return self.ref() * other

    def __rmul__(self, other):
        return as_expr(other, like=self.ref()) * self.ref()

    def __truediv__(self, other):
        return self.ref() / other

    def __neg__(self):
        return -self.ref()

    # -- assignment -------------------------------------------------------------

    def assign(self, expr, subset: Subset | None = None):
        """Evaluate ``self = expr`` (the data-parallel assignment).

        Returns the modeled kernel cost.  ``subset`` restricts the
        assignment to a site subset (QDP++ ``psi[rb[0]] = ...``).

        With deferred evaluation enabled (``REPRO_FUSION=on``, the
        default) the statement is queued and the returned cost is a
        lazy proxy: touching any of its attributes — or reading any
        field, or running a reduction — flushes the queue, possibly
        launching this statement fused with its neighbors.
        """
        from ..core.evaluator import evaluate

        return evaluate(self, as_expr(expr, like=self), subset=subset,
                        context=self.context)

    def __ilshift__(self, expr):
        """``psi <<= u * phi`` — assignment sugar for ``assign``."""
        self.assign(expr)
        return self

    # -- host access (triggers page-out, paper Sec. IV) --------------------

    def _ensure_host(self) -> None:
        self.context.field_cache.ensure_host(self)

    def _host_written(self) -> None:
        self.context.field_cache.invalidate_device(self)

    def to_numpy(self) -> np.ndarray:
        """The field as a complex (or real) array of shape
        ``(nsites, *spin_shape, *color_shape)``.

        Reading triggers a device-to-host page-out if the freshest
        copy is on the device; it is also a fusion barrier — every
        deferred statement launches before the bytes move.
        """
        self._ensure_host()
        spec = self.spec
        n = self.nsites
        # host layout: word w = (ir*IC + ic)*IS + is, fastest index site
        data = self.host.reshape(spec.reality_size, spec.color_size,
                                 spec.spin_size, n)
        if spec.is_complex:
            arr = data[0] + 1j * data[1]
        else:
            arr = data[0].copy()
        # (IC, IS, n) -> (n, IS, IC) -> (n, *spin, *color)
        arr = arr.transpose(2, 0, 1).transpose(0, 2, 1)
        return arr.reshape((n,) + spec.shape)

    def from_numpy(self, arr: np.ndarray) -> None:
        """Overwrite the field from an array shaped like
        :meth:`to_numpy`'s result."""
        spec = self.spec
        n = self.nsites
        want = (n,) + spec.shape
        arr = np.asarray(arr)
        if arr.shape != want:
            raise ValueError(f"expected shape {want}, got {arr.shape}")
        flat = arr.reshape(n, spec.spin_size, spec.color_size)
        flat = flat.transpose(2, 1, 0)  # (IC, IS, n)
        out = self.host.reshape(spec.reality_size, spec.color_size,
                                spec.spin_size, n)
        if spec.is_complex:
            out[0] = flat.real
            out[1] = flat.imag
        else:
            if np.iscomplexobj(arr):
                raise ValueError("cannot store complex data in a real field")
            out[0] = flat
        self._host_written()

    # -- initialization ---------------------------------------------------------

    def zero(self) -> None:
        self._ensure_host_writable()
        self.host[:] = 0

    def _ensure_host_writable(self) -> None:
        # we are about to overwrite everything: no page-out needed
        self.host_valid = True
        self._host_written()

    def gaussian(self, rng: np.random.Generator) -> None:
        """Fill with unit-variance Gaussian noise (QDP++ ``gaussian``).

        For complex fields each of re/im gets variance 1/2 so that
        ``<|z|^2> = 1`` per complex component.
        """
        self._ensure_host_writable()
        if self.spec.is_complex:
            scale = np.sqrt(0.5)
        else:
            scale = 1.0
        self.host[:] = rng.normal(0.0, scale, size=self.host.shape).astype(
            self.spec.dtype)

    def uniform(self, rng: np.random.Generator) -> None:
        """Fill with uniform [0, 1) noise (QDP++ ``random``)."""
        self._ensure_host_writable()
        self.host[:] = rng.random(self.host.shape).astype(self.spec.dtype)

    def copy(self) -> "LatticeField":
        out = LatticeField(self.lattice, self.spec, context=self.context,
                           name=f"{self.name}_copy")
        out.assign(self.ref())
        return out

    def astype(self, precision: str) -> "LatticeField":
        """Precision-converted copy (implicit promotion does the cvt)."""
        out = LatticeField(self.lattice, self.spec.with_precision(precision),
                           context=self.context)
        out.assign(self.ref())
        return out


class multi1d(list):
    """QDP++'s convenience 1-d array of objects (e.g. gauge links).

    A thin list subclass so the familiar ``u[mu]`` notation works and
    sizes are explicit.
    """

    def __init__(self, items):
        super().__init__(items)

    @property
    def size(self) -> int:
        return len(self)


# -- constructors for the Table I type aliases -------------------------------

def latt_fermion(lattice, precision="f64", context=None) -> LatticeField:
    """A LatticeFermion (spin-color vector)."""
    return LatticeField(lattice, typesys.fermion(precision), context)


def latt_color_matrix(lattice, precision="f64", context=None) -> LatticeField:
    """A LatticeColorMatrix (SU(3) link variable field)."""
    return LatticeField(lattice, typesys.color_matrix(precision), context)


def latt_spin_matrix(lattice, precision="f64", context=None) -> LatticeField:
    return LatticeField(lattice, typesys.spin_matrix(precision), context)


def latt_color_vector(lattice, precision="f64", context=None) -> LatticeField:
    return LatticeField(lattice, typesys.color_vector(precision), context)


def latt_propagator(lattice, precision="f64", context=None) -> LatticeField:
    return LatticeField(lattice, typesys.propagator(precision), context)


def latt_complex(lattice, precision="f64", context=None) -> LatticeField:
    return LatticeField(lattice, typesys.complex_field(precision), context)


def latt_real(lattice, precision="f64", context=None) -> LatticeField:
    return LatticeField(lattice, typesys.real_field(precision), context)


def latt_clover_diag(lattice, precision="f64", context=None) -> LatticeField:
    """The packed clover diagonal (Table I lower part, Adiag)."""
    return LatticeField(lattice, typesys.clover_diag(precision), context)


def latt_clover_tri(lattice, precision="f64", context=None) -> LatticeField:
    """The packed clover triangle (Table I lower part, Atria)."""
    return LatticeField(lattice, typesys.clover_triangular(precision), context)


def gauge_field(lattice, precision="f64", context=None) -> multi1d:
    """``multi1d<LatticeColorMatrix> u(Nd)`` — one link field per
    dimension, initialized to zero."""
    return multi1d([latt_color_matrix(lattice, precision, context)
                    for _ in range(lattice.nd)])
