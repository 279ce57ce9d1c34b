"""The QDP++ nested type system (paper Table I).

A complete lattice data type is composed of four levels named after
the QCD index spaces::

    Lattice (x) Spin (x) Color (x) Complex

QDP++ composes these with C++ template nesting
(``Lattice< Vector< Vector< Complex<REAL>, 3>, 4> >`` for a lattice
fermion).  Here a :class:`TypeSpec` value describes the same
composition: the shape of the spin level (scalar ``()``, vector
``(4,)`` or matrix ``(4,4)``), the shape of the color level, the
reality level (real or complex) and the floating-point precision.

The packed clover types of Table I's lower part (``Diagonal`` /
``Triangular`` components, used by Chroma's clover term, paper
Sec. VI-A) reuse the spin level for the two 6x6 blocks and the color
level for the packed block entries — exactly the trick described in
the paper.

The memory layout is the coalesced structure-of-arrays function of
paper Sec. III-B::

    I(iV, iS, iC, iR) = ((iR * I_C + i_C) * I_S + i_S) * I_V + i_V

i.e. the site index iV runs fastest (adjacent threads access adjacent
memory words), then spin, then color, then the reality component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

#: Number of spin components (4-d spacetime).
NS = 4
#: Number of colors (SU(3)).
NC = 3


@dataclass(frozen=True)
class TypeSpec:
    """Describes one QDP++ nested data type.

    Attributes
    ----------
    spin, color:
        Index-space shapes: ``()`` scalar, ``(n,)`` vector, ``(n, n)``
        matrix.
    is_complex:
        Whether the reality level is ``Complex<REAL>`` or
        ``Scalar<REAL>``.
    precision:
        ``"f32"`` or ``"f64"``.
    is_lattice:
        Outer level: ``Lattice`` (one value per site) or ``OScalar``
        (a single value broadcast over the lattice).
    """

    spin: tuple[int, ...]
    color: tuple[int, ...]
    is_complex: bool
    precision: str = "f64"
    is_lattice: bool = True

    def __post_init__(self):
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"bad precision {self.precision!r}")
        for shape in (self.spin, self.color):
            if len(shape) > 2:
                raise ValueError(f"bad level shape {shape}")

    # -- level sizes -----------------------------------------------------

    @property
    def spin_size(self) -> int:
        """I_S: number of spin-level components (flattened)."""
        return math.prod(self.spin)

    @property
    def color_size(self) -> int:
        """I_C: number of color-level components (flattened)."""
        return math.prod(self.color)

    @property
    def reality_size(self) -> int:
        """I_R: 2 for complex, 1 for real."""
        return 2 if self.is_complex else 1

    @property
    def words_per_site(self) -> int:
        """Real words per lattice site."""
        return self.spin_size * self.color_size * self.reality_size

    @property
    def word_bytes(self) -> int:
        return 4 if self.precision == "f32" else 8

    @property
    def bytes_per_site(self) -> int:
        return self.words_per_site * self.word_bytes

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == "f32" else np.float64)

    @property
    def complex_dtype(self) -> np.dtype:
        return np.dtype(np.complex64 if self.precision == "f32"
                        else np.complex128)

    # -- component indexing ------------------------------------------------

    def spin_indices(self):
        """Iterate over spin-level multi-indices (tuples)."""
        if not self.spin:
            return [()]
        return list(product(*(range(n) for n in self.spin)))

    def color_indices(self):
        if not self.color:
            return [()]
        return list(product(*(range(n) for n in self.color)))

    def flatten_spin(self, sidx: tuple[int, ...]) -> int:
        """Row-major flattening of a spin multi-index."""
        if not self.spin:
            return 0
        return int(np.ravel_multi_index(sidx, self.spin))

    def flatten_color(self, cidx: tuple[int, ...]) -> int:
        if not self.color:
            return 0
        return int(np.ravel_multi_index(cidx, self.color))

    def word_index(self, sidx: tuple[int, ...], cidx: tuple[int, ...],
                   ir: int) -> int:
        """Inner (word) index of component (iS, iC, iR).

        Together with the site index this realizes the layout function
        I(iV,iS,iC,iR): the word index is the coefficient of I_V.
        """
        i_s = self.flatten_spin(sidx)
        i_c = self.flatten_color(cidx)
        if ir >= self.reality_size:
            raise IndexError("reality index out of range")
        return (ir * self.color_size + i_c) * self.spin_size + i_s

    # -- derived specs -------------------------------------------------------

    def with_precision(self, precision: str) -> "TypeSpec":
        return replace(self, precision=precision)

    def adjoint(self) -> "TypeSpec":
        """Type of ``adj(x)``: spin and color levels transposed."""
        return replace(self, spin=self.spin[::-1] if len(self.spin) == 2
                       else self.spin,
                       color=self.color[::-1] if len(self.color) == 2
                       else self.color)

    @property
    def shape(self) -> tuple[int, ...]:
        """The per-site NumPy shape ``spin + color``."""
        return self.spin + self.color

    @cached_property
    def sig(self) -> str:
        """This type's part of a structural kernel signature."""
        return (f"{self.precision}:s{self.spin}:c{self.color}:"
                f"{'c' if self.is_complex else 'r'}")

    @cached_property
    def ident(self) -> int:
        """An int shared by equal specs: a cheap memo key."""
        return _IDENTS.setdefault(self, len(_IDENTS))

    def describe(self) -> str:
        """Render the nested C++-style type (Table I notation)."""
        real = "float" if self.precision == "f32" else "double"
        t = f"Complex<{real}>" if self.is_complex else f"Scalar<{real}>"

        def level(shape, inner):
            if not shape:
                return f"Scalar<{inner}>"
            if len(shape) == 1:
                return f"Vector<{inner}, {shape[0]}>"
            return f"Matrix<{inner}, {shape[0]}>"

        t = level(self.color, t)
        t = level(self.spin, t)
        outer = "Lattice" if self.is_lattice else "OScalar"
        return f"{outer}<{t}>"


_IDENTS: dict[TypeSpec, int] = {}   # spec -> TypeSpec.ident

# -- the standard QDP++ type aliases (paper Table I, upper part) -----------

def fermion(precision: str = "f64") -> TypeSpec:
    """LatticeFermion psi: spin-vector x color-vector x complex."""
    return TypeSpec(spin=(NS,), color=(NC,), is_complex=True,
                    precision=precision)


def color_matrix(precision: str = "f64") -> TypeSpec:
    """LatticeColorMatrix U: spin-scalar x color-matrix x complex."""
    return TypeSpec(spin=(), color=(NC, NC), is_complex=True,
                    precision=precision)


def spin_matrix(precision: str = "f64") -> TypeSpec:
    """LatticeSpinMatrix Gamma: spin-matrix x color-scalar x complex."""
    return TypeSpec(spin=(NS, NS), color=(), is_complex=True,
                    precision=precision)


def color_vector(precision: str = "f64") -> TypeSpec:
    """LatticeColorVector: spin-scalar x color-vector x complex."""
    return TypeSpec(spin=(), color=(NC,), is_complex=True,
                    precision=precision)


def propagator(precision: str = "f64") -> TypeSpec:
    """LatticePropagator: spin-matrix x color-matrix x complex."""
    return TypeSpec(spin=(NS, NS), color=(NC, NC), is_complex=True,
                    precision=precision)


def complex_field(precision: str = "f64") -> TypeSpec:
    """LatticeComplex."""
    return TypeSpec(spin=(), color=(), is_complex=True, precision=precision)


def real_field(precision: str = "f64") -> TypeSpec:
    """LatticeReal."""
    return TypeSpec(spin=(), color=(), is_complex=False, precision=precision)


# -- the clover types (paper Table I, lower part) ----------------------------
#
# The clover term is Hermitian and block diagonal with two 6x6 blocks
# (2 spin components x 3 colors each).  Each block is stored as the 6
# real numbers of the diagonal plus the 15 complex numbers of the
# strictly lower triangle.  Following paper Sec. VI-A, the "spin" level
# indexes the two blocks and the "color" level indexes the packed
# entries:
#
#   Adiag: Lattice< Component< Diagonal<  Scalar<REAL>  > > >  -> (2, 6) real
#   Atria: Lattice< Component< Triangular<Complex<REAL> > > >  -> (2, 15) complex

#: Entries in the strict lower triangle of a 6x6 block.
CLOVER_TRI = 15
#: Diagonal entries of a 6x6 block.
CLOVER_DIAG = 6
#: Number of blocks (chirality blocks of the clover term).
CLOVER_BLOCKS = 2


def clover_diag(precision: str = "f64") -> TypeSpec:
    """The diagonal part of the packed clover term (Adiag)."""
    return TypeSpec(spin=(CLOVER_BLOCKS,), color=(CLOVER_DIAG,),
                    is_complex=False, precision=precision)


def clover_triangular(precision: str = "f64") -> TypeSpec:
    """The lower-triangular part of the packed clover term (Atria)."""
    return TypeSpec(spin=(CLOVER_BLOCKS,), color=(CLOVER_TRI,),
                    is_complex=True, precision=precision)


def scalar_complex(precision: str = "f64") -> TypeSpec:
    """An OScalar complex number (broadcast over the lattice)."""
    return TypeSpec(spin=(), color=(), is_complex=True,
                    precision=precision, is_lattice=False)


def scalar_real(precision: str = "f64") -> TypeSpec:
    """An OScalar real number."""
    return TypeSpec(spin=(), color=(), is_complex=False,
                    precision=precision, is_lattice=False)


#: Triangular packing: linear index of entry (i, j), i > j, in the
#: strictly-lower-triangle ordering used by Chroma's packed clover.
def tri_index(i: int, j: int) -> int:
    """Packed index of lower-triangle entry (i, j) of a 6x6 block."""
    if not (0 <= j < i < 6):
        raise IndexError(f"(i={i}, j={j}) is not strictly lower triangular")
    return i * (i - 1) // 2 + j


def tri_unindex(k: int) -> tuple[int, int]:
    """Inverse of :func:`tri_index`."""
    if not 0 <= k < CLOVER_TRI:
        raise IndexError(f"bad triangular index {k}")
    i = 1
    while i * (i + 1) // 2 <= k:
        i += 1
    j = k - i * (i - 1) // 2
    return i, j
