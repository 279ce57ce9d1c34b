"""The QDP++ interface layer: lattices, typed fields, operations.

This package provides the data types and data-parallel operations of
the QDP++ application framework (paper Sec. II-B): the ``Lattice``
container, the nested Spin/Color/Complex type system, shift
operations, and the operator infix form.
"""

from ..core.expr import (
    adj,
    conj,
    imag,
    real,
    shift,
    timesI,
    timesMinusI,
    trace,
    traceColor,
    traceSpin,
    transpose,
)
from .fields import (
    LatticeField,
    gauge_field,
    latt_clover_diag,
    latt_clover_tri,
    latt_color_matrix,
    latt_color_vector,
    latt_complex,
    latt_fermion,
    latt_propagator,
    latt_real,
    latt_spin_matrix,
    multi1d,
)
from .lattice import BACKWARD, FORWARD, Lattice, Subset
from .operations import (
    localInnerProduct,
    localNorm2,
    outerProduct,
)
from .typesys import (
    NC,
    NS,
    TypeSpec,
    clover_diag,
    clover_triangular,
    color_matrix,
    color_vector,
    complex_field,
    fermion,
    propagator,
    real_field,
    spin_matrix,
    tri_index,
    tri_unindex,
)

__all__ = [
    "BACKWARD",
    "FORWARD",
    "Lattice",
    "LatticeField",
    "NC",
    "NS",
    "Subset",
    "TypeSpec",
    "adj",
    "clover_diag",
    "clover_triangular",
    "color_matrix",
    "color_vector",
    "complex_field",
    "conj",
    "fermion",
    "gauge_field",
    "imag",
    "latt_clover_diag",
    "latt_clover_tri",
    "latt_color_matrix",
    "latt_color_vector",
    "latt_complex",
    "latt_fermion",
    "latt_propagator",
    "latt_real",
    "latt_spin_matrix",
    "localInnerProduct",
    "localNorm2",
    "multi1d",
    "outerProduct",
    "propagator",
    "real",
    "real_field",
    "shift",
    "spin_matrix",
    "timesI",
    "timesMinusI",
    "trace",
    "traceColor",
    "traceSpin",
    "transpose",
    "tri_index",
    "tri_unindex",
]
