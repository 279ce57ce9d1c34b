"""Lattice QCD domain layer: the gauge action's plaquette and staple,
Dirac operators, clover term, solvers — the Chroma-side physics built
on the QDP interface."""

from .analysis import (
    compute_propagator,
    effective_mass,
    pion_correlator,
    point_source,
)
from .clover import CloverTerm
from .dslash import DSLASH_FLOPS_PER_SITE, WilsonDslash, dslash_expr
from .gamma import (
    GAMMA,
    GAMMA5,
    gamma,
    gamma5_const,
    projector,
    projector_const,
    sigma,
)
from .gauge import (
    field_strength_numpy,
    gauge_transform,
    plaquette,
    plaquette_field_expr,
    plaquette_site_sum,
    staple,
    unit_gauge,
    weak_gauge,
)
from .halfspinor import (
    half_fermion,
    projection_matrices,
    spin_project,
    spin_reconstruct,
)
from .solver import (
    MultiShiftResult,
    SolveResult,
    SolverError,
    bicgstab,
    cg,
    multishift_cg,
)
from .wilson import EvenOddWilsonOperator, WilsonOperator, WilsonParams

__all__ = [
    "compute_propagator",
    "effective_mass",
    "pion_correlator",
    "point_source",
    "CloverTerm",
    "half_fermion",
    "projection_matrices",
    "spin_project",
    "spin_reconstruct",
    "DSLASH_FLOPS_PER_SITE",
    "EvenOddWilsonOperator",
    "GAMMA",
    "GAMMA5",
    "MultiShiftResult",
    "SolveResult",
    "SolverError",
    "WilsonDslash",
    "WilsonOperator",
    "WilsonParams",
    "bicgstab",
    "cg",
    "dslash_expr",
    "field_strength_numpy",
    "gamma",
    "gamma5_const",
    "gauge_transform",
    "multishift_cg",
    "plaquette",
    "plaquette_field_expr",
    "plaquette_site_sum",
    "projector",
    "projector_const",
    "sigma",
    "staple",
    "unit_gauge",
    "weak_gauge",
]
