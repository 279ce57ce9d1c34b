"""Lattice QCD domain layer: gauge observables, Dirac operators,
clover term, solvers — the Chroma-side physics built on the QDP
interface."""

from .analysis import (
    compute_propagator,
    effective_mass,
    pion_correlator,
    point_source,
    wall_source,
)
from .clover import CloverTerm
from .dslash import DSLASH_FLOPS_PER_SITE, WilsonDslash, dslash_expr
from .gamma import (
    GAMMA,
    GAMMA5,
    gamma,
    gamma5_const,
    gamma_const,
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
    random_gauge,
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
from .mixedsolver import MixedSolveResult, mixed_precision_cg
from .observables import (
    energy_density,
    polyakov_loop,
    topological_charge,
    wilson_loop,
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
    "wall_source",
    "CloverTerm",
    "MixedSolveResult",
    "energy_density",
    "half_fermion",
    "mixed_precision_cg",
    "polyakov_loop",
    "projection_matrices",
    "spin_project",
    "spin_reconstruct",
    "topological_charge",
    "wilson_loop",
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
    "gamma_const",
    "gauge_transform",
    "multishift_cg",
    "plaquette",
    "plaquette_field_expr",
    "plaquette_site_sum",
    "projector",
    "projector_const",
    "random_gauge",
    "sigma",
    "staple",
    "unit_gauge",
    "weak_gauge",
]
