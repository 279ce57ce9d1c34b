"""Gauge generation: HMC/RHMC with multi-timescale integration.

The application layer of the reproduction — Chroma's gauge-generation
program built entirely on the QDP-JIT expression pipeline (paper
Sec. VIII-D).
"""

from .forces import (
    dslash_outer_force,
    gaussian_momenta,
    hermitian_traceless,
    kinetic_energy,
    update_links,
    wilson_gauge_action,
    wilson_gauge_force,
)
from .hmc import HMC, TrajectoryResult
from .integrator import OMELYAN_LAMBDA, Level, MultiTimescaleIntegrator
from .monomials import (
    GaugeMonomial,
    HasenbuschRatioMonomial,
    Monomial,
    OneFlavorRationalMonomial,
    TwoFlavorWilsonMonomial,
)
from .rational import (
    PartialFraction,
    RationalError,
    fourth_root,
    inv_sqrt,
    rational_inverse_power,
)

__all__ = [
    "GaugeMonomial",
    "HMC",
    "HasenbuschRatioMonomial",
    "Level",
    "Monomial",
    "MultiTimescaleIntegrator",
    "OMELYAN_LAMBDA",
    "OneFlavorRationalMonomial",
    "PartialFraction",
    "RationalError",
    "TrajectoryResult",
    "TwoFlavorWilsonMonomial",
    "dslash_outer_force",
    "fourth_root",
    "gaussian_momenta",
    "hermitian_traceless",
    "inv_sqrt",
    "kinetic_energy",
    "rational_inverse_power",
    "update_links",
    "wilson_gauge_action",
    "wilson_gauge_force",
]
