"""Table I: the QDP++ data types.

Prints the nested type definitions (verifying they match the paper's
notation) and benchmarks field construction + SoA round-trip, the
operations behind every JIT data view.
"""

import numpy as np

from repro.qdp.fields import LatticeField
from repro.qdp.lattice import Lattice
from repro.qdp.typesys import (
    clover_diag,
    clover_triangular,
    color_matrix,
    fermion,
    spin_matrix,
)

from _util import header, report, table


TYPES = [
    ("psi (LatticeFermion)", fermion()),
    ("U (LatticeColorMatrix)", color_matrix()),
    ("Gamma (LatticeSpinMatrix)", spin_matrix()),
    ("Adiag (clover diagonal)", clover_diag()),
    ("Atria (clover triangular)", clover_triangular()),
]


def test_table1_definitions(benchmark):
    header("Table I: data types in QDP++ (paper notation check)")
    rows = []
    for name, spec in TYPES:
        rows.append((name, spec.describe(), spec.words_per_site,
                     spec.bytes_per_site))
    table(rows, ("symbol", "definition", "words/site", "bytes/site (DP)"))
    report("paper: clover term stored as 2 blocks x (6 diag reals + "
           "15 lower-triangular complexes) = 72 reals/site",
           f"measured: {clover_diag().words_per_site} + "
           f"{clover_triangular().words_per_site} = "
           f"{clover_diag().words_per_site + clover_triangular().words_per_site}")

    lat = Lattice((8, 8, 8, 8))

    def build_and_roundtrip():
        f = LatticeField(lat, fermion())
        data = np.ones((lat.nsites, 4, 3), dtype=complex)
        f.from_numpy(data)
        return f.to_numpy()

    result = benchmark(build_and_roundtrip)
    assert result.shape == (lat.nsites, 4, 3)
