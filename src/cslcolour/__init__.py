"""Exact-arithmetic coincidence site lattices and coset colourings.

The package computes, over exact rationals only:

* coincidence site lattices (CSLs) of a lattice under an invertible
  rational map, and their coincidence indices,
* the full index diagram of a sublattice-induced colouring under such a
  map (the indices m, sigma1, sigma2, s, t, u, v),
* whether the map is a colour coincidence, and if so the induced
  permutation of colours,
* the same data for the rank-4 eightfold planar module given a ring
  element of the 8th cyclotomic field,
* brute-force window censuses that cross-check all of the above.
"""

from cslcolour.errors import (
    CslcolourError,
    ConfigError,
    DimensionMismatch,
    InternalInvariantViolation,
    NotASublattice,
    NotCoincidence,
    NotColourCoincidence,
    NotInParent,
    RankDeficient,
    Singular,
    UnsupportedDimension,
    ZeroElement,
)
from cslcolour.ratmat import (
    format_rational,
    parse_rational,
    rat_inverse,
    rat_matrix,
    snf,
)
from cslcolour.lattice import (
    Colouring,
    Lattice,
    colour_of,
    coset_meets_lattice,
    coset_reps,
    index,
    intersect,
    lattice_new,
    standard_lattice,
    transform,
)
from cslcolour.coincidence import (
    ColouringAnalysis,
    CommensurableMap,
    analyze,
    census_contradictions,
    colour_permutation,
    commensurable_map,
    csl,
    enumerate_square_rotations,
    is_coincidence,
    is_colour_coincidence,
    sigma,
    window_census,
)
from cslcolour.cyclo8 import (
    AMMANN_BEENKER_ROTATION,
    Cyc8,
    cyc8,
    cyc8_mul_matrix,
    multiplication_map,
    principal_submodule,
)

__version__ = "0.1.0"

__all__ = [
    "CslcolourError",
    "ConfigError",
    "DimensionMismatch",
    "InternalInvariantViolation",
    "NotASublattice",
    "NotCoincidence",
    "NotColourCoincidence",
    "NotInParent",
    "RankDeficient",
    "Singular",
    "UnsupportedDimension",
    "ZeroElement",
    "format_rational",
    "parse_rational",
    "rat_inverse",
    "rat_matrix",
    "snf",
    "Colouring",
    "Lattice",
    "colour_of",
    "coset_meets_lattice",
    "coset_reps",
    "index",
    "intersect",
    "lattice_new",
    "standard_lattice",
    "transform",
    "ColouringAnalysis",
    "CommensurableMap",
    "analyze",
    "census_contradictions",
    "colour_permutation",
    "commensurable_map",
    "csl",
    "enumerate_square_rotations",
    "is_coincidence",
    "is_colour_coincidence",
    "sigma",
    "window_census",
    "AMMANN_BEENKER_ROTATION",
    "Cyc8",
    "cyc8",
    "cyc8_mul_matrix",
    "multiplication_map",
    "principal_submodule",
    "__version__",
]
