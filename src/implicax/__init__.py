"""implicax: exact implicitization of rational curves and surfaces.

The implicit equation of the closed image of n homogeneous polynomials of
one degree in n-1 variables is computed as the determinant of a graded
strand of the Koszul syzygy complex (or the gcd of its maximal minors),
with classical Sylvester/Bezout resultant matrices as an independent route
for plane curves.
"""

from .arith import (
    GF,
    QQ,
    Parameterization,
    Poly,
    Ring,
    exact_divide,
    make_parameterization,
    multivariate_gcd,
    normalize,
    parse_poly,
    perfect_power_decompose,
    unit_multiple_of,
)
from .errors import (
    ConsistencyError,
    HypothesisViolation,
    ImplicaxError,
    NotDivisibleError,
    ParseError,
    SmallCharacteristicError,
    UsageError,
)
from .geometry import (
    BasePointReport,
    hilbert_value,
    nu_bound,
    saturation_piece,
    syzygetic_test,
)
from .pipeline import ImplicitResult, analyze, implicitize, verify
from .resultants import (
    bezout_matrix,
    binary_form,
    curve_implicitize_resultant,
    kravitsky_pencil,
)
from .strands import (
    ZStrand,
    boundary_basis,
    complex_determinant,
    cycle_basis,
    gcd_of_maximal_minors,
    koszul_differential_matrix,
    z_strand,
)

__version__ = "0.1.0"
