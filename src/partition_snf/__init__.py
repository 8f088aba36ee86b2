"""Exact weight matrices of integer partitions and their normal forms.

Partitions carry a multivariate weight polynomial on every cell of their
border-extended diagram.  This package builds those polynomials and the
square and rectangular matrices they form, reduces the matrices to
diagonal form by two independent constructive algorithms with explicit
unitriangular transforms, verifies every reduction exactly, and exposes
the staircase q-analog specialization plus a command line front end.
"""

from .checks import SelfTestReport, alternating_row_sum, determinant, run_selftest
from .errors import (
    CellOutOfRange,
    DimensionMismatch,
    IndexOutOfRange,
    InternalGeometryError,
    InvalidRectangle,
    NameCollision,
    NonPositive,
    NotDecreasing,
    NotSquare,
    ParseError,
    PartitionSnfError,
    TooLarge,
    VerificationFailed,
)
from .partitions import (
    Cell,
    ExtendedDiagram,
    Partition,
    all_partitions,
    boundary_walk_count,
    parse_partition,
    partitions_of,
    subdiagram_shape,
)
from .polynomials import (
    Monomial,
    Polynomial,
    letter_naming,
    polynomial_from_json,
    polynomial_to_json,
    render,
)
from .qcatalan import (
    expected_snf_exponents,
    q_catalan,
    q_catalan_table,
    q_coefficients,
    render_q,
    staircase,
    staircase_snf_diagonal,
)
from .recurrence import row_coefficient, row_coefficients
from .snf import (
    SnfResult,
    snf_both,
    snf_inductive,
    snf_recurrence,
    verify_snf,
)
from .weights import (
    PolyMatrix,
    clear_weight_cache,
    leading_monomial,
    rect_weight_matrix,
    square_matrix,
    weight_at,
    weight_polynomial,
)

__version__ = "0.1.0"
