"""p-Frobenius numbers, p-Sylvester numbers, denumerants and Apery sets for
numerical semigroups, with closed-form fast paths for shifted geometric
generator families and a closed-form-vs-oracle verification harness."""

from .errors import (
    FrobkitError,
    GcdNotOneError,
    InvalidInputError,
    NoClosedFormCaseError,
    OutOfValidityRangeError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from .families import (
    ShiftedGeometricFamily,
    apery_grid_triple,
    closed_value,
    g_p_closed_quad,
    g_p_closed_triple,
    g_p_two_gens,
    make_quad,
    make_triple,
    n_p_closed_triple,
)
from .semigroup import (
    DEFAULT_TABLE_CAP,
    GeneratorTuple,
    apery_set,
    denumerant,
    denumerant_table,
    scan_p_range,
)
from .verify import (
    PointResult,
    SweepSpec,
    SweepSummary,
    VerificationReport,
    discover_validity,
    verify_grid,
    verify_point,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TABLE_CAP",
    "FrobkitError",
    "GcdNotOneError",
    "GeneratorTuple",
    "InvalidInputError",
    "NoClosedFormCaseError",
    "OutOfValidityRangeError",
    "PointResult",
    "ResourceLimitError",
    "ShiftedGeometricFamily",
    "SweepSpec",
    "SweepSummary",
    "UnsupportedCaseError",
    "VerificationReport",
    "apery_grid_triple",
    "apery_set",
    "closed_value",
    "denumerant",
    "denumerant_table",
    "discover_validity",
    "g_p_closed_quad",
    "g_p_closed_triple",
    "g_p_two_gens",
    "make_quad",
    "make_triple",
    "n_p_closed_triple",
    "scan_p_range",
    "verify_grid",
    "verify_point",
]
