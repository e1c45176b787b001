"""Dunkl harmonic analysis on spheres.

Reflection groups and multiplicity functions, Dunkl operators and their
harmonics, Gegenbauer coefficient profiles, weighted sphere measures, and
fundamentality verdicts for families of kernel translates in L_p.
"""

from .multipoly import (
    EXACT,
    FLOAT,
    DegreeCapError,
    ModeError,
    MultiPoly,
    NonDivisibleError,
    monomials_of_degree,
)
from .reflection import (
    FAMILIES,
    GroupOrderCapError,
    InvalidMultiplicityError,
    MultiplicityFunction,
    ReflectionGroup,
    RootSystem,
    UnsupportedGroupError,
    builtin_root_system,
    generate_group,
    reflection_matrix,
    root_orbits,
    validate_multiplicity,
    weight_as_polynomial,
    weight_values,
)
from .operators import (
    DunklContext,
    HarmonicBasis,
    dunkl_apply,
    dunkl_laplacian,
    harmonic_basis,
    harmonic_space_dimension,
    intertwine,
    kernel_translate_batch,
    translate_as_polynomial,
)
from .gegenbauer import (
    DEFAULT_EPS,
    INDETERMINATE,
    NONZERO,
    ZERO,
    CoefficientProfile,
    Function1D,
    ProfileEntry,
    QuadratureRule,
    c_lambda,
    coefficient_profile,
    gauss_jacobi_rule,
    gegenbauer_at_one,
    gegenbauer_coefficients,
    gegenbauer_eval,
    lambda_coefficient,
    lp_norm_segment,
    parse_function,
    pochhammer,
    symmetric_jacobi_rule,
)
from .sphere import (
    SphereMeasure,
    a_kappa,
    a_kappa_paths,
    even_monomial_coeff,
    exact_sigma_integral,
    node_set,
    sphere_surface_area,
)
from .fundamentality import (
    FUNDAMENTAL,
    INDETERMINATE_VERDICT,
    NOT_FUNDAMENTAL,
    DensityReport,
    FundamentalityReport,
    FunkHeckeReport,
    FunkHeckeTable,
    OperatorNormReport,
    UnionReport,
    density_demo,
    funk_hecke_residual,
    funk_hecke_table,
    is_fundamental,
    operator_norm_check,
    union_fundamental,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT", "FLOAT", "MultiPoly", "monomials_of_degree",
    "DegreeCapError", "ModeError", "NonDivisibleError",
    "FAMILIES", "RootSystem", "builtin_root_system",
    "reflection_matrix", "ReflectionGroup", "generate_group", "root_orbits",
    "MultiplicityFunction", "validate_multiplicity",
    "weight_values", "weight_as_polynomial",
    "GroupOrderCapError", "UnsupportedGroupError", "InvalidMultiplicityError",
    "DunklContext", "dunkl_apply", "dunkl_laplacian",
    "harmonic_space_dimension", "harmonic_basis", "HarmonicBasis",
    "intertwine", "kernel_translate_batch", "translate_as_polynomial",
    "Function1D", "parse_function", "pochhammer", "c_lambda",
    "gegenbauer_eval", "gegenbauer_at_one", "gegenbauer_coefficients",
    "gauss_jacobi_rule", "symmetric_jacobi_rule", "QuadratureRule",
    "lambda_coefficient", "lp_norm_segment", "coefficient_profile",
    "CoefficientProfile", "ProfileEntry",
    "ZERO", "NONZERO", "INDETERMINATE", "DEFAULT_EPS",
    "SphereMeasure", "a_kappa", "a_kappa_paths",
    "even_monomial_coeff", "sphere_surface_area",
    "exact_sigma_integral", "node_set",
    "is_fundamental", "union_fundamental", "funk_hecke_residual",
    "funk_hecke_table", "density_demo", "operator_norm_check",
    "FundamentalityReport", "UnionReport", "FunkHeckeReport",
    "FunkHeckeTable", "DensityReport", "OperatorNormReport",
    "FUNDAMENTAL", "NOT_FUNDAMENTAL", "INDETERMINATE_VERDICT",
    "__version__",
]
