"""Exact computer algebra for differential modules of finitely presented
algebras over the rationals, prime fields, and rational function fields.

The high points: sparse multivariate polynomials with weighted gradings, a
Buchberger engine for ideals and free-module submodules, quotient algebras
with power-of-the-maximal-ideal stabilization for power-series quotients,
Jacobian presentations of differential modules with exact zero tests, and
verified constructions of non-reduced algebras whose differentials die in
towers.
"""

from .algebras import (
    AlgebraMap,
    Presentation,
    QuotientAlgebra,
    artinian_local_model,
    compose,
    has_nonzero_nilpotent,
    is_injective,
    jordan_type,
    make_map,
    make_quotient,
    nilpotency_index,
    quotient_by,
    renaming_map,
    tensor_many,
    tensor_quotient,
)
from .differentials import (
    DZeroCertificate,
    KaehlerModule,
    VeroneseReport,
    certifies_d_zero,
    derivation_kernel_in_degree,
    is_omega_zero,
    is_zero_induced_map,
    kaehler,
    raw_differential,
    veronese_containment_check,
)
from .errors import (
    BudgetExceededError,
    CapExceededError,
    ComputationError,
    NotMPrimaryError,
    ParseError,
)
from .fields import (
    QQ,
    FieldDescriptor,
    FieldElement,
    formal_derivative,
    format_scalar,
    prime_field,
    rational_functions,
    rationals,
)
from .groebner import (
    GroebnerBasis,
    Staircase,
    buchberger,
    dimension,
    normal_form,
    staircase,
    staircase_of_degree,
    step_budget,
)
from .parsing import parse_scalar
from .polynomials import (
    ModuleVector,
    PolyRing,
    Polynomial,
    euler_apply,
    format_polynomial,
    is_homogeneous,
    partial_derivative,
    substitute,
    weighted_degree,
)

__version__ = "0.1.0"
