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
    identity_map,
    is_injective,
    is_local_with_nilpotent_generators,
    linear_matrix,
    make_map,
    make_quotient,
    nilpotency_index,
    quotient_by,
    tensor_many,
    tensor_product,
    tensor_quotient,
)
from .differentials import (
    KaehlerModule,
    VeroneseReport,
    derivation_kernel_in_degree,
    induced_map_on_omega,
    is_omega_zero,
    is_zero_induced_map,
    kaehler,
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
    parse_scalar,
    prime_field,
    rational_functions,
    rationals,
)
from .groebner import (
    GroebnerBasis,
    Staircase,
    buchberger,
    dimension,
    ideal_member,
    module_member,
    normal_form,
    satisfies_buchberger_criterion,
    staircase,
    staircase_of_degree,
)
from .polynomials import (
    ModuleVector,
    PolyRing,
    Polynomial,
    euler_apply,
    format_polynomial,
    homogeneous_components,
    is_homogeneous,
    partial_derivative,
    rename_variables,
    substitute,
    weighted_degree,
)

__version__ = "0.1.0"
