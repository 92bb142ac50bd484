"""Exact ladder-operator factorizations and Rodrigues chains for classical
orthogonal polynomials, over arbitrary-precision rational arithmetic."""

from .algebra import (
    DecompositionError,
    IrreducibleFactorError,
    PartialFractions,
    Polynomial,
    RationalFunction,
    RepeatedPoleError,
    partial_fractions,
)
from .families import (
    FamilySpec,
    generate_assoc_legendre,
    generate_ladder,
    hermite_from_laguerre,
    make_operator,
    oracle_recurrence,
    rodrigues_chain,
    rodrigues_standard,
)
from .identities import (
    IdentityReport,
    identity_check,
    remainder_expansion,
    remainder_structure_report,
    remainder_term,
)
from .ladder import (
    DIFF,
    Factorization,
    LadderOperator,
    LOWERING,
    OutOfClassError,
    RAISING,
    apply_chain,
    factorize,
    verify_factorization,
)
from .parsing import ParseError, parse_expression
from .verify import run_suite
from .weighted import (
    NotPolynomialError,
    PowerFactor,
    WeightedExpression,
    exp_integral,
)

__version__ = "0.1.0"

__all__ = [
    "DIFF",
    "DecompositionError",
    "Factorization",
    "FamilySpec",
    "IdentityReport",
    "IrreducibleFactorError",
    "LOWERING",
    "LadderOperator",
    "NotPolynomialError",
    "OutOfClassError",
    "ParseError",
    "PartialFractions",
    "Polynomial",
    "PowerFactor",
    "RAISING",
    "RationalFunction",
    "RepeatedPoleError",
    "WeightedExpression",
    "apply_chain",
    "exp_integral",
    "factorize",
    "generate_assoc_legendre",
    "generate_ladder",
    "hermite_from_laguerre",
    "identity_check",
    "make_operator",
    "oracle_recurrence",
    "parse_expression",
    "partial_fractions",
    "remainder_expansion",
    "remainder_structure_report",
    "remainder_term",
    "rodrigues_chain",
    "rodrigues_standard",
    "run_suite",
    "verify_factorization",
]
