"""Certified verification of split families of cubic Thue equations.

For a pair of integer linear-recurrent sequences (A_n, B_n) with dominant
real roots, this package isolates the roots of
``f_n = X^3 - (A_n + B_n) X^2 + A_n B_n X - 1`` with certified interval
arithmetic, checks the explicit approximation lemmas, chains the effective
constants through a Baker-type lower bound to a threshold n0, and
brute-force certifies that only the trivial solutions of
``|X (X - A_n Y)(X - B_n Y) - Y^3| = 1`` occur at desk scale.
"""

from .precision import PrecisionExhausted, SplitThueError, UndecidedComparison
from .algebraic import AlgebraicNumber, field_arith
from .sequences import (
    CoefficientPolynomial,
    FamilyInstance,
    HypothesisViolated,
    RecurrentSequence,
    check_hypotheses,
    sequence_from_json,
)
from .cubic import (
    ApproxConstants,
    CubicRootSet,
    compute_constants,
    isolate_roots,
    verify_log_approx,
    verify_root_approx,
    verify_root_diff,
)
from .units import (
    UnitExponents,
    regulator,
    unit_decompose,
    verify_xi_bound,
    xi_form,
)
from .bounds import (
    C_RANK2_CUBIC,
    ChainProbe,
    N0Result,
    baker_lower,
    bugy_bound,
    compute_n0,
    field_degree,
)
from .solver import Solution, solve_bruteforce, verify_family

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber",
    "ApproxConstants",
    "C_RANK2_CUBIC",
    "ChainProbe",
    "CoefficientPolynomial",
    "CubicRootSet",
    "FamilyInstance",
    "HypothesisViolated",
    "N0Result",
    "PrecisionExhausted",
    "RecurrentSequence",
    "Solution",
    "SplitThueError",
    "UndecidedComparison",
    "UnitExponents",
    "baker_lower",
    "bugy_bound",
    "check_hypotheses",
    "compute_constants",
    "compute_n0",
    "field_arith",
    "field_degree",
    "isolate_roots",
    "regulator",
    "sequence_from_json",
    "solve_bruteforce",
    "unit_decompose",
    "verify_family",
    "verify_log_approx",
    "verify_root_approx",
    "verify_root_diff",
    "verify_xi_bound",
    "xi_form",
]
