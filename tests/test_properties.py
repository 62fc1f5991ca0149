"""Property-based tests (hypothesis) for the exact-arithmetic kernels."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_ceiling, round_floor

from split_thue.algebraic import AlgebraicNumber, poly_eval_sign
from split_thue.precision import Interval, iv_from_fraction
from split_thue.solver import solve_bruteforce
from test_solver import naive_solutions

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


@given(rationals)
@settings(max_examples=60, deadline=None)
def test_iv_from_fraction_always_encloses(q):
    x = Interval(iv_from_fraction(q, 80)._mpi_, 80)
    assert x.inf <= q <= x.sup


# m * 2^e: zero, small and huge mantissas, negative and positive exponents
dyadics = st.builds(
    lambda m, e: m * Fraction(2) ** e,
    st.integers(-5, 5) | st.integers(-(2**3000), 2**3000),
    st.integers(-3000, 3000),
)


@given(dyadics, dyadics, st.integers(1, 2000))
@settings(max_examples=200, deadline=None)
def test_between_rounds_dyadic_ends_as_from_rational(a, b, prec):
    lo, hi = min(a, b), max(a, b)
    want = (
        from_rational(lo.numerator, lo.denominator, prec, round_floor),
        from_rational(hi.numerator, hi.denominator, prec, round_ceiling),
    )
    assert Interval.between(lo, hi, prec)._mpi_ == want


@given(rationals.filter(lambda q: q != 0))
@settings(max_examples=40, deadline=None)
def test_rational_height_formula(q):
    # h(p/q) = log max(|p|, q) for a reduced fraction
    h = AlgebraicNumber.from_rational(q).height()
    expected = math.log(max(abs(q.numerator), q.denominator))
    mid = float((h.inf + h.sup) / 2)
    assert mid >= -1e-30
    assert abs(mid - expected) < 1e-12


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_poly_eval_sign_matches_exact_value(a, b, d):
    coeffs = (1, a, b)
    pt = Fraction(a, d)
    val = pt * pt + a * pt + b
    assert poly_eval_sign(coeffs, pt) == (val > 0) - (val < 0)


@given(st.integers(1, 25), st.integers(3, 60))
@settings(max_examples=25, deadline=None)
def test_solver_solutions_all_verify(a, gap):
    A, B = a, a + gap
    for s in solve_bruteforce((A, B), 0, 30):
        assert s.verify(A, B)
        assert abs(s.sign) == 1


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 15))
@settings(max_examples=40, deadline=None)
def test_solver_matches_naive_oracle(A, B, y_max):
    got = {(s.x, s.y, s.sign) for s in solve_bruteforce((A, B), 0, y_max)}
    assert got == naive_solutions(A, B, 0, y_max)

