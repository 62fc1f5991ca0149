"""The exact polynomial kernel of split_thue.algebraic against sympy, which
is a test-only dependency: factor lists, composed sums and products, and
root isolation, on small integer polynomials."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from split_thue.algebraic import (
    Enclosure,
    _composed_poly,
    _isolate_all,
    _normalize_coeffs,
    _primitive,
    _resultant_poly,
    factor_list,
)

sp = pytest.importorskip("sympy")
X, Y = sp.symbols("x y")

ORACLE = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def polys(min_degree=1, max_degree=5, bound=9):
    """Integer polynomials as descending coefficient tuples, nonzero leading
    coefficient."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.tuples(
            st.integers(-bound, bound).filter(bool),
            *[st.integers(-bound, bound)] * d,
        )
    )


def products(max_factors=3):
    """Products of small polynomials, so that repeated and shared factors
    occur often."""
    return st.lists(polys(1, 2, 4), min_size=1, max_size=max_factors).map(
        lambda fs: tuple(sp.Poly(sp.Mul(*[sp.Poly(f, X).as_expr() for f in fs]), X).all_coeffs())
    )


def _sympy_factors(f):
    return [(_normalize_coeffs(g.all_coeffs()), m) for g, m in sp.Poly(list(f), X).factor_list()[1]]


@ORACLE
@given(st.one_of(polys(), products()))
def test_factor_list_matches_sympy(f):
    assume(len(f) > 1)
    f = tuple(int(c) for c in f)
    assert factor_list(f) == _sympy_factors(f)


def _sympy_composed(a, b, op):
    fa = sum(c * Y ** (len(a) - 1 - i) for i, c in enumerate(a))
    db = len(b) - 1
    if op == "add":
        fb = sum(c * (X - Y) ** (db - i) for i, c in enumerate(b))
    else:
        fb = sum(c * X ** (db - i) * Y**i for i, c in enumerate(b))
    return sp.Poly(sp.resultant(fa, fb, Y), X)


@ORACLE
@given(polys(1, 3, 6), polys(1, 3, 6), st.sampled_from(["add", "mul"]))
def test_composed_polynomial_is_the_resultant(a, b, op):
    res = _sympy_composed(a, b, op)
    assert _primitive(_composed_poly(a, b, op)) == _normalize_coeffs(res.all_coeffs())
    want = sorted(g for g, _ in _sympy_factors(res.all_coeffs()) if len(g) > 1)
    assert sorted(_resultant_poly(a, b, op)) == want


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(polys(1, 5), st.sampled_from([32, 64, 100]))
def test_isolation_matches_sympy_roots(f, eps_bits):
    f = _normalize_coeffs(f)
    poly = sp.Poly(list(f), X)
    assume(sp.degree(sp.gcd(poly, poly.diff(X)), X) == 0)
    boxes = _isolate_all(f, eps_bits)
    assert len(boxes) == len(f) - 1
    width = Fraction(1, 2**eps_bits)
    assert all(b.width() <= width for b in boxes)
    assert not any(a.intersects(b) for i, a in enumerate(boxes) for b in boxes[i + 1:])
    assert all(b.is_real or b.im_lo > 0 or b.im_hi < 0 for b in boxes)
    # sympy's isolating boxes: when our i-th box meets sympy's i-th and no
    # other, it holds the root sympy puts at index i, since it holds one
    # root and that is none of the others
    real, cplx = poly.intervals(all=True, eps=sp.Rational(1, 2**8))
    oracle = [Enclosure(Fraction(str(a)), Fraction(str(b)), Fraction(0), Fraction(0)) for (a, b), _ in real]
    for (c1, c2), _ in cplx:
        (re1, im1), (re2, im2) = c1.as_real_imag(), c2.as_real_imag()
        oracle.append(Enclosure(*(Fraction(str(v)) for v in (min(re1, re2), max(re1, re2), min(im1, im2), max(im1, im2)))))
    assert len(oracle) == len(boxes)
    for i, b in enumerate(boxes):
        assert [j for j, s in enumerate(oracle) if s.intersects(b)] == [i]
