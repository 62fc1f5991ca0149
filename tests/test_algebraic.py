import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from split_thue import algebraic, precision
from split_thue.algebraic import (
    AlgebraicNumber,
    Enclosure,
    _isolate_all,
    _poly_mul,
    _squarefree_part,
    abs_compare,
    bisect_root,
    field_arith,
    poly_eval_sign,
    refine_bracket,
    scaled_poly,
)
from split_thue.precision import UndecidedComparison


def sqrt2():
    return AlgebraicNumber([1, 0, -2], Enclosure(Fraction(1), Fraction(3, 2)))


def golden():
    return AlgebraicNumber([1, -1, -1], Enclosure(Fraction(3, 2), Fraction(2)))


def test_poly_eval_sign():
    assert poly_eval_sign((1, 0, -2), Fraction(1)) == -1
    assert poly_eval_sign((1, 0, -2), Fraction(2)) == 1
    assert poly_eval_sign((1, -3), Fraction(3)) == 0


def test_refine_bracket_bisects_exactly():
    r = refine_bracket((1, 0, -2), Enclosure(Fraction(1), Fraction(2)), Fraction(1, 2**80))
    assert r.width() <= Fraction(1, 2**80)
    # endpoints stay exact rationals bracketing sqrt(2)
    assert r.lo**2 < 2 < r.hi**2


def test_refine_bracket_refines_non_dyadic_bracket():
    # the smallest root of X^3 - 11X^2 + 24X - 1, near 1/24
    coeffs = (1, -11, 24, -1)
    lo, hi = Fraction(1, 30), Fraction(1, 20)
    r = refine_bracket(coeffs, Enclosure(lo, hi), Fraction(1, 2**300))
    assert r.width() <= Fraction(1, 2**300)
    assert lo <= r.lo < r.hi <= hi
    assert poly_eval_sign(coeffs, r.lo) == -1 and poly_eval_sign(coeffs, r.hi) == 1
    # a bracket whose endpoint lies within 2^-400 of the root: the root is in
    # the sliver between that endpoint and the nearest grid point, which is
    # the answer as it stands
    fine = refine_bracket(coeffs, Enclosure(lo, hi), Fraction(1, 2**400))
    near_lo = fine.lo - Fraction(1, 3 * 2**401)
    near_hi = fine.hi + Fraction(1, 3 * 2**401)
    r = refine_bracket(coeffs, Enclosure(near_lo, hi), Fraction(1, 2**300))
    assert r.lo == near_lo and r.width() <= Fraction(1, 2**300)
    assert poly_eval_sign(coeffs, r.hi) == 1
    r = refine_bracket(coeffs, Enclosure(lo, near_hi), Fraction(1, 2**300))
    assert r.hi == near_hi and r.width() <= Fraction(1, 2**300)
    assert poly_eval_sign(coeffs, r.lo) == -1


def plain_bisection(F, lo, hi):
    """One bit per evaluation: the reference answer for ``bisect_root``."""
    neg_lo = F(lo) < 0
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        v = F(mid)
        if v == 0:
            return mid, mid
        if (v < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=5).filter(lambda c: c[0] != 0),
    st.one_of(st.none(), st.tuples(st.integers(-300, 300), st.integers(0, 8))),
    st.integers(1, 2048),
)
@example([1, 0, -2], (3, 1), 64)  # x^2 - 2 times 2x - 3: the root 3/2 is on the grid
@settings(max_examples=80, deadline=None)
def test_bisect_root_matches_bisection(coeffs, dyadic, K):
    # an integer polynomial of degree 1..4, times 2^j x - m when a dyadic
    # root m / 2^j is drawn; every real root is bracketed at scale 2^K
    if dyadic is not None:
        m, j = dyadic
        coeffs = _poly_mul(coeffs, [1 << j, -m])
    f = _squarefree_part(coeffs)
    if len(f) < 3:
        return
    F, scale = scaled_poly(f, K), 1 << K
    for box in _isolate_all(f, 4):
        if not box.is_real:
            continue
        # inward to the grid: still isolating when F changes sign at the ends
        lo = -(-box.lo.numerator * scale // box.lo.denominator)
        hi = box.hi.numerator * scale // box.hi.denominator
        if lo >= hi or F(lo) == 0 or F(hi) == 0 or (F(lo) < 0) == (F(hi) < 0):
            continue
        got = bisect_root(F, lo, hi)
        assert got == plain_bisection(F, lo, hi)
        if dyadic is not None and K >= dyadic[1] and lo < (dyadic[0] << (K - dyadic[1])) < hi:
            assert got == (dyadic[0] << (K - dyadic[1]),) * 2


def count_evaluations(monkeypatch):
    """Record every point at which a polynomial from ``scaled_poly`` is
    evaluated, as (coefficients, K, point)."""
    calls = []

    def counting_scaled_poly(coeffs, K):
        F = scaled_poly(coeffs, K)

        def counted(m):
            calls.append((coeffs, K, m))
            return F(m)

        return counted

    monkeypatch.setattr(algebraic, "scaled_poly", counting_scaled_poly)
    return calls


def test_refining_sqrt2_to_16384_bits_takes_few_evaluations(monkeypatch, cold_kernel):
    calls = count_evaluations(monkeypatch)
    enc = sqrt2().approx(16384)
    assert enc.sup - enc.inf < Fraction(1, 2**16380)
    # bisection takes one evaluation per bit, 16387 here
    assert 0 < len(calls) <= 64


@pytest.mark.parametrize(
    "coeffs, lo, hi",
    [
        ((1, 0, -2), Fraction(1), Fraction(3, 2)),
        ((1, -11, 24, -1), Fraction(1, 30), Fraction(1, 20)),
        ((1, -1, -1), Fraction(3, 2), Fraction(2)),
    ],
)
def test_refine_bracket_evaluates_each_point_once(monkeypatch, coeffs, lo, hi):
    calls = count_evaluations(monkeypatch)
    for k in (10, 64, 300, 2000):
        box = refine_bracket(coeffs, Enclosure(lo, hi), Fraction(1, 2**k))
        assert box.width() <= Fraction(1, 2**k)
    assert calls and len(set(calls)) == len(calls)


def test_real_root_refines_to_nested_sign_changes():
    # an isolating box of the cubic's smallest root, refined through ever
    # smaller widths by the shared integer-grid refiner
    x = AlgebraicNumber([1, -11, 24, -1], Enclosure(Fraction(1, 30), Fraction(1, 20)))
    assert x.degree == 3
    box = x.enclosure
    for k in (10, 50, 100, 200, 300, 600):
        width = Fraction(1, 2**k)
        tight = x.refined(width)
        assert tight.width() <= width
        assert box.lo <= tight.lo < tight.hi <= box.hi
        signs = poly_eval_sign(x.min_poly, tight.lo), poly_eval_sign(x.min_poly, tight.hi)
        assert sorted(signs) == [-1, 1]
        box = tight


def test_rational_round_trip():
    x = AlgebraicNumber.from_rational(Fraction(-7, 3))
    assert x.is_rational and x.is_real
    assert x.as_fraction() == Fraction(-7, 3)
    assert x.degree == 1


def test_real_root_enclosure_refines():
    r = sqrt2()
    assert r.degree == 2
    enc = r.approx(128)
    lo, hi = enc.inf, enc.sup
    truncated = Fraction(141421356237309504880168872420969807, 10**35)
    slack = Fraction(1, 10**34)
    assert lo - slack <= truncated <= hi + slack
    assert hi - lo < Fraction(1, 2**100)


def test_equality_distinguishes_conjugates():
    plus = sqrt2()
    minus = AlgebraicNumber([1, 0, -2], Enclosure(Fraction(-3, 2), Fraction(-1)))
    assert plus == plus
    assert plus != minus
    assert plus == -minus


def test_arithmetic_with_rationals():
    r = sqrt2()
    x = r + 1
    y = x * x  # (1 + sqrt2)^2 = 3 + 2 sqrt2
    expected = r * 2 + 3
    assert y == expected


def test_field_arith_resultant_identities():
    a, b = sqrt2(), golden()
    s = field_arith(a, b, "add")
    d = field_arith(s, b, "sub")
    assert d == a
    p = field_arith(a, a, "mul")
    assert p.is_rational and p.as_fraction() == 2


def _oracle(expr_dps_50):
    """High-precision reference value as an exact Fraction."""
    import mpmath

    with mpmath.workdps(60):
        return Fraction(mpmath.nstr(expr_dps_50(), 55)).limit_denominator(10**50)


def test_height_of_rationals():
    import mpmath

    log2 = _oracle(lambda: mpmath.log(2))
    for value in (2, Fraction(1, 2)):
        h = AlgebraicNumber.from_rational(value).height()
        mid = (h.inf + h.sup) / 2
        assert abs(mid - log2) < Fraction(1, 10**25)


def test_height_of_golden_ratio():
    # h(phi) = (1/2) log phi: one conjugate lies outside the unit circle
    import mpmath

    target = _oracle(lambda: mpmath.log((1 + mpmath.sqrt(5)) / 2) / 2)
    h = golden().height()
    mid = (h.inf + h.sup) / 2
    assert abs(mid - target) < Fraction(1, 10**25)


def _near_sqrt2():
    """sqrt(2) and a rational above it by less than 2^-400."""
    r = sqrt2()
    return r, r.refined(Fraction(1, 2**400)).hi


def test_abs_compare_refines():
    # moduli that overlap at 64 bits and separate under refinement
    r, q = _near_sqrt2()
    assert r.approx(64).sup >= q
    assert abs_compare(r, q, 64) == -1
    assert abs_compare(-q, -r, 64) == 1


def test_abs_compare_undecided_raises(monkeypatch):
    r, q = _near_sqrt2()
    monkeypatch.setattr(precision, "MAX_BITS", 256)
    with pytest.raises(UndecidedComparison, match="256 bits"):
        abs_compare(r, q, 64)


def test_undecidable_comparison_stops_at_the_bit_cap(monkeypatch):
    # without the exact tie test |sqrt 2| and |-sqrt 2| never separate; the
    # default precision doubles from 256 to 2^14 bits and gives up
    monkeypatch.setattr(algebraic, "_moduli_tie", lambda x, y: False)
    r = sqrt2()
    start = time.perf_counter()
    with pytest.raises(UndecidedComparison, match="16384 bits"):
        abs_compare(r, -r)
    assert time.perf_counter() - start < 30


def test_abs_compare_real_tie():
    r = sqrt2()
    assert abs_compare(r, r) == 0
    assert abs_compare(r, -r) == 0
    assert abs_compare(golden(), r) == 1
    assert abs_compare(r, golden()) == -1


def test_enclosure_scales_and_conjugates_a_complex_box():
    minus_i, i = _isolate_all((1, 0, 1), 64)
    assert i.im_lo > 0 and i.conjugate() == minus_i
    for k in (-1, 3):
        box = i.scaled(k)
        assert box.lo <= 0 <= box.hi and box.im_lo <= k <= box.im_hi
        assert box.width() == abs(k) * i.width()
    assert -AlgebraicNumber((1, 0, 1), i) == AlgebraicNumber((1, 0, 1), minus_i)


def test_abs_compare_complex_tie():
    # the real root of x^3 - 2 and its complex pair all have modulus 2^(1/3)
    real, *pair = (AlgebraicNumber((1, 0, 0, -2), box) for box in _isolate_all((1, 0, 0, -2), 64))
    assert real.is_real and not any(c.is_real for c in pair)
    assert abs_compare(real, pair[0]) == 0
    assert abs_compare(pair[0], pair[1]) == 0
    assert abs_compare(pair[1], 1) == 1
    assert abs_compare(Fraction(5, 4), pair[0]) == -1


def test_abs_compare_rationals():
    assert abs_compare(Fraction(-3, 2), Fraction(3, 2)) == 0
    assert abs_compare(-2, 1) == 1
    assert abs_compare(Fraction(1, 3), AlgebraicNumber.from_rational(Fraction(-1, 2))) == -1
