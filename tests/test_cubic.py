from fractions import Fraction

import mpmath
import pytest

from split_thue.algebraic import poly_eval_sign
from split_thue.cubic import (
    AnchorSignFailure,
    PolyRootInterval,
    build_fn,
    check_irreducible,
    compute_constants,
    cubic_coeffs,
    isolate_roots,
    verify_log_approx,
    verify_root_approx,
    verify_root_diff,
)


def test_cubic_coeffs():
    assert cubic_coeffs(3, 8) == (1, -11, 24, -1)


def test_build_fn(fib_pow2):
    assert build_fn(fib_pow2, 2) == (1, -11, 24, -1)


def test_check_irreducible():
    ok, witness = check_irreducible((1, -11, 24, -1))
    assert ok and witness is None
    # A = 2, B = 2 gives AB = A + B, i.e. f(1) = 0
    ok, witness = check_irreducible(cubic_coeffs(2, 2))
    assert not ok and witness["f(1)"] == 0


def test_poly_root_interval_bisects_exactly():
    r = PolyRootInterval((1, 0, -2), Fraction(1), Fraction(2))
    r.refine(Fraction(1, 2**80))
    assert r.width() <= Fraction(1, 2**80)
    # endpoints stay exact rationals bracketing sqrt(2)
    assert r.lo**2 < 2 < r.hi**2


def test_poly_root_interval_refines_non_dyadic_bracket():
    # the smallest root of f_2 = X^3 - 11X^2 + 24X - 1, near 1/24
    coeffs = cubic_coeffs(3, 8)
    lo, hi = Fraction(1, 30), Fraction(1, 20)
    r = PolyRootInterval(coeffs, lo, hi)
    r.refine(Fraction(1, 2**300))
    assert r.width() <= Fraction(1, 2**300)
    assert lo <= r.lo < r.hi <= hi
    assert poly_eval_sign(coeffs, r.lo) == -1 and poly_eval_sign(coeffs, r.hi) == 1
    # a bracket whose endpoint lies within 2^-400 of the root: the root is in
    # the sliver between that endpoint and the nearest grid point, which is
    # the answer as it stands
    fine = PolyRootInterval(coeffs, lo, hi).refine(Fraction(1, 2**400))
    near_lo = fine.lo - Fraction(1, 3 * 2**401)
    near_hi = fine.hi + Fraction(1, 3 * 2**401)
    r = PolyRootInterval(coeffs, near_lo, hi).refine(Fraction(1, 2**300))
    assert r.lo == near_lo and r.width() <= Fraction(1, 2**300)
    assert poly_eval_sign(coeffs, r.hi) == 1
    r = PolyRootInterval(coeffs, lo, near_hi).refine(Fraction(1, 2**300))
    assert r.hi == near_hi and r.width() <= Fraction(1, 2**300)
    assert poly_eval_sign(coeffs, r.lo) == -1


def test_poly_root_interval_rejects_no_sign_change():
    with pytest.raises(AnchorSignFailure):
        PolyRootInterval((1, 0, -2), Fraction(2), Fraction(3))


def test_isolate_roots_disjoint_and_ordered(fib_pow2, budget):
    rs = isolate_roots(fib_pow2, 6, budget)
    l1, l2, l3 = rs.roots()
    assert l3.hi < l2.lo < l2.hi < l1.lo
    A, B = fib_pow2.terms(6)
    assert abs(l1.mid() - B) < 1
    assert abs(l2.mid() - A) < 1
    assert abs(l3.mid() - Fraction(1, A * B)) < Fraction(1, 100)


def test_isolate_roots_against_independent_solver(fib_pow2, budget):
    """50-digit numerical cubic solver as an oracle for the enclosures."""
    for n in (5, 12, 20):
        rs = isolate_roots(fib_pow2, n, budget)
        with mpmath.workdps(60):
            roots = sorted(
                mpmath.polyroots([mpmath.mpf(c) for c in rs.coeffs], maxsteps=200, extraprec=120)
            )
            for oracle, mine in zip(roots, (rs.lambda3, rs.lambda2, rs.lambda1)):
                mid = mpmath.mpf(mine.mid().numerator) / mpmath.mpf(mine.mid().denominator)
                assert abs(mid - oracle) < mpmath.mpf(10) ** -40


def test_isolate_roots_below_threshold_raises(budget):
    # adjacent Fibonacci-type pair: at n = 1 (A, B) = (2, 3) and the
    # smallest root lies outside its 1/(AB) anchor window
    from split_thue import FamilyInstance, RecurrentSequence

    a = RecurrentSequence.from_recurrence([1, -1, -1], [1, 2])
    b = RecurrentSequence.from_recurrence([1, -1, -1], [2, 3])
    fam = FamilyInstance.build(a, b, budget)
    with pytest.raises(AnchorSignFailure):
        isolate_roots(fam, 1, budget)


def test_compute_constants_values(fib_pow2_consts):
    c = fib_pow2_consts
    # eps = phi/2, C = 5 phi/2 * 2, c5 = min coefficient lower / 4, c6 = 2(U+1)
    assert abs(float(c.eps) - 0.8090169943749475) < 1e-12
    assert abs(float(c.C) - 5.854101966249685) < 1e-9
    assert abs(float(c.c5) - 0.2927050983124842) < 1e-9
    assert abs(float(c.c6) - 8.683281572999748) < 1e-9
    assert 0 < c.eps < 1 and c.c5 <= c.c6


def test_verify_root_approx(fib_pow2, budget):
    rs = isolate_roots(fib_pow2, 8, budget)
    rep = verify_root_approx(rs, fib_pow2)
    assert rep.all_pass
    assert {e.name for e in rep.entries} == {
        "lambda1-near-B",
        "lambda2-near-A",
        "lambda2-second-order",
        "lambda3-near-inv-AB",
    }


def test_verify_log_approx(fib_pow2, fib_pow2_consts, budget):
    rs = isolate_roots(fib_pow2, 10, budget)
    rep = verify_log_approx(rs, fib_pow2, fib_pow2_consts, budget)
    assert rep.all_pass
    assert len(rep.entries) == 6
    for e in rep.entries:
        assert e.ratio is not None and e.ratio <= 6.0


def test_verify_root_diff(fib_pow2, fib_pow2_consts, budget):
    rs = isolate_roots(fib_pow2, 10, budget)
    rep = verify_root_diff(rs, fib_pow2, fib_pow2_consts, budget)
    assert rep.all_pass


def test_find_threshold(fib_pow2, fib_pow2_consts, budget):
    # the lemma threshold of this family is n = 1: every lemma holds for n = 1..8
    for n in range(1, 9):
        rs = isolate_roots(fib_pow2, n, budget)
        assert verify_root_approx(rs, fib_pow2).all_pass
        assert verify_log_approx(rs, fib_pow2, fib_pow2_consts, budget).all_pass
        assert verify_root_diff(rs, fib_pow2, fib_pow2_consts, budget).all_pass
