import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

from split_thue.algebraic import poly_eval_sign
from split_thue.cubic import cubic_coeffs, isolate_roots
from split_thue.solver import (
    Solution,
    _certified_y0,
    _convergent_denominators,
    _refine,
    classify,
    root_brackets,
    solve_bruteforce,
    verify_family,
)


def naive_solutions(A, B, n, y_max, x_pad=4):
    """Independent double-loop oracle over a padded box in x.

    Every root of x(x - A)(x - B) = 1 has modulus <= max(|A|, |B|) + 1, and a
    solution lies within 1 of (real part of root) * y, so the box covers it.
    """
    out = set()
    x_lo = min(-1, A * -1, B * -1, -abs(A), -abs(B)) - x_pad
    x_hi = max(1, abs(A), abs(B)) + x_pad
    span = max(abs(A), abs(B)) + 1
    for y in range(-y_max, y_max + 1):
        lo = min(-span * abs(y), x_lo) - x_pad
        hi = max(span * abs(y), x_hi) + x_pad
        for x in range(lo, hi + 1):
            v = x * (x - A * y) * (x - B * y) - y**3
            if v in (1, -1):
                out.add((x, y, v))
    return out


def test_classify():
    assert classify(1, 0, 3, 8) == "trivial-(1,0)"
    assert classify(-1, 0, 3, 8) == "trivial-(1,0)"
    assert classify(0, -1, 3, 8) == "trivial-(0,1)"
    assert classify(3, 1, 3, 8) == "trivial-(A,1)"
    assert classify(-8, -1, 3, 8) == "trivial-(B,1)"
    assert classify(7, 4, 3, 8) == "nontrivial"


def test_solution_verify():
    s = Solution(3, 1, 2, -1, "trivial-(A,1)")
    assert s.verify(3, 8)
    assert not Solution(3, 1, 2, 1, "x").verify(3, 8)


def test_solver_matches_naive_oracle_small():
    for A, B in ((3, 8), (2, 4), (5, 16)):
        got = {(s.x, s.y, s.sign) for s in solve_bruteforce((A, B), 0, 12)}
        want = naive_solutions(A, B, 0, 12)
        assert got == want


def test_solver_matches_naive_oracle_random_pairs():
    rng = random.Random(20240824)
    for _ in range(8):
        A = rng.randint(1, 30)
        B = A + rng.randint(2, 40)
        got = {(s.x, s.y, s.sign) for s in solve_bruteforce((A, B), 0, 8)}
        want = naive_solutions(A, B, 0, 8)
        assert got == want, (A, B)


def test_solver_matches_naive_oracle_on_small_grid():
    # A = B, zero and negative parameters, cubics with one real root, and
    # (0, 0), where f = X^3 - 1 has a rational root
    for A in range(-6, 7):
        for B in range(-6, 7):
            got = {(s.x, s.y, s.sign) for s in solve_bruteforce((A, B), 0, 15)}
            assert got == naive_solutions(A, B, 0, 15), (A, B)


def test_root_brackets_overlap_isolated_roots(fib_pow2):
    y_max = 5000
    for n in range(2, 61):
        A, B = fib_pow2.terms(n)
        K, brackets = root_brackets(A, B, y_max)
        rs = isolate_roots(fib_pow2, n, 64)
        enclosures = sorted((rs.lambda1, rs.lambda2, rs.lambda3), key=lambda r: r.lo)
        assert len(brackets) == 3
        for (lo, hi), r in zip(brackets, enclosures):
            assert Fraction(hi - lo, 2**K) <= Fraction(1, 4 * y_max)
            assert Fraction(lo, 2**K) <= r.hi and r.lo <= Fraction(hi, 2**K), n


def test_root_brackets_one_real_root():
    A, B = 1, 2
    coeffs = cubic_coeffs(A, B)
    K, ((rlo, rhi), (clo, chi)) = root_brackets(A, B, 15)
    assert Fraction(rhi - rlo, 2**K) <= Fraction(1, 60)
    assert Fraction(chi - clo, 2**K) <= Fraction(1, 60)
    # f < 0 left of its only real root rho and f > 0 right of it
    assert poly_eval_sign(coeffs, Fraction(rlo, 2**K)) <= 0 <= poly_eval_sign(coeffs, Fraction(rhi, 2**K))
    # (A + B - rho) / 2 in [clo, chi] / 2^K  <=>  rho in A + B - [2 chi, 2 clo] / 2^K
    assert poly_eval_sign(coeffs, A + B - Fraction(2 * chi, 2**K)) <= 0
    assert poly_eval_sign(coeffs, A + B - Fraction(2 * clo, 2**K)) >= 0
    with mpmath.workdps(50):
        roots = mpmath.polyroots(coeffs, extraprec=100)
        rho = next(r for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40)
        rho = mpmath.re(rho)
        assert rlo <= rho * 2**K <= rhi
        assert clo <= (A + B - rho) / 2 * 2**K <= chi


def test_solver_negative_bullet_regime():
    # A <= -1, B <= A - 3 regime, mirrored parameters
    got = {(s.x, s.y, s.sign) for s in solve_bruteforce((-8, -3), 0, 8)}
    want = naive_solutions(-8, -3, 0, 8)
    assert got == want


def test_solver_trivial_orbit_present(fib_pow2):
    for n in (2, 5, 9):
        A, B = fib_pow2.terms(n)
        sols = solve_bruteforce(fib_pow2, n, 100)
        classes = sorted(s.classification for s in sols)
        assert classes.count("trivial-(1,0)") == 2
        assert classes.count("trivial-(0,1)") == 2
        assert classes.count("trivial-(A,1)") == 2
        assert classes.count("trivial-(B,1)") == 2
        assert "nontrivial" not in classes


def test_solver_finds_genuine_nontrivial_at_n1(fib_pow2):
    # (A, B) = (2, 4): 7 * (7-8) * (7-16) - 64 = 63 - 64 = -1
    sols = solve_bruteforce(fib_pow2, 1, 10)
    nontrivial = {(s.x, s.y) for s in sols if s.classification == "nontrivial"}
    assert nontrivial == {(7, 4), (-7, -4)}


def test_solver_rejects_bad_y_max(fib_pow2):
    with pytest.raises(ValueError):
        solve_bruteforce(fib_pow2, 3, 0)


def test_solver_large_y(fib_pow2):
    # every y up to the certified y0, then one neighbour check per
    # convergent denominator of each real root
    sols = solve_bruteforce(fib_pow2, 30, 10**4)
    assert len(sols) == 8
    assert all(s.classification.startswith("trivial") for s in sols)


def neighbour_scan(A, B, y_max):
    """The neighbour check at every 1 <= y <= y_max, around ``root_brackets``."""
    K, brackets = root_brackets(A, B, y_max)
    out = {(1, 0, 1), (-1, 0, -1)}
    for y in range(1, y_max + 1):
        for lo, hi in brackets:
            for x in range(-((-lo * y) >> K) - 1, ((hi * y) >> K) + 2):
                v = x * (x - A * y) * (x - B * y) - y**3
                if v in (1, -1):
                    out |= {(x, y, v), (-x, -y, -v)}
    return out


def test_solver_matches_full_neighbour_scan(fib_pow2):
    # past y0 only convergent denominators are checked; the scan checks all y
    for n in range(1, 41):
        got = {(s.x, s.y, s.sign) for s in solve_bruteforce(fib_pow2, n, 5000)}
        assert got == neighbour_scan(*fib_pow2.terms(n), 5000), n
    rng = random.Random(20261018)
    for _ in range(100):
        A, B = rng.randint(-200, 200), rng.randint(-200, 200)
        got = {(s.x, s.y, s.sign) for s in solve_bruteforce((A, B), 0, 2000)}
        assert got == neighbour_scan(A, B, 2000), (A, B)


def test_certified_y0_passes_the_legendre_threshold():
    # y > y0 must give y > 8 / P_j at every real root lambda_j and, with one
    # real root, y > 1 / v for the complex pair u +- iv (checked at 60 digits)
    rng = random.Random(7)
    pairs = [(2, 4), (1, 4), (0, 0), (2, 2), (0, -2), (5, 5)]
    pairs += [(rng.randint(-200, 200), rng.randint(-200, 200)) for _ in range(40)]
    y_max = 10**9
    with mpmath.workdps(60):
        for A, B in pairs:
            K, brackets = root_brackets(A, B, y_max)
            real = _refine(A, B, K, brackets if len(brackets) == 3 else brackets[:1], K + 40)
            y0 = _certified_y0(A, B, K + 40, real, y_max)
            assert y0 < y_max, (A, B)
            roots = mpmath.polyroots(cubic_coeffs(A, B), maxsteps=200, extraprec=200)
            for r in roots:
                if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40:
                    P = mpmath.fprod(abs(r - t) for t in roots if t is not r)
                    assert y0 + 1 > 8 / P, (A, B)
                else:
                    assert y0 + 1 > 1 / abs(mpmath.im(r)), (A, B)


def test_convergent_denominators_of_quadratic_irrationals():
    # sqrt 2 = [1; 2, 2, ...] (Pell denominators) and the golden ratio
    # (1 + sqrt 5)/2 = [1; 1, 1, ...] (Fibonacci denominators): a bracket
    # gives the exact list or None, never a wrong list, and a fine one gives it
    pell, fib = [1, 2], [1, 1]
    while pell[-1] <= 10**12:
        pell.append(2 * pell[-1] + pell[-2])
    while fib[-1] <= 10**12:
        fib.append(fib[-1] + fib[-2])
    for bracket_of, want in (
        (lambda K: isqrt(2 << 2 * K), pell),
        (lambda K: ((1 << K) + isqrt(5 << 2 * K)) // 2, fib),
    ):
        for y_max in (1, 2, 5, 28, 29, 30, 1000, 10**12):
            expected = [q for q in want if q <= y_max]
            for K in range(1, 2 * y_max.bit_length() + 5):
                lo = bracket_of(K)
                got = _convergent_denominators(lo, lo + 1, K, y_max)
                assert got in (None, expected), (K, y_max)
            assert got == expected, y_max
    # sqrt(m^2 - 1) = [m - 1; 1, 2m - 2, ...] lies within 2^-41 below the
    # upper end m: that end bounds the quotient by m - 1, no refinement needed
    m = 1 << 40
    assert _convergent_denominators((m << 20) - 1, m << 20, 20, 1000) == [1, 1]
    # a collapsed bracket is an exact root: 1 = [1]
    assert _convergent_denominators(1 << 10, 1 << 10, 10, 10**6) == [1]


def test_solver_huge_y_max(fib_pow2):
    # a scan up to 10^50 could never finish; the convergents reach it at once
    trivial = {"trivial-(1,0)", "trivial-(0,1)", "trivial-(A,1)", "trivial-(B,1)"}
    sols = solve_bruteforce(fib_pow2, 1, 10**50)
    assert len(sols) == 12
    assert sum(s.classification in trivial for s in sols) == 8
    nontrivial = {(s.x, s.y) for s in sols if s.classification == "nontrivial"}
    assert nontrivial == {(7, 4), (-7, -4), (38, 273), (-38, -273)}
    sols = solve_bruteforce(fib_pow2, 5, 10**50)
    assert len(sols) == 8 and all(s.classification in trivial for s in sols)


def test_verify_family(fib_pow2, fib_pow2_consts, bits):
    # every lemma already holds at n = 1, the one n with a nontrivial solution
    fv = verify_family(fib_pow2, 1, 8, 100, bits)
    assert {(s.x, s.y, s.n) for s in fv.nontrivial_found} == {(7, 4, 1), (-7, -4, 1)}
    assert fv.constants == fib_pow2_consts
    for rep in fv.per_n:
        assert rep.in_scope
        assert rep.lemma_root_approx and rep.lemma_log_approx and rep.lemma_root_diff
        assert rep.xi_bound_ok
        assert rep.residuals.n == rep.n and len(rep.residuals.entries) == 6
        assert rep.residuals.all_pass


def test_verify_family_reports_nontrivial(fib_pow2, bits):
    fv = verify_family(fib_pow2, 1, 1, 10, bits)
    assert any(r.in_scope and r.nontrivial for r in fv.per_n)
    assert {(s.x, s.y) for s in fv.nontrivial_found} == {(7, 4), (-7, -4)}


@pytest.mark.parametrize("n_lo, n_hi", [(62, 64), (95, 97)])
def test_verify_family_large_n_at_256_bits(fib_pow2, bits, n_lo, n_hi):
    # the per-n root context keeps the accuracy the brackets were refined
    # for, which unit decomposition needs once A_n B_n outgrows the working precision
    assert bits == 256
    fv = verify_family(fib_pow2, n_lo, n_hi, 50, bits)
    assert [rep.n for rep in fv.per_n] == list(range(n_lo, n_hi + 1))
    for rep in fv.per_n:
        assert rep.in_scope and not rep.nontrivial
        assert rep.lemma_root_approx and rep.lemma_log_approx and rep.lemma_root_diff
        assert rep.xi_bound_ok
