"""Exact brute-force solving of |X(X - A Y)(X - B Y) - Y^3| = 1 at concrete
parameters, solution classification, and the family verification pipeline."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import isqrt

from . import cubic, units
from .algebraic import bisect_root, scaled_poly
from .cubic import cubic_coeffs
from .precision import WORKING_BITS
from .sequences import FamilyInstance, check_hypotheses


class Solution(namedtuple("Solution", "x y n sign classification")):
    """A solution (x, y) at n of x (x - A y)(x - B y) - y^3 = ``sign``,
    with its ``classification``; solutions sort by (x, y, n, sign,
    classification)."""

    __slots__ = ()

    def verify(self, A: int, B: int) -> bool:
        return self.x * (self.x - A * self.y) * (self.x - B * self.y) - self.y**3 == self.sign


def classify(x: int, y: int, A: int, B: int) -> str:
    """Match against the eight-member trivial orbit."""
    if (x, y) in ((1, 0), (-1, 0)):
        return "trivial-(1,0)"
    if (x, y) in ((0, 1), (0, -1)):
        return "trivial-(0,1)"
    if (x, y) in ((A, 1), (-A, -1)):
        return "trivial-(A,1)"
    if (x, y) in ((B, 1), (-B, -1)):
        return "trivial-(B,1)"
    return "nontrivial"


def root_brackets(A: int, B: int, y_max: int):
    """Exact brackets of the real parts of the roots of X^3 - (A+B)X^2 + ABX - 1.

    Returns (K, brackets): each (lo, hi) in brackets satisfies
    lo / 2^K <= Re(lambda) <= hi / 2^K for a root lambda, with
    (hi - lo) / 2^K <= 1 / (4 y_max); every root is covered by a bracket
    (a complex-conjugate pair shares one). Only integers are used.
    """
    a, b = -(A + B), A * B
    disc = a * a * b * b - 4 * b**3 + 4 * a**3 - 18 * a * b - 27
    # a repeated root would be rational, hence +-1, and neither (X-1)^3 nor
    # (X+1)^2 (X-1) has integer A, B
    assert disc != 0, "f has a repeated root"
    K = (4 * y_max - 1).bit_length()  # 2^-K <= 1/(4 y_max)
    # |x(x - A)(x - B)| >= 4R > 1 for real |x| >= R, so every real root is in (-R, R)
    R = max(abs(A), abs(B)) + 2
    if disc < 0:
        # one real root rho; the complex pair has real part (A + B - rho) / 2
        lo, hi = bisect_root(scaled_poly(cubic_coeffs(A, B), K), -R << K, R << K)
        s = (A + B) << K
        return K + 1, ((2 * lo, 2 * hi), (s - hi, s - lo))
    # three real roots, separated near the critical points
    # ((A+B) -+ sqrt(A^2 - AB + B^2)) / 3 once f(m1/2^K) > 0 > f(m2/2^K)
    S = A * A - A * B + B * B
    while True:
        F = scaled_poly(cubic_coeffs(A, B), K)
        r = isqrt(S << (2 * K))
        m1 = (((A + B) << K) - r) // 3
        m2 = (((A + B) << K) + r) // 3
        if m1 < m2 and F(m1) > 0 > F(m2):
            break
        K += 8
    return K, (bisect_root(F, -R << K, m1), bisect_root(F, m1, m2), bisect_root(F, m2, R << K))


def _refine(A: int, B: int, K: int, brackets, K2: int):
    """The root brackets at scale 2^K2 >= 2^K, refined on integers by
    ``bisect_root``; a collapsed bracket (an exact rational root) stays
    collapsed."""
    F = scaled_poly(cubic_coeffs(A, B), K2)
    s = K2 - K
    return [
        (lo << s, hi << s) if lo == hi else bisect_root(F, lo << s, hi << s)
        for lo, hi in brackets
    ]


def _certified_y0(A: int, B: int, K: int, real, y_max: int) -> int:
    """min(y0, y_max) for a y0 past which x/y is a convergent of a real root.

    ``real`` holds the brackets lo/2^K <= lambda <= hi/2^K of the real roots,
    in increasing order. A solution with y > 0 has |x/y - lambda_j| <=
    4/(y^3 P_j) for the root lambda_j nearest x/y, P_j = prod_{i != j}
    |lambda_i - lambda_j|, so y > 8/P_j makes the distance < 1/(2 y^2) and
    Legendre's criterion applies. Returns y_max when no y0 is certified.
    """
    if len(real) == 3:
        (_, h1), (l2, h2), (l3, _) = real
        g12, g13, g23 = l2 - h1, l3 - h1, l3 - h2
        if g12 <= 0 or g23 <= 0:
            return y_max
        # P_j 4^K >= the product of the two gaps at lambda_j
        y0 = max((8 << 2 * K) // p for p in (g12 * g13, g12 * g23, g13 * g23))
        return min(y0, y_max)
    # one real root rho > 0 (rho |u + iv|^2 = 1), so v^2 = 1/rho - u^2 with
    # u = (A + B - rho)/2; P_rho = |rho - u - iv|^2 >= v^2 >= w, and once
    # y^2 > 4/w the complex pair (|x - (u + iv) y| >= v y) cannot be nearest
    ((lo, hi),) = real
    if hi <= 0:
        return y_max
    D, S = 1 << K, (A + B) << K
    w = Fraction(D, hi) - Fraction(max((S - lo) ** 2, (S - hi) ** 2), 4 * D * D)
    if w <= 0:
        return y_max
    return min(max(8 // w, isqrt(4 // w)), y_max)


def _convergent_denominators(lo: int, hi: int, K: int, y_max: int):
    """Denominators q <= y_max of the convergents of the root in
    [lo, hi] / 2^K, or None when the bracket is too wide to fix them all.

    The continued fractions of both ends are expanded together. f is
    nonzero at the ends of a bracket that has not collapsed, so the root's
    complete quotient lies strictly between the ends' at every step, and
    its partial quotient is at least floor(lower end) and at most
    ceil(upper end) - 1 (an end n/0 is infinite). The walk stops once that
    lower bound puts the next denominator past y_max, or where a collapsed
    bracket's continued fraction ends, and gives up where the bounds differ.
    """
    (n1, d1), (n2, d2) = (lo, 1 << K), (hi, 1 << K)  # lower, upper end
    exact = lo == hi
    q0, q1 = 1, 0
    qs = []
    while d1:
        a = n1 // d1
        if a * q1 + q0 > y_max:
            return qs
        if not d2 or a != (n2 // d2 if exact else -(-n2 // d2) - 1):
            return None
        q0, q1 = q1, a * q1 + q0
        qs.append(q1)
        # x -> 1/(x - a) reverses the order of the ends
        (n1, d1), (n2, d2) = (d2, n2 - a * d2), (d1, n1 - a * d1)
    return qs


def solve_bruteforce(fam, n: int, y_max: int):
    """All solutions with |y| <= y_max, for both signs of the right side.

    ``fam`` may be a FamilyInstance or a plain (A, B) integer pair.

    Neighbour lemma: X(X - AY)(X - BY) - Y^3 = prod_j (X - lambda_j Y) over
    the roots lambda_j of f = X^3 - (A+B)X^2 + ABX - 1, so a solution with
    y != 0 has |x - lambda_j y| <= 1 for some j, hence
    |x - Re(lambda_j) y| <= 1. With lo/2^K <= Re(lambda_j) <= hi/2^K this
    leaves x in [ceil(lo y / 2^K) - 1, floor(hi y / 2^K) + 1], at most three
    integers per bracket once the bracket width is <= 1/(4 y_max); each is
    checked by one exact evaluation that covers both signs. Solutions with
    y < 0 are the mirrors (-x, -y) of those with y > 0.

    Only some y are checked. Every y <= min(y0, y_max) is; beyond y0 only
    the denominators of the convergents of the real roots are. A solution
    has gcd(x, y) = 1 (d^3 divides the form), and past y0 the root nearest
    x/y satisfies |lambda_j - x/y| < 1/(2 y^2) (``_certified_y0``), so by
    Legendre's criterion x/y is a convergent of lambda_j (Tzanakis and
    de Weger, J. Number Theory 31, 1989). The cost per n is O(y0 +
    log y_max) checks instead of O(y_max). The convergents come from the
    common prefix of the continued fractions of the ends of each real
    root's bracket, refined on a finer grid until it reaches past y_max. A
    rational root (+-1, for (A, B) in {(0, 0), (2, 2), (0, -2), (-2, 0)})
    collapses its bracket, and its continued fraction ends. When no y0 is
    certified, every y <= y_max is checked.

    The brackets (``root_brackets``) are certified once per n with integers
    only: the sign of the discriminant counts the real roots; three real
    roots are separated at dyadic points near the critical points (found
    with ``isqrt``, refined until f changes sign there) and each piece is
    refined to one grid cell; for one real root rho the complex pair has
    real part (A + B - rho) / 2.
    """
    if y_max < 1:
        raise ValueError("y_max must be >= 1")
    if isinstance(fam, tuple):
        A, B = fam
    else:
        A, B = fam.terms(n)
    K, brackets = root_brackets(A, B, y_max)
    Kr = max(K, 2 * y_max.bit_length() + 4)
    real = _refine(A, B, K, brackets if len(brackets) == 3 else brackets[:1], Kr)
    y0 = _certified_y0(A, B, Kr, real, y_max)
    large = set()
    if y0 < y_max:
        for lo, hi in real:
            k = Kr
            while (qs := _convergent_denominators(lo, hi, k, y_max)) is None:
                ((lo, hi),) = _refine(A, B, k, [(lo, hi)], 2 * k)
                k *= 2
            large.update(q for q in qs if q > y0)
    found = {(1, 0, 1), (-1, 0, -1)}  # y = 0: x^3 = s
    for y in chain(range(1, y0 + 1), large):
        Ay, By, y3 = A * y, B * y, y**3
        for lo, hi in brackets:
            for x in range(-((-lo * y) >> K) - 1, ((hi * y) >> K) + 2):
                v = x * (x - Ay) * (x - By) - y3
                if v == 1 or v == -1:
                    found.add((x, y, v))
                    # the mirrored solution flips the attained sign
                    found.add((-x, -y, -v))
    sols = sorted(Solution(x, y, n, s, classify(x, y, A, B)) for x, y, s in found)
    for sol in sols:
        assert sol.verify(A, B), "solver produced a non-solution"
    return sols


class PerNReport(
    namedtuple(
        "PerNReport",
        "n in_scope hypothesis_failures solutions nontrivial"
        " lemma_root_approx lemma_log_approx lemma_root_diff xi_bound_ok residuals",
        defaults=(None,),
    )
):
    """The checks at one n; each lemma verdict is a bool, or None where it
    was not checked, and ``residuals`` (the ResidualReport behind
    ``lemma_log_approx``) is None then too."""

    __slots__ = ()


class FamilyVerification(namedtuple("FamilyVerification", "per_n constants hypotheses")):
    """The PerNReports, the ApproxConstants the lemmas were checked with, and
    the HypothesisReport for n = 1..n_hi, from which ``in_scope`` comes."""

    __slots__ = ()

    @property
    def nontrivial_found(self):
        return tuple(s for rep in self.per_n for s in rep.nontrivial)


def verify_family(
    fam: FamilyInstance, n_lo: int, n_hi: int, y_max: int, bits=WORKING_BITS
) -> FamilyVerification:
    """Hypothesis check + brute force + classification for each n in range,
    with per-n lemma summaries and log residuals where the roots are
    certifiable, each read from the n's root context at precision ``bits``.

    The xi bound is checked once per mirror pair +-(x, y), on the solution
    with y > 0: x - lambda y = sign lambda^b1 (lambda - A_n)^b2 gives
    -x + lambda y the same type j and exponents (b1, b2) with the opposite
    sign, and xi_j reads only (j, b1, b2, n). Every such solution goes
    through ``units.unit_decompose`` and ``units.verify_xi_bound``, which
    certify the trivial orbit (0, 1), (A_n, 1), (B_n, 1) by exact identities
    in Z[lambda] and its zero xi rows, and take logs only for the others."""
    if n_lo > n_hi:
        raise ValueError("empty n range")
    consts = cubic.compute_constants(fam)
    hyp = check_hypotheses(fam, n_hi)
    failed = dict(hyp.failures)
    reports = []
    for n in range(n_lo, n_hi + 1):
        if n in failed:
            reports.append(
                PerNReport(n, False, ((n, failed[n]),), (), (), None, None, None, None)
            )
            continue
        sols = tuple(solve_bruteforce(fam, n, y_max))
        nontrivial = tuple(s for s in sols if s.classification == "nontrivial")
        ra = la = rd = xi_ok = resid = None
        try:
            rs = cubic.isolate_roots(fam, n, bits)
            ra = cubic.verify_root_approx(rs).all_pass
            resid = cubic.verify_log_approx(rs)
            la = resid.all_pass
            rd = cubic.verify_root_diff(rs).all_pass
            xi_ok = True
            for s in sols:
                if s.y <= 0:
                    # (+-1, 0): every |x - lambda_j y| is 1, so no type; and
                    # (x, y) with y < 0 mirrors (-x, -y), a solution too
                    continue
                ue = units.unit_decompose(s.x, s.y, rs)
                if not units.verify_xi_bound(ue, rs).ok:
                    xi_ok = False
        except cubic.AnchorSignFailure:
            pass
        reports.append(
            PerNReport(n, True, (), sols, nontrivial, ra, la, rd, xi_ok, resid)
        )
    return FamilyVerification(tuple(reports), consts, hyp)
