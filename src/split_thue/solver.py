"""Exact brute-force solving of |X(X - A Y)(X - B Y) - Y^3| = 1 at concrete
parameters, solution classification, and the family verification pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cubic import ApproxConstants, ResidualReport, bisect_root, cubic_coeffs, scaled_poly
from .precision import DEFAULT_BUDGET
from .sequences import FamilyInstance, HypothesisReport, check_hypotheses


@dataclass(frozen=True, order=True)
class Solution:
    x: int
    y: int
    n: int
    sign: int
    classification: str

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


def solve_bruteforce(fam, n: int, y_max: int):
    """All solutions with |y| <= y_max, for both signs of the right side.

    ``fam`` may be a FamilyInstance or a plain (A, B) integer pair.

    Neighbour lemma: X(X - AY)(X - BY) - Y^3 = prod_j (X - lambda_j Y) over
    the roots lambda_j of f = X^3 - (A+B)X^2 + ABX - 1, so a solution with
    y != 0 has |x - lambda_j y| <= 1 for some j, hence
    |x - Re(lambda_j) y| <= 1. With lo/2^K <= Re(lambda_j) <= hi/2^K this
    leaves x in [ceil(lo y / 2^K) - 1, floor(hi y / 2^K) + 1], at most three
    integers per bracket once the bracket width is <= 1/(4 y_max); each is
    checked by one exact evaluation that covers both signs.

    The brackets (``root_brackets``) are certified once per n with integers
    only: the sign of the discriminant counts the real roots; three real
    roots are separated at dyadic points near the critical points (found
    with ``isqrt``, refined until f changes sign there) and each piece is
    bisected; for one real root rho the complex pair has real part
    (A + B - rho) / 2.
    """
    if y_max < 1:
        raise ValueError("y_max must be >= 1")
    if isinstance(fam, tuple):
        A, B = fam
    else:
        A, B = fam.terms(n)
    K, brackets = root_brackets(A, B, y_max)
    found = {(1, 0, 1), (-1, 0, -1)}  # y = 0: x^3 = s
    for y in range(1, y_max + 1):
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


@dataclass(frozen=True)
class PerNReport:
    n: int
    in_scope: bool
    hypothesis_failures: tuple
    solutions: tuple
    nontrivial: tuple
    lemma_root_approx: bool | None
    lemma_log_approx: bool | None
    lemma_root_diff: bool | None
    xi_bound_ok: bool | None
    residuals: ResidualReport | None = None  # behind lemma_log_approx


@dataclass(frozen=True)
class FamilyVerification:
    n_lo: int
    n_hi: int
    y_max: int
    per_n: tuple
    constants: ApproxConstants  # the lemmas were checked with these
    hypotheses: HypothesisReport  # for n = 1..n_hi; in_scope comes from it

    @property
    def nontrivial_found(self):
        return tuple(s for rep in self.per_n for s in rep.nontrivial)


def verify_family(
    fam: FamilyInstance, n_lo: int, n_hi: int, y_max: int, budget=DEFAULT_BUDGET
) -> FamilyVerification:
    """Hypothesis check + brute force + classification for each n in range,
    with per-n lemma summaries and log residuals where the roots are
    certifiable."""
    from . import cubic, units

    if n_lo > n_hi:
        raise ValueError("empty n range")
    consts = cubic.compute_constants(fam)
    hyp = check_hypotheses(fam, n_hi, budget)
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
            rs = cubic.isolate_roots(fam, n, budget)
            ra = cubic.verify_root_approx(rs, fam).all_pass
            resid = cubic.verify_log_approx(rs, fam, consts, budget)
            la = resid.all_pass
            rd = cubic.verify_root_diff(rs, fam, consts, budget).all_pass
            xi_ok = True
            for s in sols:
                if s.y == 0 and abs(s.x) == 1 and s.x < 0:
                    continue  # same orbit as (1,0)
                j = units.solution_type(s.x, s.y, rs, budget)
                ue = units.unit_decompose(s.x, s.y, rs, budget)
                xi = units.xi_form(j, fam.case_tag, n, ue.b1, ue.b2)
                if not units.verify_xi_bound(xi, fam, consts, n, budget).ok:
                    xi_ok = False
        except cubic.AnchorSignFailure:
            pass
        reports.append(
            PerNReport(n, True, (), sols, nontrivial, ra, la, rd, xi_ok, resid)
        )
    return FamilyVerification(n_lo, n_hi, y_max, tuple(reports), consts, hyp)
