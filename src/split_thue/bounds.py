"""Effective bounds: the Thue-equation solution-size upper bound, the
linear-forms-in-logarithms lower bound, and their intersection into a
concrete parameter threshold n0.

Everything here is evaluated in closed form (logarithms of the recurrence
data), never by isolating roots at the probed n -- the crossing points lie
far beyond any n at which exact root isolation is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .algebraic import AlgebraicNumber, field_arith
from .precision import WORKING_BITS, Interval, SplitThueError
from .cubic import closed_forms, combine, compute_constants, family_ivs
from .sequences import FamilyInstance


# -- solution-size upper bound (unit rank 2, cubic form) -------------------

def bugy_constant(r: int = 2, N: int = 3) -> int:
    """C(r, N) = 3^(r+27) (r+1)^(7r+19) N^(2N+6r+14), exactly."""
    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)


C_RANK2_CUBIC = bugy_constant(2, 3)  # == 3**94


def bugy_bound(R_upper: Fraction, logH_upper: Fraction, bits: int) -> Fraction:
    """Upper bound C * R * max(log R, 1) * (R + log(H e)) on
    max(log|x|, log|y|); the right-hand side m = +-1 makes B = e."""
    if R_upper <= 0:
        raise ValueError("regulator bound must be positive")
    log_R = _log(R_upper, bits).sup
    return C_RANK2_CUBIC * R_upper * max(log_R, Fraction(1)) * (
        R_upper + logH_upper + 1
    )


# -- closed forms over the family constants --------------------------------

# the precision of every probe of compute_n0, whatever the working precision
CHAIN_BITS = 160


def _log(x, bits: int) -> Interval:
    """Enclosure of log x for a positive int or Fraction x."""
    return Interval.of(x, bits).log()


@lru_cache(maxsize=64)
def _n_free_log(x, bits: int) -> Interval:
    """``_log`` of a value that does not depend on n (a small integer or a
    family constant), once per (value, precision); the n-specific values
    go through the uncached ``_log``."""
    return _log(x, bits)


# log_coeff_bound, lterm_sup and regulator_bounds are memoised per (family,
# constants, n, precision): every bound of a probe reads them, and so do the
# probes of the other branches at the same n.

@lru_cache(maxsize=256)
def log_coeff_bound(fam: FamilyInstance, consts, n: int, bits: int) -> Fraction:
    """Upper bound m(n) on |log| of every coefficient value at n (dominant
    coefficients and, in the equal-modulus case, their difference)."""
    return max(consts.log_coeff_neg, consts.log_coeff_pos + fam.d2 * _log(n, bits).sup)


_CLAMP_BITS = 256


def _sup_clamped(x) -> Fraction:
    """Upper endpoint as a Fraction, rounded up to 2^-_CLAMP_BITS when the
    value is even tinier (an exact conversion would need astronomically long
    denominators)."""
    sign, man, exp, bc = x._mpi_[1]
    if man != 0 and exp + bc < -_CLAMP_BITS:
        return Fraction(1, 2**_CLAMP_BITS) if not sign else Fraction(0)
    return x.sup


@lru_cache(maxsize=256)
def lterm_sup(consts, d2: int, n: int, bits: int) -> Fraction:
    """Rational upper bound of the decaying error envelope C n^d2 eps^n."""
    if consts.eps == 0:
        return Fraction(0)
    v = Interval.of(consts.C, bits) * Interval.of(n, bits) ** d2 * Interval.of(consts.eps, bits) ** n
    return _sup_clamped(v)


@lru_cache(maxsize=256)
def regulator_bounds(fam: FamilyInstance, consts, n: int, bits: int):
    """Closed-form enclosure (R_low, R_up) of the regulator at n: the rows
    log|l1|, log|l1-A|, log|l2| and log|l2-A| of ``closed_forms``, each
    coefficient log ranging over [-m, m], plus the error envelope e once per
    row."""
    m = log_coeff_bound(fam, consts, n, bits)
    e = lterm_sup(consts, fam.d2, n, bits)
    la, lb = family_ivs(fam, bits).log_ab
    rows = closed_forms(fam.equal_modulus)

    def enclose(name):
        k = sum(map(abs, rows[name][2:]))
        return n * combine(rows[name][:2], (la, lb)) + Interval.between(-(k * m + e), k * m + e, bits)

    x1, y1, x2, y2 = map(enclose, ("log|l1|", "log|l1-A|", "log|l2|", "log|l2-A|"))
    det = abs(x1 * y2 - x2 * y1)
    return max(Fraction(0), det.inf), det.sup


def logH_upper(fam: FamilyInstance, consts, n: int, bits: int) -> Fraction:
    """Upper bound on log of the largest form coefficient, |A_n B_n|."""
    m = log_coeff_bound(fam, consts, n, bits)
    e = lterm_sup(consts, fam.d2, n, bits)
    la, lb = family_ivs(fam, bits).log_ab
    val = (n * (la + lb)).sup + 2 * (m + 1) + e
    return max(val, Fraction(2))  # H >= 3 floor


@dataclass(frozen=True)
class LogyUpper:
    value: Fraction


def logy_upper(fam: FamilyInstance, consts, n: int, bits: int) -> LogyUpper:
    """Explicit upper bound on log|y| for any solution at parameter n."""
    r_low, r_up = regulator_bounds(fam, consts, n, bits)
    return LogyUpper(bugy_bound(r_up, logH_upper(fam, consts, n, bits), bits))


# -- linear-form lower bound -----------------------------------------------

def baker_constant(t: int, D: int) -> int:
    """18 (t+1)! t^(t+1) (32 D)^(t+2), exactly."""
    return 18 * math.factorial(t + 1) * t ** (t + 1) * (32 * D) ** (t + 2)


def baker_lower(heights, D: int, log_B: Fraction, bits: int) -> Fraction:
    """Lower bound on the log of a nonzero linear form in t logarithms, one
    per height: -18 (t+1)! t^(t+1) (32D)^(t+2) log(2tD) h_1 ... h_t log B."""
    heights = [Fraction(h) for h in heights]
    t = len(heights)
    if t < 1:
        raise ValueError("need at least one logarithm")
    floor = Fraction(16, 100) / D
    for h in heights:
        if h < floor:
            raise SplitThueError(f"height {h} below its floor {floor}")
    K = baker_constant(t, D)
    log2tD = _n_free_log(2 * t * D, bits).sup
    prod = Fraction(1)
    for h in heights:
        prod *= h
    return -K * log2tD * prod * max(log_B, Fraction(1))


def compositum_degree(elements) -> int:
    """Degree of the field generated by the given algebraic numbers, found
    by primitive-element trials gamma + k*delta, k = 1, 2, ...

    With conjugates gamma_1 = gamma, ..., gamma_d1 and delta_1 = delta, ...,
    delta_d2, gamma + k*delta generates Q(gamma, delta) unless
    gamma + k*delta = gamma_i + k*delta_j for some j != 1, that is
    k = (gamma_i - gamma)/(delta - delta_j).  The terms with i = 1 give
    k = 0, so at most (d1-1)(d2-1) shifts k >= 1 fail, and the largest
    degree over (d1-1)(d2-1)+1 shifts is the degree of Q(gamma, delta).
    """
    gamma = None
    for el in elements:
        if gamma is None:
            gamma = el
            continue
        d1 = len(gamma.min_poly) - 1
        d2 = len(el.min_poly) - 1
        if d2 == 1:
            continue
        if d1 == 1:
            gamma = el
            continue
        cap = d1 * d2
        best = None
        best_deg = 0
        for k in range(1, (d1 - 1) * (d2 - 1) + 2):
            cand = field_arith(gamma, _times_int(el, k), "add")
            deg = len(cand.min_poly) - 1
            if deg > best_deg:
                best_deg, best = deg, cand
            if best_deg == cap:
                break
        gamma = best
    return len(gamma.min_poly) - 1 if gamma is not None else 1


def _times_int(el: AlgebraicNumber, k: int) -> AlgebraicNumber:
    """k * el for an integer k >= 1 without a resultant: the minimal
    polynomial sum c_i x^(d-i) becomes sum c_i k^i x^(d-i), and the box
    scales by k."""
    coeffs = [c * k**i for i, c in enumerate(el.min_poly)]
    return AlgebraicNumber(coeffs, el.enclosure.scaled(k))


def field_degree(fam: FamilyInstance) -> int:
    """Degree D of Q(alpha, beta, secondary roots), the field of every root
    and coefficient value of the family.

    The coefficients add nothing to it.  The recurrence and the rational
    initial terms determine the explicit formula uniquely, and an
    automorphism sigma maps it to itself, so sigma maps the coefficient of
    n^j at a root r to the one at sigma(r).  Every sigma that fixes r thus
    fixes that coefficient, which therefore lies in Q(r):
    `RecurrentSequence.from_recurrence` builds it as P_{g,j}(r) with P_{g,j}
    in Q[x].  The equal-modulus difference c_B - c_A then lies in
    Q(alpha, beta).
    """
    elements = [fam.alpha, fam.beta]
    for seq in (fam.A, fam.B):
        elements.extend(root for root, _ in seq.secondary)
    return compositum_degree(elements)


def xi_heights(fam: FamilyInstance, n: int, D: int, bits=WORKING_BITS):
    """Per-argument height bounds (with Baker floors) for the transformed
    form's logarithms at parameter n, from the family's constants at the
    chain's precision.  ``bits`` is ignored; it stays because
    perfbench/check.py passes a fourth argument."""
    return _xi_heights(fam, compute_constants(fam), n, D)


def _xi_heights(fam: FamilyInstance, consts, n: int, D: int):
    bits = CHAIN_BITS
    m = log_coeff_bound(fam, consts, n, bits)
    logn = _log(n, bits).sup
    floor = Fraction(16, 100) / D
    h_alpha, h_beta, coeff_heights = consts.heights
    la, lb = family_ivs(fam, bits).log_ab
    la_abs, lb_abs = abs(la).sup, abs(lb).sup
    out = [("alpha", max(h_alpha, la_abs / D, floor))]
    if not fam.equal_modulus:
        out.append(("beta", max(h_beta, lb_abs / D, floor)))
    for label, base, slope in coeff_heights:
        out.append((label, max(base + slope * logn, m / D, floor)))
    return out


def exponent_bound_B(fam: FamilyInstance, consts, n: int, logy: Fraction, R_low: Fraction, bits: int) -> Fraction:
    """Upper bound on max(|b1|, |b2|) from the inverted log system, times n
    to cover the transformed form's table coefficients."""
    if R_low <= 0:
        raise ValueError("need a positive regulator lower bound")
    m = log_coeff_bound(fam, consts, n, bits)
    e = lterm_sup(consts, fam.d2, n, bits)
    la, lb = family_ivs(fam, bits).log_ab
    entry = (n * (la + lb)).sup + 2 * m + e  # largest |log| matrix entry
    maxdiff = (n * lb).sup + m + e  # largest log root difference
    b_bound = (2 * entry) * (logy + maxdiff) / R_low + 1
    return 4 * n * (b_bound + 1)


def xi_upper_log(fam: FamilyInstance, consts, n: int, bits: int) -> Fraction:
    """log of the right-hand side of the transformed-form upper bound,
    evaluated in closed form (safe at astronomically large n)."""
    la, lb = family_ivs(fam, bits).log_ab
    logn = _log(n, bits)
    t1 = _n_free_log(4, bits) - 3 * _n_free_log(consts.c5, bits) - fam.d1 * logn - n * (2 * la + lb)
    if consts.eps == 0:
        return t1.sup
    t2 = _n_free_log(6 * consts.C, bits) + fam.d2 * logn + n * _n_free_log(consts.eps, bits)
    return max(t1.sup, t2.sup) + _n_free_log(2, bits).sup


def log_logy_lower_altunit(fam: FamilyInstance, consts, n: int, bits: int):
    """log of the alternative-unit lower bound, computed entirely in the log domain.

    The direct evaluation clamps the decay factor q at 2^-256, which
    forfeits the contradiction at astronomically large n; log q is linear
    in n and stays exact-scale.  Returns None while the chain is vacuous.
    """
    if fam.equal_modulus:
        raise SplitThueError("chain requires distinct dominant-root moduli")
    r_low, _ = regulator_bounds(fam, consts, n, bits)
    if r_low <= 2:
        return None
    la, lb = family_ivs(fam, bits).log_ab
    log_q = _n_free_log(2 * consts.U_A, bits) + fam.d2 * _log(n, bits) + n * (la - lb) - _n_free_log(consts.L_B, bits)
    if log_q.sup >= _n_free_log(Fraction(1, 4), bits).inf:
        return None
    return (_log(r_low - 2, bits) - _n_free_log(4, bits) - log_q).inf


# -- the crossing search ---------------------------------------------------

# The doubling search starts at N_START; a threshold must also contradict on
# the WINDOW values of n after it.
N_START = 8
WINDOW = 10


@dataclass(frozen=True)
class BoundReport:
    """One probe of one branch. The verdict compares the exact lower bound
    (None while the chain gives none) with the exact upper bound; the
    floats are for the report only."""

    n: int
    branch: str
    R_upper: float
    logy_upper: float
    baker_lower_exponent: Fraction | None
    xi_upper_log: Fraction
    verdict: str

    def __post_init__(self):
        lower = self.baker_lower_exponent
        contra = lower is not None and lower > self.xi_upper_log
        if self.verdict != ("contradiction" if contra else "no-contradiction"):
            raise ValueError("verdict inconsistent with the recorded bounds")


@dataclass(frozen=True)
class N0Result:
    n0: int | None
    no_crossing: bool
    n_cap: int
    branch_thresholds: dict
    trace: tuple


def _branch_report(fam, consts, n, branch, D) -> BoundReport:
    bits = CHAIN_BITS
    r_low, r_up = regulator_bounds(fam, consts, n, bits)
    ly = logy_upper(fam, consts, n, bits)
    if branch == "altunit-j1":
        # log-domain comparison: chain lower bound vs upper bound
        lower = log_logy_lower_altunit(fam, consts, n, bits)
        upper = _log(ly.value, bits).sup
    else:
        upper = xi_upper_log(fam, consts, n, bits)
        if r_low <= 0:
            lower = None
        else:
            heights = _xi_heights(fam, consts, n, D)
            B_exp = exponent_bound_B(fam, consts, n, ly.value, r_low, bits)
            lower = baker_lower([h for _, h in heights], D, _log(B_exp, bits).sup, bits)
    contra = lower is not None and lower > upper
    return BoundReport(
        n=n, branch=branch, R_upper=float(r_up), logy_upper=float(ly.value),
        baker_lower_exponent=lower,
        xi_upper_log=upper,
        verdict="contradiction" if contra else "no-contradiction",
    )


def compute_n0(fam: FamilyInstance, consts, n_cap: int = 10**7) -> N0Result:
    """Smallest n beyond which every solution-type branch yields a
    contradiction between the lower and upper linear-form bounds, verified
    over a sanity window; per-branch thresholds and a probe trace included."""
    D = field_degree(fam)
    branches = ["xi-j2", "xi-j3"]
    if fam.equal_modulus:
        branches.append("xi-j1")
    else:
        branches.append("altunit-j1")

    trace = []
    xi_reports = {}  # n -> report: the xi branches share every bound

    def contra(n, branch):
        if branch == "altunit-j1":
            rep = _branch_report(fam, consts, n, branch, D)
        else:
            if n not in xi_reports:
                xi_reports[n] = _branch_report(fam, consts, n, branch, D)
            rep = replace(xi_reports[n], branch=branch)
        trace.append(rep)
        return rep.verdict == "contradiction"

    thresholds = {}
    no_crossing = False
    for branch in branches:
        lo, hi = None, None
        n = N_START
        while n <= n_cap:
            if contra(n, branch):
                hi = n
                break
            lo = n
            n *= 2
        if hi is None:
            # last chance: probe the cap itself before giving up
            if lo is not None and lo < n_cap and contra(n_cap, branch):
                lo, hi = lo, n_cap
            else:
                thresholds[branch] = None
                no_crossing = True
                continue
        lo = lo if lo is not None else hi - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if contra(mid, branch):
                hi = mid
            else:
                lo = mid
        # sanity window, advancing past any non-monotone wiggle
        start = hi
        while start <= n_cap:
            if all(contra(start + w, branch) for w in range(WINDOW + 1)):
                break
            start += 1
        if start > n_cap:
            thresholds[branch] = None
            no_crossing = True
        else:
            thresholds[branch] = start
    n0 = None
    if not no_crossing:
        n0 = max(thresholds.values())
    return N0Result(
        n0=n0,
        no_crossing=no_crossing,
        n_cap=n_cap,
        branch_thresholds=thresholds,
        trace=tuple(trace),
    )
