"""Effective bounds: the Thue-equation solution-size upper bound, the
linear-forms-in-logarithms lower bound, and their intersection into a
concrete parameter threshold n0.

Everything here is evaluated in closed form (logarithms of the recurrence
data), never by isolating roots at the probed n -- the crossing points lie
far beyond any n at which exact root isolation is feasible.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebraic import AlgebraicNumber, field_arith
from .precision import WORKING_BITS, Frozen, Interval, SplitThueError, Value, _set
from .cubic import closed_forms, combine, envelope, family_ivs, xi_terms
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


_CLAMP_BITS = 256


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
    Rational elements and an element equal to gamma add nothing and are
    skipped.
    """
    gamma = None
    for el in elements:
        if el.is_rational:
            continue
        if gamma is None:
            gamma = el
            continue
        if el == gamma:
            continue
        d1, d2 = gamma.degree, el.degree
        best = gamma
        for k in range(1, (d1 - 1) * (d2 - 1) + 2):
            best = max(best, field_arith(gamma, _times_int(el, k), "add"), key=lambda x: x.degree)
            if best.degree == d1 * d2:
                break
        gamma = best
    return gamma.degree if gamma is not None else 1


def _times_int(el: AlgebraicNumber, k: int) -> AlgebraicNumber:
    """k * el for an integer k >= 1 without a resultant: the minimal
    polynomial sum c_i x^(d-i) becomes sum c_i k^i x^(d-i), and the box
    scales by k."""
    coeffs = [c * k**i for i, c in enumerate(el.min_poly)]
    return AlgebraicNumber(coeffs, el.enclosure.scaled(k))


def field_degree(fam: FamilyInstance) -> int:
    """Degree D of Q(alpha, beta), the field of the linear form's arguments.

    Baker-Wustholz needs D >= [Q(gamma_1, ..., gamma_t):Q] for the form's
    arguments gamma_j, which ``ChainProbe.heights`` lists: alpha, beta, c_A,
    c_B and, in the equal-modulus case, c_B - c_A.  Each lies in Q(alpha,
    beta).  The recurrence and the rational initial terms determine the
    explicit formula uniquely, and an automorphism sigma maps it to itself,
    so sigma maps the coefficient of n^j at a root r to the one at sigma(r).
    Every sigma that fixes r thus fixes that coefficient, which therefore
    lies in Q(r): `RecurrentSequence.from_recurrence` builds it as
    P_{g,j}(r) with P_{g,j} in Q[x].  So c_A(n) lies in Q(alpha), c_B(n) in
    Q(beta), and c_B(n) - c_A(n) in Q(alpha, beta); and alpha and beta are
    real, so |alpha| and |beta| lie in the field too.  The secondary roots
    enter only the error envelope (eps, C), never the form, and are not
    joined.
    """
    return compositum_degree([fam.alpha, fam.beta])


# -- the chain at one n ----------------------------------------------------

class ChainProbe(Frozen):
    """The bound chain at one n, built from the family, n and the field
    degree ``D`` (which only the xi lower bound reads): its closed forms in
    n at ``CHAIN_BITS`` over the constants and n-free intervals of
    ``family_ivs(fam, CHAIN_BITS)``, each a cached property computed once.
    ``compute_n0`` keeps one probe per probed n, which every branch at that
    n reads.  It compares by identity."""

    def __init__(self, fam: FamilyInstance, n: int, D: int | None = None):
        _set(self, "fam", fam)
        _set(self, "n", n)
        _set(self, "D", D)

    @cached_property
    def fam_ivs(self):
        """``family_ivs`` at ``CHAIN_BITS``, looked up once per probe.  eps = 0
        (equal moduli, no secondary root) is refused: the error envelope
        C n^d2 eps^n would be 0, which the true log residuals exceed, so
        every bound read from it would rest on a false lemma."""
        f = family_ivs(self.fam, CHAIN_BITS)
        if f.consts.eps == 0:
            raise SplitThueError("no certified decay ratio: eps = 0 (equal moduli, no secondary root)")
        return f

    @cached_property
    def logn(self) -> Interval:
        return _log(self.n, CHAIN_BITS)

    @cached_property
    def m(self) -> Fraction:
        """Upper bound m(n) on |log| of every coefficient value at n (dominant
        coefficients and, in the equal-modulus case, their difference)."""
        consts = self.fam_ivs.consts
        return max(consts.log_coeff_neg, consts.log_coeff_pos + self.fam.d2 * self.logn.sup)

    @cached_property
    def envelope(self) -> Interval:
        """The log lemma's error envelope C n^d2 eps^n at ``CHAIN_BITS``."""
        return envelope(self.fam_ivs, self.n, self.fam.d2)

    @cached_property
    def e(self) -> Fraction:
        """Rational upper bound of ``envelope``, rounded up to 2^-_CLAMP_BITS
        when it is even tinier (an exact conversion would need
        astronomically long denominators)."""
        v = self.envelope
        sign, man, exp, bc = v._mpi_[1]
        if man != 0 and exp + bc < -_CLAMP_BITS:
            return Fraction(1, 2**_CLAMP_BITS) if not sign else Fraction(0)
        return v.sup

    @cached_property
    def regulator(self):
        """Closed-form enclosure (R_low, R_up) of the regulator at n: the rows
        log|l1|, log|l1-A|, log|l2| and log|l2-A| of ``closed_forms``, each
        coefficient log ranging over [-m, m], plus the error envelope e once
        per row."""
        m, e, n = self.m, self.e, self.n
        la, lb = self.fam_ivs.log_ab
        rows = closed_forms(self.fam.equal_modulus)

        def enclose(name):
            k = sum(map(abs, rows[name][2:]))
            return n * combine(rows[name][:2], (la, lb)) + Interval.between(-(k * m + e), k * m + e, CHAIN_BITS)

        x1, y1, x2, y2 = map(enclose, ("log|l1|", "log|l1-A|", "log|l2|", "log|l2-A|"))
        det = abs(x1 * y2 - x2 * y1)
        return max(Fraction(0), det.inf), det.sup

    @cached_property
    def logH(self) -> Fraction:
        """Upper bound on log of the largest form coefficient, |A_n B_n|."""
        la, lb = self.fam_ivs.log_ab
        val = (self.n * (la + lb)).sup + 2 * (self.m + 1) + self.e
        return max(val, Fraction(2))  # H >= 3 floor

    @cached_property
    def logy(self) -> Fraction:
        """Explicit upper bound on log|y| for any solution at n."""
        return bugy_bound(self.regulator[1], self.logH, CHAIN_BITS)

    @cached_property
    def xi_upper(self) -> Fraction:
        """Upper bound on the log of the xi bound t1 + t2 of
        ``cubic.xi_terms``: log(t1 + t2) <= max(log t1, log t2) + log 2."""
        t1, t2 = xi_terms(self.fam_ivs, self.n, self.fam.d1, self.envelope)
        return max(t1.log().sup, t2.log().sup) + _n_free_log(2, CHAIN_BITS).sup

    @cached_property
    def altunit_lower(self) -> Fraction | None:
        """log of the alternative-unit lower bound, in the log domain: the
        direct evaluation clamps the decay factor q at 2^-256, which forfeits
        the contradiction at astronomically large n, while log q is linear in
        n and stays exact-scale.  None while the chain is vacuous."""
        fam, n, bits = self.fam, self.n, CHAIN_BITS
        if fam.equal_modulus:
            raise SplitThueError("chain requires distinct dominant-root moduli")
        r_low = self.regulator[0]
        if r_low <= 2:
            return None
        consts, (la, lb) = self.fam_ivs.consts, self.fam_ivs.log_ab
        log_q = _n_free_log(2 * consts.U_A, bits) + fam.d2 * self.logn + n * (la - lb) - _n_free_log(consts.L_B, bits)
        if log_q.sup >= _n_free_log(Fraction(1, 4), bits).inf:
            return None
        return (_log(r_low - 2, bits) - _n_free_log(4, bits) - log_q).inf

    @cached_property
    def heights(self):
        """Per-argument height bounds (with Baker floors) for the transformed
        form's logarithms at n, as (label, height) pairs."""
        D, m, logn = self.D, self.m, self.logn.sup
        floor = Fraction(16, 100) / D
        h_alpha, h_beta, coeff_heights = self.fam_ivs.consts.heights
        la, lb = self.fam_ivs.log_ab
        la_abs, lb_abs = abs(la).sup, abs(lb).sup
        out = [("alpha", max(h_alpha, la_abs / D, floor))]
        if not self.fam.equal_modulus:
            out.append(("beta", max(h_beta, lb_abs / D, floor)))
        for label, base, slope in coeff_heights:
            out.append((label, max(base + slope * logn, m / D, floor)))
        return out

    def exponent_bound(self, logy: Fraction, R_low: Fraction) -> Fraction:
        """Upper bound 4 n (b + 1) on the coefficients of the transformed form
        (``units.xi_form``), where b = 2 E (logy + M) / R_low + 1 bounds
        max(|b1|, |b2|) from the inverted log system, with
        E = n (log|alpha| + log|beta|) + 2m + e, the largest |log| matrix
        entry, and M = n log|beta| + m + e, the largest log root difference.
        The form's coefficients are at most 4 n max(|b1|, |b2|), or n when
        b1 = b2 = 0, and b >= 1, so 4 n b covers them: the outer + 1 is slack
        by 4n.  It stays, since lowering it moves n0."""
        if R_low <= 0:
            raise ValueError("need a positive regulator lower bound")
        m, e, n = self.m, self.e, self.n
        la, lb = self.fam_ivs.log_ab
        entry = (n * (la + lb)).sup + 2 * m + e  # largest |log| matrix entry
        maxdiff = (n * lb).sup + m + e  # largest log root difference
        b_bound = (2 * entry) * (logy + maxdiff) / R_low + 1
        return 4 * n * (b_bound + 1)

    @cached_property
    def xi_lower(self) -> Fraction | None:
        """Baker's lower bound on the log of the xi branches' linear form,
        from the heights and the exponent bound B; None while R_low <= 0.
        Both xi branches read it."""
        r_low = self.regulator[0]
        if r_low <= 0:
            return None
        B_exp = self.exponent_bound(self.logy, r_low)
        return baker_lower([h for _, h in self.heights], self.D, _log(B_exp, CHAIN_BITS).sup, CHAIN_BITS)


# The six readers below remain only for the benchmark's perfbench/check.py,
# which calls them; each reads one value of a fresh probe, which finds the
# constants and its precision itself: ``consts`` and ``bits`` are ignored.

LogyUpper = namedtuple("LogyUpper", "value")


def regulator_bounds(fam: FamilyInstance, consts, n: int, bits: int):
    return ChainProbe(fam, n).regulator


def logy_upper(fam: FamilyInstance, consts, n: int, bits: int) -> LogyUpper:
    return LogyUpper(ChainProbe(fam, n).logy)


def log_logy_lower_altunit(fam: FamilyInstance, consts, n: int, bits: int):
    return ChainProbe(fam, n).altunit_lower


def xi_heights(fam: FamilyInstance, n: int, D: int, bits=WORKING_BITS):
    return ChainProbe(fam, n, D).heights


def exponent_bound_B(fam: FamilyInstance, consts, n: int, logy: Fraction, R_low: Fraction, bits: int) -> Fraction:
    return ChainProbe(fam, n).exponent_bound(logy, R_low)


def xi_upper_log(fam: FamilyInstance, consts, n: int, bits: int) -> Fraction:
    return ChainProbe(fam, n).xi_upper


# -- the crossing search ---------------------------------------------------

# Each branch threshold is found by an unbounded search (Bentley and Yao, "An
# almost optimal algorithm for unbounded searching", Inf. Process. Lett. 5,
# 1976): gallop through n = N_START 2^(2^j - 1), that is 8, 16, 64, 1024,
# 262144, ..., probing the cap itself when the next n would pass it, then
# bisect the bracket (lo, hi] at isqrt(lo hi) while hi > 2 lo and at its
# arithmetic midpoint after that.  A threshold near 2^k thus takes O(log k)
# probes to bracket, not k.  It must also contradict on the WINDOW values of
# n after it.
N_START = 8
WINDOW = 10


class BoundReport(Value):
    """One probe of one branch. The verdict is derived here, and only here:
    "contradiction" when the exact lower bound (None while the chain gives
    none) exceeds the exact upper bound, so a tie is no contradiction.  The
    floats are for the report only."""

    __slots__ = ("n", "branch", "R_upper", "logy_upper", "baker_lower_exponent", "xi_upper_log", "verdict")

    def __init__(self, n, branch, R_upper, logy_upper, baker_lower_exponent, xi_upper_log):
        contra = baker_lower_exponent is not None and baker_lower_exponent > xi_upper_log
        _set(self, "n", n)
        _set(self, "branch", branch)
        _set(self, "R_upper", R_upper)
        _set(self, "logy_upper", logy_upper)
        _set(self, "baker_lower_exponent", baker_lower_exponent)
        _set(self, "xi_upper_log", xi_upper_log)
        _set(self, "verdict", "contradiction" if contra else "no-contradiction")


N0Result = namedtuple("N0Result", "n0 no_crossing n_cap branch_thresholds trace")


def _branch_report(probe: ChainProbe, branch: str) -> BoundReport:
    if branch == "altunit-j1":
        # log-domain comparison: chain lower bound vs upper bound
        lower, upper = probe.altunit_lower, _log(probe.logy, CHAIN_BITS).sup
    else:
        lower, upper = probe.xi_lower, probe.xi_upper
    return BoundReport(
        n=probe.n, branch=branch, R_upper=float(probe.regulator[1]), logy_upper=float(probe.logy),
        baker_lower_exponent=lower,
        xi_upper_log=upper,
    )


def _threshold(contra, n_cap: int) -> int | None:
    """The first n <= n_cap at which ``contra(n)`` holds and holds on the
    WINDOW values of n after it, or None; the window may pass the cap.  The
    search is the one described above ``N_START``, and the window advances
    past any non-monotone wiggle.  ``contra`` is called at most once per n."""
    holds = lru_cache(maxsize=None)(contra)
    lo, hi, j = 0, N_START, 0
    while hi <= n_cap and not holds(hi):
        lo, j = hi, j + 1
        hi = N_START << ((1 << j) - 1)
    if hi > n_cap:
        # last chance: probe the cap itself before giving up; a cap below
        # N_START is not probed
        if not 0 < lo < n_cap or not holds(n_cap):
            return None
        hi = n_cap
    while hi - lo > 1:
        # a bracket (0, hi] is split arithmetically
        mid = math.isqrt(lo * hi) if hi > 2 * lo > 0 else (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    start = hi
    while start <= n_cap:
        if all(holds(start + w) for w in range(WINDOW + 1)):
            return start
        start += 1
    return None


def compute_n0(fam: FamilyInstance, n_cap: int) -> N0Result:
    """Smallest n beyond which every solution-type branch yields a
    contradiction between the lower and upper linear-form bounds, verified
    over a sanity window; per-branch thresholds (``_threshold``) and a probe
    trace included, which holds each probed (n, branch) once.  The window
    after a threshold t probes t..t+WINDOW, which can pass the cap: at cap
    568 on fib-pow2 the trace reaches 578."""
    D = field_degree(fam)
    branches = ["xi-j2", "xi-j3"]
    if fam.equal_modulus:
        branches.append("xi-j1")
    else:
        branches.append("altunit-j1")

    trace = []
    probes = {}  # n -> ChainProbe, which every branch at n reads

    def contra(n, branch):
        if n not in probes:
            probes[n] = ChainProbe(fam, n, D)
        rep = _branch_report(probes[n], branch)
        trace.append(rep)
        return rep.verdict == "contradiction"

    thresholds = {branch: _threshold(lambda n: contra(n, branch), n_cap) for branch in branches}
    no_crossing = None in thresholds.values()
    return N0Result(
        n0=None if no_crossing else max(thresholds.values()),
        no_crossing=no_crossing,
        n_cap=n_cap,
        branch_thresholds=thresholds,
        trace=tuple(trace),
    )
