"""The parametrized cubic X(X - A_n)(X - B_n) - 1: certified real roots and
verification of the root/log approximation bounds with explicit constants."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebraic import Enclosure, poly_eval_sign, refine_bracket
from .precision import MIN_WORKING_BITS, WORKING_BITS, Interval, SplitThueError
from .sequences import FamilyInstance


class AnchorSignFailure(SplitThueError):
    """Predicted sign pattern around an anchor did not materialize; the
    parameter is below the family's validity threshold."""


def cubic_coeffs(A: int, B: int):
    return (1, -(A + B), A * B, -1)


@dataclass(frozen=True)
class CubicRootSet:
    """Certified enclosures of the three real roots, labelled by anchors:
    lambda1 near B_n, lambda2 near A_n, lambda3 near 1/(A_n B_n).

    The per-n root context: every check at this n reads its family, its n,
    its working precision ``work_bits``, the family's constants and n-free
    intervals (``fam_ivs``) and the intervals and logarithms below from
    here, each computed once.  The root intervals are at
    ``bits``, the working precision plus the bits the roots' scale needs;
    the logs are at ``work_bits``.
    """

    fam: FamilyInstance
    n: int
    A: int
    B: int
    coeffs: tuple
    lambda1: Enclosure
    lambda2: Enclosure
    lambda3: Enclosure
    work_bits: int
    bits: int
    ivs: tuple  # Intervals at ``bits`` enclosing lambda1, lambda2, lambda3
    log_abs: tuple  # log|lambda_i|
    log_abs_A: tuple  # log|lambda_i - A_n|

    def roots(self):
        return (self.lambda1, self.lambda2, self.lambda3)

    @cached_property
    def unit_log_matrix(self):
        """(m11, m12, m21, m22, det): log|lambda_i|, log|lambda_i - A_n| for
        i = 1, 2 and their determinant at MIN_WORKING_BITS, for unit_decompose."""
        p = MIN_WORKING_BITS
        (m11, m21), (m12, m22) = ((v.at(p) for v in logs[:2]) for logs in (self.log_abs, self.log_abs_A))
        return m11, m12, m21, m22, m11 * m22 - m12 * m21

    @property
    def fam_ivs(self):
        """The family's values at ``work_bits`` that do not depend on n
        (``family_ivs``), among them its constants."""
        return family_ivs(self.fam, self.work_bits)

    @cached_property
    def coeff_logs(self):
        """Interval values at ``work_bits`` of log|alpha|, log|beta|,
        log|c_A(n)|, log|c_B(n)| and log|(c_B - c_A)(n)| (the last only in
        the equal-modulus case, else None).  Only the logs of coefficient
        polynomials that depend on n are computed here; the others come
        from ``fam_ivs``."""
        f = self.fam_ivs
        lcA, lcB, ldiff = (
            v if v is not None or p is None else abs(p.approx_at(self.n, self.work_bits)).log()
            for p, v in zip(_coeff_polys(self.fam), f.coeff_logs)
        )
        return (*f.log_ab, lcA, lcB, ldiff)

    @cached_property
    def powers(self):
        """(|alpha|^n, |beta|^n, n^d1, n^d2) at ``work_bits``, which
        ``verify_root_diff`` and ``xi_rhs`` read."""
        a_abs, b_abs = self.fam_ivs.abs_ab
        n_iv = Interval.of(self.n, self.work_bits)
        return a_abs**self.n, b_abs**self.n, n_iv**self.fam.d1, n_iv**self.fam.d2

    @cached_property
    def xi_rhs(self) -> Fraction:
        """Certified lower bound on the right-hand side of the transformed-form
        upper bound 4 c5^-3 n^-d1 |alpha|^-2n |beta|^-n + 6 C n^d2 eps^n at
        ``work_bits``: a |xi_j| at most this value is at most the bound itself.

        The source states the first term with c5 cubed; the derivation uses the
        *inverse* of the root-difference lower bounds, so we evaluate 4 c5^{-3}
        and flag the discrepancy in reports.
        """
        an, bn, nd1, nd2 = self.powers
        f = self.fam_ivs
        t1 = 4 / (f.c5**3 * nd1 * an * an * bn)
        t2 = 6 * f.C * nd2 * f.eps**self.n
        return (t1 + t2).inf


def _coeff_polys(fam: FamilyInstance):
    """c_A, c_B and c_B - c_A (None unless the equal-modulus case reads it)."""
    return fam.A.dominant_coeff, fam.B.dominant_coeff, fam.coeff_diff if fam.equal_modulus else None


FamilyIvs = namedtuple("FamilyIvs", "consts abs_ab log_ab coeff_logs c5 c6 C eps")


@lru_cache(maxsize=64)
def family_ivs(fam: FamilyInstance, bits: int) -> FamilyIvs:
    """Everything about a family at ``bits`` that does not depend on n, once
    per (family, precision): its constants (``compute_constants``); |alpha|
    and |beta| and their logs; log|c| of each polynomial of ``_coeff_polys``
    that is constant in n, None for the others; and c5, c6, C and eps as
    Intervals.  The key is the family, which compares by identity, never a
    polynomial, whose equality compares AlgebraicNumbers exactly."""
    consts = compute_constants(fam)
    abs_ab = abs(fam.alpha.approx(bits)), abs(fam.beta.approx(bits))
    coeff_logs = tuple(
        abs(p.approx_at(0, bits)).log() if p is not None and p.degree == 0 else None
        for p in _coeff_polys(fam)
    )
    c5, c6, C, eps = (Interval.of(v, bits) for v in (consts.c5, consts.c6, consts.C, consts.eps))
    return FamilyIvs(consts, abs_ab, tuple(v.log() for v in abs_ab), coeff_logs, c5, c6, C, eps)


def _bracket_around(coeffs, center, halfwidth):
    """A certified sign change of f within [center - w, center + w], as a
    real Enclosure with f nonzero, of opposite signs, at its ends.

    f is nonzero at each anchor once A, B != 0 and AB != A + B: f(A) =
    f(B) = -1, and a rational root of f is +-1, which 1/(AB) is only for
    A, B in {1, -1}, where f(+-1) != 0.
    """
    lo, hi = center - halfwidth, center + halfwidth
    s_lo = poly_eval_sign(coeffs, lo)
    s_mid = poly_eval_sign(coeffs, center)
    s_hi = poly_eval_sign(coeffs, hi)
    if s_lo != 0 and s_lo != s_mid:
        return Enclosure(lo, center)
    if s_hi != 0 and s_hi != s_mid:
        return Enclosure(center, hi)
    raise AnchorSignFailure(
        f"no sign change in anchor window around {float(center):.6g}"
    )


def isolate_roots(fam: FamilyInstance, n: int, bits=WORKING_BITS) -> CubicRootSet:
    """Certify the three real roots from their anchor windows: the root
    context at n, at working precision ``bits``, which every check at n reads.

    Four logs are taken, at ``bits``; those at lambda3 are derived as minus
    the sum of the other two, since lambda1 lambda2 lambda3 = -f(0) = 1 and
    prod (lambda_i - A_n) = -f(A_n) = 1."""
    A, B = fam.terms(n)
    if A == 0 or B == 0 or A * B == A + B:
        raise AnchorSignFailure("degenerate parameters")
    coeffs = cubic_coeffs(A, B)

    l1 = _bracket_around(coeffs, Fraction(B), Fraction(1, abs(B)))
    l2 = _bracket_around(coeffs, Fraction(A), Fraction(1, abs(A)))
    ab = A * B
    l3 = _bracket_around(coeffs, Fraction(1, ab), Fraction(1, ab * ab))

    pairs = [(l1, l2), (l1, l3), (l2, l3)]
    if any(a.intersects(b) for a, b in pairs):
        raise AnchorSignFailure("anchor windows overlap; n below threshold")

    # widths fine enough for every downstream quantity, incl. lambda2 - A_n
    # whose scale is 1/(A^2 (A-B)^2); the intervals keep that accuracy
    scale_bits = 2 * (abs(A) * abs(B)).bit_length() + 8
    width = Fraction(1, 2 ** (bits // 2 + scale_bits))
    roots = tuple(refine_bracket(coeffs, r, width) for r in (l1, l2, l3))
    iv_bits = bits + scale_bits
    ivs = tuple(r.as_iv(iv_bits) for r in roots)
    r1, r2 = (abs(v).at(bits).log() for v in ivs[:2])
    s1, s2 = (abs(v - A).at(bits).log() for v in ivs[:2])
    log_abs, log_abs_A = (r1, r2, -(r1 + r2)), (s1, s2, -(s1 + s2))
    return CubicRootSet(fam, n, A, B, coeffs, *roots, bits, iv_bits, ivs, log_abs, log_abs_A)


def abs_frac_dist(root: Enclosure, point: Fraction):
    """Upper bound on |root - point| from the bracket."""
    return max(abs(root.lo - point), abs(root.hi - point))


# -- residual reports ------------------------------------------------------


@dataclass(frozen=True)
class ResidualEntry:
    name: str
    residual: float
    bound: float
    ok: bool
    ratio: float | None = None  # residual / (n^d2 eps^n) where applicable


@dataclass(frozen=True)
class ResidualReport:
    n: int
    entries: tuple

    @property
    def all_pass(self):
        return all(e.ok for e in self.entries)


def verify_root_approx(rs: CubicRootSet) -> ResidualReport:
    """The four root-location inequalities, checked with exact rationals."""
    A, B = rs.A, rs.B
    checks = [
        ("lambda1-near-B", abs_frac_dist(rs.lambda1, Fraction(B)), Fraction(1, abs(B))),
        ("lambda2-near-A", abs_frac_dist(rs.lambda2, Fraction(A)), Fraction(1, abs(A))),
        (
            "lambda2-second-order",
            abs_frac_dist(rs.lambda2, Fraction(A) + Fraction(1, A * (A - B))),
            Fraction(1, A * A * (A - B) * (A - B)),
        ),
        (
            "lambda3-near-inv-AB",
            abs_frac_dist(rs.lambda3, Fraction(1, A * B)),
            Fraction(1, (A * B) * (A * B)),
        ),
    ]
    entries = tuple(
        ResidualEntry(name, float(res), float(bound), res <= bound)
        for name, res, bound in checks
    )
    return ResidualReport(rs.n, entries)


@dataclass(frozen=True)
class ApproxConstants:
    """Everything about a family that does not depend on n, built once per
    family by ``compute_constants``: C, eps and c5 <= c6 of the approximation
    lemmas, and what the bound chain reads of the coefficient envelopes
    U >= sum of |coefficients| and L <= inf_{n >= 2} |c(n)|."""

    C: Fraction
    eps: Fraction  # certified upper bound, strictly < 1
    c5: Fraction
    c6: Fraction
    U_A: Fraction  # U over every coefficient of A, dominant and secondary
    L_B: Fraction  # L of c_B
    log_coeff_neg: Fraction  # max |log L| over the lower envelopes
    log_coeff_pos: Fraction  # max log U over the upper envelopes
    heights: tuple  # (h(alpha), h(beta), ((label, base, slope), ...))

    def __post_init__(self):
        if not (0 <= self.eps < 1):
            raise SplitThueError("eps must lie in [0, 1)")
        if self.c5 > self.c6:
            raise SplitThueError("c5 must not exceed c6")


# compute_constants bounds the coefficients for n >= _N_MIN, at _CONST_BITS
_N_MIN = 2
_CONST_BITS = 128


def _ratio_upper(num, den):
    """Rational upper bound on |num/den| for algebraic numbers."""
    return (abs(num.approx(_CONST_BITS)) / abs(den.approx(_CONST_BITS))).sup


def _heights(fam: FamilyInstance):
    """(h(alpha), h(beta), ((label, base, slope), ...)): rational upper
    bounds with h(c(n)) <= base + slope log n for c_A, c_B (and c_B - c_A in
    the equal-modulus case), from h(c(n)) <= sum_j (h(a_j) + j log n)
    + log(#terms)."""
    polys = [("cA", fam.A.dominant_coeff), ("cB", fam.B.dominant_coeff)]
    if fam.equal_modulus:
        polys.append(("cB-cA", fam.coeff_diff))
    coeffs = []
    for label, poly in polys:
        log_terms = Interval.of(poly.degree + 1, _CONST_BITS).log().sup
        base = sum((a.height(_CONST_BITS).sup for a in poly.coeffs), log_terms)
        coeffs.append((label, base, sum(range(len(poly.coeffs)))))
    h_alpha = fam.alpha.height(_CONST_BITS).sup
    h_beta = fam.beta.height(_CONST_BITS).sup
    return h_alpha, h_beta, tuple(coeffs)


@lru_cache(maxsize=64)
def compute_constants(fam: FamilyInstance) -> ApproxConstants:
    """The family's constants, once per family: the shared decay ratio eps,
    the log-residual constant C, root-difference constants c5 <= c6, and
    from the same envelopes the values the bound chain reads."""
    alpha, beta = fam.alpha, fam.beta
    ratios = []
    for root, _ in fam.B.secondary:
        ratios.append(_ratio_upper(root, beta))
    for root, _ in fam.A.secondary:
        ratios.append(_ratio_upper(root, beta))
        ratios.append(_ratio_upper(root, alpha))
    if not fam.equal_modulus:
        ratios.append(_ratio_upper(alpha, beta))
    eps = max(ratios, default=Fraction(0))
    if eps >= 1:
        raise SplitThueError("decay ratio not below 1: dominance violated")

    cA, cB = fam.A.dominant_coeff, fam.B.dominant_coeff
    U_cA = cA.abs_coeff_sum_upper(_CONST_BITS)
    U_cB = cB.abs_coeff_sum_upper(_CONST_BITS)
    U_cA_sec = [c.abs_coeff_sum_upper(_CONST_BITS) for _, c in fam.A.secondary]
    U_cB_sec = [c.abs_coeff_sum_upper(_CONST_BITS) for _, c in fam.B.secondary]
    L_cA = cA.abs_lower_inf(_N_MIN, _CONST_BITS)
    L_cB = cB.abs_lower_inf(_N_MIN, _CONST_BITS)
    ups = [U_cA + sum(U_cA_sec, Fraction(0)), U_cB + sum(U_cB_sec, Fraction(0))]
    lows = [L_cA, L_cB]

    U_max = max([U_cA] + U_cA_sec + U_cB_sec)
    c1 = max(U_cB_sec, default=Fraction(0)) / L_cB
    c2 = max(U_cA_sec, default=Fraction(0)) / L_cA
    c3 = U_max / L_cB
    if fam.equal_modulus:
        diff = fam.coeff_diff
        L_diff = diff.abs_lower_inf(_N_MIN, _CONST_BITS)
        c4 = U_max / L_diff
        ups.append(diff.abs_coeff_sum_upper(_CONST_BITS))
        lows.append(L_diff)
    else:
        c4 = Fraction(0)

    m_A, m_B = len(fam.A.secondary), len(fam.B.secondary)
    C = 5 * max(c1, c2, c3, c4) * (m_B + m_A + 1)
    c6 = 2 * (ups[0] + ups[1] + 1)
    c5 = min(lows) / 4
    neg = max(abs(Interval.of(lo, _CONST_BITS).log().inf) for lo in lows)
    pos = max(Interval.of(up, _CONST_BITS).log().sup for up in ups)
    return ApproxConstants(
        C=C, eps=eps, c5=c5, c6=c6, U_A=ups[0], L_B=L_cB,
        log_coeff_neg=neg, log_coeff_pos=pos, heights=_heights(fam),
    )


def _closed_form_rows(equal_modulus: bool):
    """The rows of ``closed_forms``, from lambda1 ~ B_n, lambda2 ~ A_n +
    1/(A_n (A_n - B_n)) and lambda3 ~ 1/(A_n B_n), with A_n ~ c_A alpha^n,
    B_n ~ c_B beta^n, and B_n - A_n led by c_B beta^n, or by (c_B - c_A) beta^n
    when |alpha| = |beta|."""
    A, B = (1, 0, 1, 0, 0), (0, 1, 0, 1, 0)
    D = (0, 1, 0, 0, 1) if equal_modulus else B  # B_n - A_n
    rows = {
        "l1": B, "l1-A": D, "l1-l2": D, "l1-l3": B,
        "l2": A, "l2-A": tuple(-a - d for a, d in zip(A, D)), "l2-l3": A,
        "l3": tuple(-a - b for a, b in zip(A, B)), "l3-A": A,
    }
    rows.update({f"l{k}-l{i}": rows[f"l{i}-l{k}"] for i, k in ((1, 2), (1, 3), (2, 3))})
    return {f"log|{name}|": row for name, row in rows.items()}


_CLOSED_FORMS = {eq: _closed_form_rows(eq) for eq in (False, True)}


def closed_forms(equal_modulus: bool):
    """The one model of the roots: log|lambda_i|, log|lambda_i - A_n| and
    log|lambda_i - lambda_k| ("log|l1|", "log|l1-A|", "log|l1-l2|", ...) as
    integer rows over (n log|alpha|, n log|beta|, log|c_A(n)|, log|c_B(n)|,
    log|(c_B - c_A)(n)|), built once per case, at import."""
    return _CLOSED_FORMS[equal_modulus]


def combine(coeffs, logs, start=None):
    """start plus the sum of c * v over the nonzero integer coefficients c,
    left to right; c = +-1 adds or subtracts v with no multiplication."""
    for c, v in zip(coeffs, logs):
        if c:
            term = v if abs(c) == 1 else abs(c) * v
            if start is None:
                start = term if c > 0 else -term
            else:
                start = start + term if c > 0 else start - term
    return start


_ROOT_LOGS = ("log|l1|", "log|l1-A|", "log|l2|", "log|l2-A|", "log|l3|", "log|l3-A|")


def log_closed_forms(rs: CubicRootSet):
    """The six closed forms for log|lambda_i| and log|lambda_i - A_n|, their
    rows evaluated on the context's ``coeff_logs``; each of the rows' three
    heads, n times (log|alpha|, log|beta|), is evaluated once."""
    la, lb, *coeff = rs.coeff_logs
    rows = closed_forms(rs.fam.equal_modulus)
    heads = {rows[name][:2] for name in _ROOT_LOGS}
    start = {head: rs.n * combine(head, (la, lb)) for head in heads}
    return {name: combine(rows[name][2:], coeff, start[rows[name][:2]]) for name in _ROOT_LOGS}


def verify_log_approx(rs: CubicRootSet) -> ResidualReport:
    """Six log approximations against the shared decaying error term
    C n^d2 eps^n, at the context's working precision.

    The scale n^d2 eps^n and the bound C n^d2 eps^n are kept as unreduced
    integer fractions: each row is compared with the bound by
    cross-multiplication, and its ratio to the scale is an int true
    division, which is correctly rounded, as ``float`` of the reduced
    Fraction is, without a gcd on the long integers of eps^n."""
    n, C, eps = rs.n, rs.fam_ivs.consts.C, rs.fam_ivs.consts.eps
    scale_num, scale_den = n**rs.fam.d2 * eps.numerator**n, eps.denominator**n
    bound_num, bound_den = C.numerator * scale_num, C.denominator * scale_den
    bound = bound_num / bound_den
    computed = dict(zip(_ROOT_LOGS, (v for pair in zip(rs.log_abs, rs.log_abs_A) for v in pair)))
    closed = log_closed_forms(rs)
    entries = []
    for name in computed:
        sup = abs(computed[name] - closed[name]).sup
        ok = sup.numerator * bound_den <= bound_num * sup.denominator
        ratio = sup.numerator * scale_den / (sup.denominator * scale_num) if scale_num else None
        entries.append(ResidualEntry(name, float(sup), bound, ok, ratio))
    return ResidualReport(n, tuple(entries))


def verify_root_diff(rs: CubicRootSet) -> ResidualReport:
    """The six two-sided root-difference bounds, at the working precision."""
    l1, l2, l3 = (v.at(rs.work_bits) for v in rs.ivs)
    d12 = abs(l1 - l2)
    d13 = abs(l1 - l3)
    d23 = abs(l2 - l3)
    an, bn, nd1, nd2 = rs.powers
    c5, c6 = rs.fam_ivs.c5, rs.fam_ivs.c6
    checks = [
        ("c5 b^n <= |l1-l2|", (c5 * bn).sup <= d12.inf),
        ("|l1-l2| <= c6 n^d2 b^n", d12.sup <= (c6 * nd2 * bn).inf),
        ("c5 n^d1 b^n <= |l1-l3|", (c5 * nd1 * bn).sup <= d13.inf),
        ("|l1-l3| <= c6 n^d2 b^n", d13.sup <= (c6 * nd2 * bn).inf),
        ("c5 n^d1 a^n <= |l2-l3|", (c5 * nd1 * an).sup <= d23.inf),
        ("|l2-l3| <= c6 n^d2 a^n", d23.sup <= (c6 * nd2 * an).inf),
    ]
    entries = tuple(ResidualEntry(name, 0.0, 0.0, ok) for name, ok in checks)
    return ResidualReport(rs.n, entries)
