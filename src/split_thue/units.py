"""Unit lattice of the cubic order: regulator, decomposition of solutions
into fundamental units, Siegel-identity linear forms and their transformed
coefficient tables."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebraic import refine_bracket
from .cubic import CubicRootSet, closed_forms, combine
from .precision import (
    MIN_WORKING_BITS,
    Interval,
    PrecisionExhausted,
    SplitThueError,
    UndecidedComparison,
    Value,
    _set,
    compare,
    ladder,
)


class NotAUnit(SplitThueError):
    """x - lambda y is not +- a product of powers of the units lambda and
    lambda - A_n."""


# fixed (k, l) companion indices for each solution type j
KL_CONVENTION = {1: (3, 2), 2: (3, 1), 3: (2, 1)}


def regulator(rs: CubicRootSet, pair=(1, 2)):
    """|det| of the 2x2 log-embedding matrix of the fundamental units
    {lambda, lambda - A_n}, at the context's working precision; independent
    of the chosen pair of embeddings."""
    if pair[0] == pair[1]:
        raise ValueError("need two distinct embeddings")
    (a, b), (c, d) = ((rs.log_abs[i - 1], rs.log_abs_A[i - 1]) for i in pair)
    return abs(a * d - b * c)


class UnitExponents(Value):
    """x - lambda y = sign lambda^b1 (lambda - A_n)^b2 for a solution of
    type ``j``, the index of the root nearest x / y."""

    __slots__ = ("j", "b1", "b2", "sign")

    def __init__(self, j, b1, b2, sign):
        if sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        _set(self, "j", j)
        _set(self, "b1", b1)
        _set(self, "b2", b2)
        _set(self, "sign", sign)


def norm_form(x, y, A, B):
    return x * (x - A * y) * (x - B * y) - y**3


def ring_mul(u, v, A: int, B: int):
    """u v in Z[lambda] = Z[X]/(f_n), f_n = X^3 - (A+B) X^2 + AB X - 1, for
    elements given as ascending integer triples c0 + c1 X + c2 X^2."""
    p, q = A + B, A * B
    a0, a1, a2 = u
    b0, b1, b2 = v
    # X^4 = p X^3 - q X^2 + X and X^3 = p X^2 - q X + 1 fold c4, then c3
    c4 = a2 * b2
    c3 = a1 * b2 + a2 * b1 + p * c4
    return (
        a0 * b0 + c3,
        a0 * b1 + a1 * b0 + c4 - q * c3,
        a0 * b2 + a1 * b1 + a2 * b0 - q * c4 + p * c3,
    )


def unit_product(b1: int, b2: int, A: int, B: int):
    """lambda^b1 (lambda - A)^b2 in Z[lambda], by square-and-multiply.

    lambda (lambda - A)(lambda - B) = 1 gives the inverses
    lambda^-1 = lambda^2 - (A+B) lambda + AB and (lambda - A)^-1 =
    lambda^2 - B lambda.
    """
    out = (1, 0, 0)
    for unit, inverse, e in (
        ((0, 1, 0), (A * B, -(A + B), 1), b1),
        ((-A, 1, 0), (0, -B, 1), b2),
    ):
        if e < 0:
            unit, e = inverse, -e
        while e:
            if e & 1:
                out = ring_mul(out, unit, A, B)
            e >>= 1
            if e:
                unit = ring_mul(unit, unit, A, B)
    return out


# (b1, b2) of the trivial orbit: x - lambda y is -lambda at (0, 1),
# -(lambda - A_n) at (A_n, 1) and B_n - lambda = -lambda^-1 (lambda - A_n)^-1
# at (B_n, 1), by lambda (lambda - A_n)(lambda - B_n) = 1
TRIVIAL_EXPONENTS = ((1, 0), (0, 1), (-1, -1))


def unit_decompose(x: int, y: int, rs: CubicRootSet) -> UnitExponents:
    """Solution type j, integer exponents (b1, b2) and sign with x - lambda y =
    sign * lambda^b1 (lambda - A_n)^b2, an identity in Z[lambda].

    j is the index of the smallest of the exact magnitudes |x - lambda_i y|
    (Intervals at precision 0). The norm form is the norm of x - lambda y,
    and lambda and lambda - A_n have norm 1, so the sign is the norm form's
    value. The exponents of the trivial orbit, ``TRIVIAL_EXPONENTS``, are
    tried first, each by the exact identity in Z[lambda]; lambda and
    lambda - A_n are multiplicatively independent, so a match is the one
    decomposition, and no log is taken. Every other solution has its
    exponents solved from logs (``_log_solve``).
    """
    A, B = rs.A, rs.B
    nf = norm_form(x, y, A, B)
    if nf not in (1, -1):
        raise NotAUnit(f"norm form value {nf} is not a unit")
    mags = [abs(x - y * r.at(0)) for r in rs.ivs]
    j = _solution_type(x, y, rs, mags)
    target = (nf * x, -nf * y, 0)
    for b1, b2 in TRIVIAL_EXPONENTS:
        if unit_product(b1, b2, A, B) == target:
            return UnitExponents(j, b1, b2, nf)
    return UnitExponents(j, *_log_solve(x, y, rs, mags, target), nf)


def _log_solve(x, y, rs, mags, target):
    """The integer (b1, b2) with lambda^b1 (lambda - A_n)^b2 = ``target``,
    the triple of sign * (x - lambda y) in Z[lambda], from the exact
    magnitudes ``mags``.

    The exponents lie in the enclosures solved from the logs of the first
    two magnitudes at MIN_WORKING_BITS, with the root context's
    ``unit_log_matrix``. f_n is squarefree, so the identity holds at all
    three embeddings, and every integer pair in the enclosures is tried
    exactly.
    """
    # at precision 0, x - y lambda_i is exact and loses no bits to its
    # cancellation, so 64 bits leave the enclosures of b1, b2 narrow
    r1, r2 = (m.at(MIN_WORKING_BITS).log() for m in mags[:2])
    m11, m12, m21, m22, det = rs.unit_log_matrix
    b1_iv = (r1 * m22 - r2 * m12) / det
    b2_iv = (m11 * r2 - m21 * r1) / det
    try:
        (lo1, hi1), (lo2, hi2) = ((b.inf, b.sup) for b in (b1_iv, b2_iv))
    except ValueError:
        raise PrecisionExhausted(f"unit exponents of ({x}, {y}) unbounded") from None
    for b1 in range(math.ceil(lo1), math.floor(hi1) + 1):
        for b2 in range(math.ceil(lo2), math.floor(hi2) + 1):
            if unit_product(b1, b2, rs.A, rs.B) == target:
                return b1, b2
    raise NotAUnit(f"x - lambda y is not +- lambda^b1 (lambda - A)^b2 at (x, y) = ({x}, {y})")


def _solution_type(x, y, rs, mags) -> int:
    """Index j minimizing mags[j - 1] = |x - lambda_j y|; 1 when y = 0.

    There are no ties for y != 0: |x - lambda_i y| = |x - lambda_j y| would
    make x/y the midpoint of lambda_i and lambda_j, but f_n is irreducible,
    so lambda_i + lambda_j = A_n + B_n - lambda_k is irrational.  The
    magnitudes are compared as intervals; overlapping ones are settled on
    the exact brackets, refined up the precision ladder from the root
    context's ``bits``.
    """
    if y == 0:
        return 1
    best = 1
    for i in (2, 3):
        verdict = compare(mags[i - 1], mags[best - 1])
        if verdict is None:
            verdict = _closer(x, y, rs, i, best)
        if verdict:
            best = i
    return best


def _closer(x, y, rs, i, j):
    """|x - lambda_i y| < |x - lambda_j y|, decided exactly on the brackets
    of lambda_i and lambda_j."""
    for bits in ladder(rs.bits):
        width = Fraction(1, 1 << bits)
        (lo_i, hi_i), (lo_j, hi_j) = (
            _abs_range(x, y, refine_bracket(rs.coeffs, rs.roots()[k - 1], width)) for k in (i, j)
        )
        if hi_i < lo_j:
            return True
        if lo_i > hi_j:
            return False
    raise UndecidedComparison(f"|x - lambda_j y| undecided at {bits} bits")


def _abs_range(x, y, box):
    """Exact bounds on |x - lambda y| for lambda in ``box``."""
    ends = sorted((x - box.lo * y, x - box.hi * y))
    if ends[0] <= 0 <= ends[1]:
        return Fraction(0), max(-ends[0], ends[1])
    return min(map(abs, ends)), max(map(abs, ends))


def siegel_gamma(x: int, y: int, rs: CubicRootSet, j: int):
    """gamma from Siegel's identity for type j, and Lambda = log|1 + gamma|,
    at the context's working precision."""
    k, l = KL_CONVENTION[j]
    lam = {i: r.at(rs.work_bits) for i, r in enumerate(rs.ivs, 1)}
    uj = x - lam[j] * y
    uk = x - lam[k] * y
    if uk.inf <= 0 <= uk.sup:
        raise ZeroDivisionError("x - lambda_k y encloses zero")
    gamma = (uj / uk) * ((lam[l] - lam[k]) / (lam[j] - lam[l]))
    return gamma, abs(1 + gamma).log()


# -- transformed linear form xi_j ------------------------------------------


def xi_form(j: int, case_tag: str, n: int, b1: int, b2: int):
    """The transformed linear form xi_j of a type-j solution with unit
    exponents (b1, b2): Lambda = log|1 + gamma| of Siegel's identity, b1
    log|l_l / l_k| + b2 log|(l_l - A_n) / (l_k - A_n)| + log|(l_j - l_k) /
    (l_j - l_l)| with (k, l) = KL_CONVENTION[j], each log replaced by its row
    of ``closed_forms``: five integer coefficients of ``coeff_logs``."""
    if j not in KL_CONVENTION:
        raise ValueError("j must be 1, 2 or 3")
    if case_tag not in ("strict", "equal_modulus"):
        raise ValueError("unknown case tag")
    k, l = KL_CONVENTION[j]
    rows = closed_forms(case_tag == "equal_modulus")
    names = (f"l{l}", f"l{k}", f"l{l}-A", f"l{k}-A", f"l{j}-l{k}", f"l{j}-l{l}")
    row = [
        b1 * (ll - lk) + b2 * (llA - lkA) + jk - jl
        for ll, lk, llA, lkA, jk, jl in zip(*(rows[f"log|{name}|"] for name in names))
    ]
    return (n * row[0], n * row[1], *row[2:])


XiBoundReport = namedtuple("XiBoundReport", "j n value bound ok")


def verify_xi_bound(ue: UnitExponents, rs: CubicRootSet) -> XiBoundReport:
    """Check |xi_j|, the interval value of the transformed linear form of
    ``ue`` at the context's working precision, against its decaying upper
    bound, the context's ``xi_rhs``: it passes when |xi_j| is below the
    bound (``CubicRootSet.decide``). The bound only holds for exponents that
    come from a genuine solution.

    When ``xi_form`` gives the zero row, as it does for the trivial
    solutions (0, 1), (A_n, 1) and (B_n, 1), xi_j = 0 exactly, and the check
    passes with no log evaluated and no ``xi_rhs`` built: the right-hand
    side is at least t1 = 4 / (c5^3 n^d1 (|alpha|^2 |beta|)^n) > 0, since
    c5 > 0. The report's ``value`` is then 0.0 and its ``bound`` None;
    otherwise they are the upper end of |xi_j| and the lower end of
    ``xi_rhs``."""
    fam, n, bits = rs.fam, rs.n, rs.work_bits
    xi = xi_form(ue.j, fam.case_tag, n, ue.b1, ue.b2)
    if not any(xi):
        return XiBoundReport(ue.j, n, 0.0, None, True)
    value = abs(combine(xi, rs.coeff_logs, Interval.of(0, bits)))
    ok = rs.decide(value, rs.xi_rhs, f"|xi_{ue.j}|")
    return XiBoundReport(ue.j, n, float(value.sup), float(rs.xi_rhs.inf), ok)
