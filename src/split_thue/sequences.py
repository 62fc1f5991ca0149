"""Linear-recurrent integer sequences with a strictly dominant real root.

Terms are evaluated exactly by the integer recursion.  The explicit formula
a_n = c(n) r^n + sum_i c_i(n) r_i^n  is checked once, when a sequence is
built: its certified interval value at each initial term must hold that
term.  The formula satisfies the recurrence, so it is not evaluated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest

from .algebraic import (
    AlgebraicNumber,
    _designate_from_iv,
    _from_power_sums,
    _isolate_all,
    _poly_divmod,
    _poly_mul,
    _power_sums,
    _squarefree_part,
    abs_compare,
    factor_list,
)
from .precision import Interval, SplitThueError, ladder

class InconsistentModel(SplitThueError):
    """Recursion and explicit formula disagree on a term."""


class HypothesisViolated(SplitThueError):
    """The family breaks a hypothesis of the paper (exit 2)."""


@dataclass(frozen=True)
class CoefficientPolynomial:
    """Polynomial in n with algebraic coefficients, attached to one root."""

    coeffs: tuple  # AlgebraicNumber, ascending powers of n

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient polynomial")

    @property
    def degree(self):
        d = 0
        for j, c in enumerate(self.coeffs):
            if not c.is_zero:
                d = j
        return d

    def value_at(self, n):
        """Exact value c(n) as an AlgebraicNumber (Horner over field_arith)."""
        acc = AlgebraicNumber.from_rational(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def approx_at(self, n, bits):
        """Value of c(n) at ``bits``, where n is an int or an Interval at
        ``bits``: an Interval, or a Box when a coefficient is complex."""
        acc = Interval.of(0, bits)
        for c in reversed(self.coeffs):
            acc = acc * n + c.approx(bits)
        return acc

    def abs_coeff_sum_upper(self, bits=64):
        """Rational upper bound on sum of |coefficients|."""
        total = Interval.of(0, bits)
        for c in self.coeffs:
            total += abs(c.approx(bits))
        return total.sup

    def abs_lower_inf(self, n_min=2, bits=128):
        """Certified positive lower bound on inf_{n >= n_min} |c(n)|.

        Beyond the point n_star where the leading term dominates, |c(n)|
        increases.  The prefix [n_min, n_star] is searched by bisection: a
        range is dropped once its enclosure of |c| is no smaller than the
        best value found at a single n, so a monotone prefix costs
        O(log n_star) evaluations, not n_star.
        """
        g = self.degree
        L = abs(self.coeffs[g].approx(bits)).inf
        if L <= 0:
            raise SplitThueError("leading coefficient not separated from 0")
        if g == 0:
            return L
        # |c(n)| >= n^(g-1) (|lead| n - R), increasing for n > R/|lead|
        R = CoefficientPolynomial(self.coeffs[:g]).abs_coeff_sum_upper(bits)
        n_star = max(n_min, 1 + math.ceil(2 * R / L))

        def at(n):
            lo = abs(self.approx_at(n, bits)).inf
            if lo <= 0:
                raise SplitThueError(f"coefficient polynomial not separated from 0 at n={n}")
            return lo

        best = at(n_min)
        ranges = [(n_min, n_star)]
        while ranges:
            lo, hi = ranges.pop()
            if lo == hi:
                best = min(best, at(lo))
            elif abs(self.approx_at(Interval.between(lo, hi, bits), bits)).inf < best:
                mid = (lo + hi) // 2
                ranges += [(mid + 1, hi), (lo, mid)]
        return min(best, Fraction(n_star) ** (g - 1) * (L * n_star - R))


@dataclass(frozen=True)
class RecurrentSequence:
    dominant_root: AlgebraicNumber
    dominant_coeff: CoefficientPolynomial
    secondary: tuple  # of (root: AlgebraicNumber, coeff: CoefficientPolynomial)
    recurrence_coeffs: tuple  # characteristic polynomial, descending, monic
    initial_terms: tuple

    def __post_init__(self):
        self._check_explicit_consistency()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_recurrence(cls, recurrence_coeffs, initial_terms):
        """Factor the characteristic polynomial and solve for the explicit
        formula's coefficient polynomials.

        The factoring (:func:`split_thue.algebraic.factor_list`) and the
        root isolation are certified; the rest is exact rational linear
        algebra.  The initial terms are rational, so the coefficient of n^j
        at every root r of an irreducible factor g is P_{g,j}(r) for one
        P_{g,j} in Q[x] of degree < deg g.  Row n of the linear system in the
        coefficients of the P_{g,j} reads
        a_n = sum_{g,j,i} n^j p_{g,j,i} Tr_g(r^(i+n)).
        """
        recurrence_coeffs = _integers(recurrence_coeffs, "recurrence")
        initial_terms = _integers(initial_terms, "initial")
        order = len(recurrence_coeffs) - 1
        if order < 1:
            raise ValueError("recurrence must have positive order")
        if len(initial_terms) != order:
            raise ValueError("initial_terms must match recurrence order")
        if recurrence_coeffs[0] != 1:
            raise ValueError("characteristic polynomial must be monic")
        factors = []  # (g, multiplicity, power sums of g's roots)
        for g, mult in factor_list(recurrence_coeffs):
            factors.append((g, mult, _power_sums(g, 2 * order)))
        unknowns = [
            (k, j, i)
            for k, (g, mult, _) in enumerate(factors)
            for j in range(mult)
            for i in range(len(g) - 1)
        ]
        rows = [
            [n**j * factors[k][2][i + n] for k, j, i in unknowns] for n in range(order)
        ]
        solution = iter(_solve_rational(rows, initial_terms))

        entries = []
        for g, mult, sums in factors:
            m = len(g) - 1
            polys = [[next(solution) for _ in range(m)] for _ in range(mult)]
            for box in _isolate_all(g, 64):
                root = AlgebraicNumber(g, box)
                coeffs = tuple(_value_at_root(g, sums, P, root) for P in polys)
                entries.append((root, CoefficientPolynomial(coeffs)))

        dom_idx = _dominant_index(entries)
        dominant_root, dominant_coeff = entries[dom_idx]
        secondary = tuple(e for i, e in enumerate(entries) if i != dom_idx)
        return cls(dominant_root, dominant_coeff, secondary, recurrence_coeffs, initial_terms)

    # -- evaluation --------------------------------------------------------

    @property
    def order(self):
        return len(self.recurrence_coeffs) - 1

    def eval_recursion(self, n):
        if n < 0:
            raise ValueError("n must be >= 0")
        terms = list(self.initial_terms)
        if n < len(terms):
            return terms[n]
        tail = self.recurrence_coeffs[1:]
        for _ in range(n - len(terms) + 1):
            nxt = -sum(c * t for c, t in zip(tail, reversed(terms)))
            terms.append(nxt)
            terms = terms[1:]
        return terms[-1]

    def explicit_iv(self, n, bits=None):
        """Interval value at ``bits`` of the explicit formula at n: the real
        part of its sum of Interval and Box terms, whose imaginary part (from
        the conjugate pairs) is checked to hold 0."""
        if bits is None:
            bits = self._formula_bits(n)
        total = imag = Interval.of(0, bits)
        for root, coeff in [(self.dominant_root, self.dominant_coeff)] + list(self.secondary):
            term = coeff.approx_at(n, bits) * root.approx(bits) ** n
            total += term.real
            imag += term.imag
        if not imag.inf <= 0 <= imag.sup:
            raise InconsistentModel("imaginary part of explicit formula off zero")
        return total

    def _formula_bits(self, n):
        """The first precision of the check at n, from a bound on |root|."""
        mag = 1.0
        for root, _ in [(self.dominant_root, self.dominant_coeff)] + list(self.secondary):
            b = root.enclosure
            mag = max(mag, float(max(abs(b.lo), abs(b.hi)) + max(abs(b.im_lo), abs(b.im_hi))))
        return 96 + int((n + self.order) * math.log2(mag + 1)) + 8 * self.order

    # -- internal checks ---------------------------------------------------

    def _check_explicit_consistency(self):
        """The explicit formula's enclosure of each initial term must be
        narrower than 1/2, at some precision of :func:`ladder` from
        ``_formula_bits(n)``, and hold the term."""
        for n, value in enumerate(self.initial_terms):
            for bits in ladder(self._formula_bits(n)):
                enc = self.explicit_iv(n, bits)
                if enc.sup - enc.inf < Fraction(1, 2):
                    break
            else:
                raise InconsistentModel(f"explicit formula enclosure too wide at {bits} bits")
            if not (enc.inf <= value <= enc.sup):
                raise InconsistentModel(
                    f"explicit formula does not reproduce initial term {n}"
                )


def _dominant_index(entries):
    """Index of the entry whose root strictly dominates in modulus; raises
    HypothesisViolated when no root does."""
    roots = [root for root, _ in entries]
    best = 0
    for i in range(1, len(roots)):
        if abs_compare(roots[best], roots[i]) < 0:
            best = i
    if any(abs_compare(roots[i], roots[best]) >= 0 for i in range(len(roots)) if i != best):
        raise HypothesisViolated("dominant root condition fails")
    return best


def _solve_rational(rows, rhs):
    """Solve the square system rows . x = rhs exactly (Gauss-Jordan)."""
    size = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            raise SplitThueError("singular system for the explicit formula")
        m[col], m[piv] = m[piv], m[col]
        for r in range(size):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][size] / m[i][i] for i in range(size)]


def _value_at_root(g, sums, P, root):
    """The algebraic number P(root), for a root of the irreducible g with
    power sums ``sums`` and P in Q[x] of degree < deg g (ascending).

    The minimal polynomial is the squarefree part of the characteristic
    polynomial of multiplication by P on Q[x]/(g), because the
    characteristic polynomial of an element of a field is a power of its
    minimal polynomial.  Its root is the one isolating box that meets the
    interval value of P at the root (:func:`_designate_from_iv` from 128
    bits).
    """
    if not any(P[1:]):
        return AlgebraicNumber.from_rational(P[0])
    m = len(g) - 1
    P_desc = list(reversed(P))
    # power sums of the conjugates of P(r): traces of P^k mod g, k = 1..m
    traces, power = [], [Fraction(1)]
    for _ in range(m):
        power = _poly_divmod(_poly_mul(power, P_desc), g)[1]
        traces.append(sum(c * sums[i] for i, c in enumerate(reversed(power))))
    minpoly = _squarefree_part(_from_power_sums([m] + traces))

    def value(bits):
        r = root.approx(bits)
        acc = Interval.of(P[-1], bits)
        for c in reversed(P[:-1]):
            acc = acc * r + Interval.of(c, bits)
        return acc

    return _designate_from_iv((minpoly,), value, 128)


# -- family ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FamilyInstance:
    A: RecurrentSequence
    B: RecurrentSequence
    d1: int
    d2: int
    equal_modulus: bool

    @classmethod
    def build(cls, A, B):
        """Order the pair so |alpha| <= |beta| and classify the case."""
        alpha, beta = A.dominant_root, B.dominant_root
        if alpha.is_zero or beta.is_zero:
            raise HypothesisViolated("dominant root must be nonzero")
        if any(all(c.is_zero for c in seq.dominant_coeff.coeffs) for seq in (A, B)):
            raise HypothesisViolated("dominant coefficient must be nonzero")
        order = abs_compare(alpha, beta)
        if order > 0:
            A, B = B, A
        degrees = [A.dominant_coeff.degree, B.dominant_coeff.degree]
        degrees += [c.degree for _, c in A.secondary]
        degrees += [c.degree for _, c in B.secondary]
        return cls(A, B, min(degrees), max(degrees), order == 0)

    @property
    def alpha(self):
        return self.A.dominant_root

    @property
    def beta(self):
        return self.B.dominant_root

    @property
    def case_tag(self):
        return "equal_modulus" if self.equal_modulus else "strict"

    @lru_cache(maxsize=4096)
    def terms(self, n):
        """(A_n, B_n) by the integer recursions, once per (family, n); each
        sequence's explicit formula was checked when it was built."""
        return self.A.eval_recursion(n), self.B.eval_recursion(n)

    def c_A(self, n):
        return self.A.dominant_coeff.value_at(n)

    def c_B(self, n):
        return self.B.dominant_coeff.value_at(n)

    @cached_property
    def coeff_diff(self):
        """The coefficient polynomial c_B - c_A, built once per family; it
        must not vanish identically (it is read in the equal-modulus case)."""
        zero = AlgebraicNumber.from_rational(0)
        a, b = self.A.dominant_coeff.coeffs, self.B.dominant_coeff.coeffs
        diff = tuple(cB - cA for cA, cB in zip_longest(a, b, fillvalue=zero))
        if all(c.is_zero for c in diff):
            raise HypothesisViolated("c_B - c_A vanishes identically (equal dominant coefficients)")
        return CoefficientPolynomial(diff)


# -- hypothesis checking ---------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    first_n_all_pass: int | None
    bullet: str | None  # which sign regime holds from first_n on
    equal_case_condition: str | None
    failures: tuple  # of (n, reason)

    @property
    def passed(self):
        return self.first_n_all_pass is not None


def check_hypotheses(fam: FamilyInstance, n_probe: int) -> HypothesisReport:
    """Check the family's sign-regime conditions for n = 1..n_probe."""
    if abs_compare(fam.beta, 1) <= 0:
        raise HypothesisViolated("|beta| must exceed 1")

    failures = []
    per_n_ok = []
    bullet_seen = None
    equal_cond = None
    for n in range(1, n_probe + 1):
        An, Bn = fam.terms(n)
        ok, reason, bullet = _bullet_check(An, Bn)
        if ok and fam.equal_modulus:
            ok, reason, equal_cond = _equal_modulus_check(fam, n)
        per_n_ok.append(ok)
        if ok:
            bullet_seen = bullet
        else:
            failures.append((n, reason))

    first = None
    for i in range(len(per_n_ok) - 1, -1, -1):
        if not per_n_ok[i]:
            break
        first = i + 1
    return HypothesisReport(
        first_n_all_pass=first,
        bullet=bullet_seen if first is not None else None,
        equal_case_condition=equal_cond,
        failures=tuple(failures),
    )


def _bullet_check(An, Bn):
    if 1 <= An <= Bn - 2:
        return True, None, "positive"
    if -1 >= An >= Bn + 3:
        return True, None, "negative"
    return False, f"A_n={An}, B_n={Bn} outside both bullet ranges", None


def _equal_modulus_check(fam, n):
    """Extra conditions in the equal-modulus case, decided exactly."""
    cB = fam.c_B(n)
    cA = fam.c_A(n)
    diff = cB - cA
    if abs_compare(cB, cA) == 0:
        return False, f"|c_B(n)| = |c_A(n)| at n={n}", None
    cB_order = abs_compare(cB, 1)
    if cB_order == 0:
        if diff.is_zero or abs_compare(diff, 1) == 0:
            return False, f"|c_B-c_A| in {{0,1}} at n={n}", None
        return True, None, "unit-modulus"
    if cB_order > 0:
        # need |c_B - c_A| > 1/|c_B|, i.e. |(c_B - c_A) c_B| > 1
        order = abs_compare(diff * cB, 1)
        if order == 0:
            return False, f"|c_B - c_A| = 1/|c_B| at n={n}", None
        if order > 0:
            return True, None, "large-cB"
        return False, f"|c_B - c_A| <= 1/|c_B| at n={n}", None
    # 0 < |c_B| < 1 case: need 0 < |c_B - c_A| < 1
    if diff.is_zero:
        return False, f"c_B = c_A at n={n}", None
    order = abs_compare(diff, 1)
    if order == 0:
        return False, f"|c_B - c_A| = 1 at n={n}", None
    if order < 0:
        return True, None, "small-cB"
    return False, f"|c_B - c_A| > 1 at n={n}", None


# -- JSON interface --------------------------------------------------------


def sequence_from_json(data: dict) -> RecurrentSequence:
    """Build a sequence from the documented JSON schema

    { "recurrence": [int...], "initial": [int...] }

    which fixes the explicit formula (``RecurrentSequence.from_recurrence``).
    """
    if "roots" in data:
        raise ValueError("'roots' is not supported: recurrence and initial fix the explicit formula")
    return RecurrentSequence.from_recurrence(data["recurrence"], data["initial"])


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _integers(values, what):
    """The values as a tuple of ints; a float (even 2.0) or a boolean is an
    error, never truncated."""
    values = tuple(values)
    for v in values:
        if not _is_integer(v):
            raise ValueError(f"{what} entries must be integers, got {v!r}")
    return values
