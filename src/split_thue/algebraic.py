"""Certified arithmetic on real and complex algebraic numbers.

An algebraic number is stored as its primitive integer minimal polynomial
together with an :class:`Enclosure`, the one exact box type: a
rational-endpoint box isolating exactly one root, real or complex.  The exact
polynomial kernel is here too: root isolation certified on exact Newton
squares, composed sums and products from power sums, and factoring over the
integers by root subsets.  Enclosures are :class:`Interval` values for real
numbers and :class:`Box` values for complex ones, each with its own precision
(:mod:`split_thue.precision`), and the same code computes with either.
mpmath's own root finder only supplies approximations, which are certified
exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath
from mpmath.libmp import NoConvergence

from .precision import (
    WORKING_BITS,
    Box,
    Frozen,
    Interval,
    PrecisionExhausted,
    SplitThueError,
    UndecidedComparison,
    Value,
    _raw_to_fraction,
    _set,
    compare,
    ladder,
)


class Enclosure(Value):
    """The exact box [lo, hi] + i [im_lo, im_hi] of Fractions: a real
    interval when ``im_lo == 0 == im_hi``."""

    __slots__ = ("lo", "hi", "im_lo", "im_hi")

    def __init__(self, lo, hi, im_lo=0, im_hi=0):
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "im_lo", im_lo)
        _set(self, "im_hi", im_hi)

    @property
    def is_real(self):
        return self.im_lo == 0 == self.im_hi

    def width(self):
        return max(self.hi - self.lo, self.im_hi - self.im_lo)

    def mid(self):
        """The midpoint of the real part."""
        return (self.lo + self.hi) / 2

    def intersects(self, other):
        return (
            self.lo <= other.hi
            and other.lo <= self.hi
            and self.im_lo <= other.im_hi
            and other.im_lo <= self.im_hi
        )

    def conjugate(self):
        return Enclosure(self.lo, self.hi, -self.im_hi, -self.im_lo)

    def scaled(self, k):
        """The box of k z for z in this box and an int k."""
        lo, hi, im_lo, im_hi = (k * v for v in (self.lo, self.hi, self.im_lo, self.im_hi))
        if k < 0:
            lo, hi, im_lo, im_hi = hi, lo, im_hi, im_lo
        return Enclosure(lo, hi, im_lo, im_hi)

    def as_iv(self, bits):
        """The box rounded outward to ``bits``: an Interval when it is real,
        else a Box."""
        re = Interval.between(self.lo, self.hi, bits)
        if self.is_real:
            return re
        return Box((re._mpi_, Interval.between(self.im_lo, self.im_hi, bits)._mpi_), bits)


def _normalize_coeffs(coeffs):
    """Strip leading zeros, divide by content, force positive leading coeff."""
    coeffs = [int(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if not coeffs:
        raise ValueError("zero polynomial")
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    coeffs = [c // g for c in coeffs]
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


@lru_cache(maxsize=1024)
def _coarse_boxes(coeffs):
    """Pairwise-disjoint boxes, each isolating one root of the squarefree
    integer polynomial ``coeffs`` (degree >= 2), in the order of
    :func:`_isolate_all`.

    mpmath's approximations are rounded to the grid 2^-K, the upper
    half-plane ones mirrored into exact conjugate pairs, and each centre z
    gets the square of half-width R >= d |f/f'(z)|, which holds a root (see
    :func:`_newton_box`).  When the d squares are pairwise disjoint each
    holds exactly one root, and one centred on the real axis holds a real
    root, since it also holds that root's conjugate.  K, and with it the
    precision and the iterations allowed to mpmath, doubles until the
    certificate holds.
    """
    d = len(coeffs) - 1
    for K in ladder(32):
        unit = 1 << K
        try:
            with mpmath.workprec(K + 16):
                approx = mpmath.polyroots(coeffs, maxsteps=2 * K + 10 * d, extraprec=K)
        except NoConvergence:
            approx = []
        grid = [
            tuple(Fraction(round(_raw_to_fraction(x._mpf_) * unit), unit) for x in (z.real, z.imag))
            for z in approx
        ]
        centres = sorted(p for p in grid if p[1] == 0) + sorted(p for p in grid if p[1] > 0)
        squares = []
        for re, im in centres:
            step = _newton_step(coeffs, re, im, unit)
            if step is None:
                break
            R = step[0]
            square = Enclosure(re - R, re + R, im - R, im + R)
            squares += [square] if im == 0 else [square.conjugate(), square]
        if len(squares) == d and not any(a.intersects(b) for a, b in combinations(squares, 2)):
            return tuple(Enclosure(s.lo, s.hi) if s.im_lo < 0 < s.im_hi else s for s in squares)
    raise PrecisionExhausted(f"root isolation did not separate the roots at {K} bits")


@lru_cache(maxsize=1024)
def _isolate_all(coeffs, eps_bits):
    """All roots of a squarefree integer polynomial as pairwise-disjoint
    exact boxes of width <= 2^-eps_bits.

    Real roots come first, ascending, as real Enclosures; then the complex
    roots by real part, each conjugate pair with the negative imaginary
    part first.  A degree-1 polynomial gives its exact root.  The coarse
    boxes of :func:`_coarse_boxes` are refined by :func:`refine_bracket`
    (real roots) or :func:`_newton_box` (complex roots, whose conjugates
    are mirrored).
    """
    if len(coeffs) == 2:
        root = Fraction(-coeffs[1], coeffs[0])
        return (Enclosure(root, root),)
    coarse = _coarse_boxes(coeffs)
    target = Fraction(1, 1 << eps_bits)
    out = []
    for i, box in enumerate(coarse):
        if box.is_real:
            out.append(refine_bracket(coeffs, box, target))
        elif box.im_lo > 0:
            others = coarse[:i] + coarse[i + 1:]
            square = _newton_box(coeffs, box, others, target)
            if square is None:
                raise PrecisionExhausted("Newton refinement of a complex root failed")
            out += [square.conjugate(), square]
    return tuple(out)


def poly_eval_sign(coeffs, point):
    """Exact sign of an integer polynomial at a rational point."""
    point = Fraction(point)
    p, q = point.numerator, point.denominator
    d = len(coeffs) - 1
    acc = 0
    for i, c in enumerate(coeffs):
        acc += c * p ** (d - i) * q**i
    return (acc > 0) - (acc < 0)


def scaled_poly(coeffs, K: int):
    """m -> 2^(dK) f(m / 2^K) for the integer polynomial f of degree d
    (descending coefficients), on integers."""
    scaled = [c << (i * K) for i, c in enumerate(coeffs)]

    def F(m):
        acc = 0
        for c in scaled:
            acc = acc * m + c
        return acc

    return F


def bisect_root(F, lo: int, hi: int):
    """Shrink the isolating bracket [lo, hi] of a root of F to width <= 1.

    The bracket must isolate: F(lo) and F(hi) nonzero and of opposite
    signs, and exactly one simple root of F in between.  Every caller's
    bracket does: the real boxes of :func:`_isolate_all`, the three
    disjoint anchor windows of ``cubic.isolate_roots`` (one sign change
    each of a cubic with three real roots), and the critical-point split
    of ``solver.root_brackets`` or its only real root.  Then the root is a
    grid point m, returned as (m, m), or lies in exactly one cell
    (m, m + 1), returned as it is: the same answer bisection gives.

    Quadratic interval refinement (Abbott 2006; Kerber and Sagraloff 2011)
    finds it in O(log log w) steps for a bracket of width w once the secant
    is accurate, where bisection takes log2 w.  Each step guesses the root
    by the secant through the ends and tests the cell of width
    s = max(1, w // N) holding the guess, then the neighbour cell the signs
    point to.  A hit leaves a bracket of width <= s and squares N; a miss
    sets N to max(4, isqrt(N)) and bisects once.
    """
    return _refine_grid(F, lo, hi, F(lo), F(hi))


def _refine_grid(F, lo, hi, f_lo, f_hi):
    """:func:`bisect_root` on a bracket whose end values F(lo) = f_lo and
    F(hi) = f_hi are known, so that no point is evaluated twice."""

    def cut(x):
        """Keep the side of x that holds the sign change."""
        nonlocal lo, hi, f_lo, f_hi
        if lo < x < hi:
            v = F(x)
            if v == 0:
                lo = hi = x
            elif (v < 0) == (f_lo < 0):
                lo, f_lo = x, v
            else:
                hi, f_hi = x, v

    N = 4
    while hi - lo > 1:
        w = hi - lo
        step = max(1, w // N)
        x0 = lo + f_lo * w // (f_lo - f_hi) // step * step
        cut(x0)
        cut(x0 + step)
        if hi - lo > step:
            cut(x0 - step if hi <= x0 else x0 + 2 * step)
        if hi - lo <= step:
            N *= N
        else:
            N = max(4, math.isqrt(N))
            cut((lo + hi) >> 1)
    return lo, hi


def refine_bracket(coeffs, box, width):
    """Shrink ``box``, a real Enclosure isolating one simple root of the
    integer polynomial ``coeffs`` (opposite nonzero signs at its ends, no
    other root inside), to width <= ``width`` inside the old box.

    :func:`bisect_root` refines on integers at scale 2^K with 2^-K <=
    width: the endpoints are rounded inward to the grid, and when the sign
    there puts the root in the sliver of width < 2^-K between an endpoint
    and its grid point, that sliver is the answer.  An exact rational root
    on the grid collapses the box to that point.
    """
    width = Fraction(width)
    lo, hi = box.lo, box.hi
    if hi - lo <= width:
        return box
    K = (-(-width.denominator // width.numerator) - 1).bit_length()
    F, scale = scaled_poly(coeffs, K), 1 << K
    a = -(-lo.numerator * scale // lo.denominator)  # ceil(lo 2^K)
    b = hi.numerator * scale // hi.denominator  # floor(hi 2^K)
    v_a, v_b = F(a), F(b)
    neg_lo = poly_eval_sign(coeffs, lo) < 0
    if v_a == 0 or v_b == 0:
        point = Fraction(a if v_a == 0 else b, scale)
        return Enclosure(point, point)
    if (v_a < 0) != neg_lo:
        return Enclosure(lo, Fraction(a, scale))
    if (v_b < 0) == neg_lo:
        return Enclosure(Fraction(b, scale), hi)
    a, b = _refine_grid(F, a, b, v_a, v_b)
    return Enclosure(Fraction(a, scale), Fraction(b, scale))


def root_separation_lower(coeffs):
    """Crude positive lower bound on the distance between distinct roots.

    Mahler's bound: sep(p) > sqrt(3) * d^(-(d+2)/2) * ||p||_2^(-(d-1)).
    Returned as a Fraction below the true bound.
    """
    d = len(coeffs) - 1
    if d < 2:
        return Fraction(1)
    norm2_sq = sum(c * c for c in coeffs)
    # sqrt(3)/d^((d+2)/2) > 1/d^(d+2) and ||p||_2^(d-1) <= norm2_sq^(d-1)
    return Fraction(1, d ** (d + 2) * norm2_sq ** (d - 1))


class AlgebraicNumber(Frozen):
    """A root of an irreducible primitive integer polynomial, designated by
    an isolating rational box: ``min_poly`` is stored normalised (primitive,
    with a positive leading coefficient), and ``enclosure`` is an
    :class:`Enclosure`."""

    __slots__ = ("min_poly", "enclosure")

    def __init__(self, min_poly, enclosure):
        _set(self, "min_poly", _normalize_coeffs(min_poly))
        _set(self, "enclosure", enclosure)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value):
        value = Fraction(value)
        return cls((value.denominator, -value.numerator), Enclosure(value, value))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self):
        return len(self.min_poly) - 1

    @property
    def is_real(self):
        return self.enclosure.is_real

    @property
    def is_rational(self):
        return self.degree == 1

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError("not rational")
        return Fraction(-self.min_poly[1], self.min_poly[0])

    @property
    def is_zero(self):
        return self.min_poly == (1, 0)

    def __repr__(self):
        if self.is_rational:
            return f"AlgebraicNumber({self.as_fraction()})"
        mid = self.enclosure.mid() if self.is_real else None
        loc = float(mid) if mid is not None else "complex"
        return f"AlgebraicNumber(deg={self.degree}, ~{loc})"

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumber):
            try:
                other = AlgebraicNumber.from_rational(other)
            except (TypeError, ValueError):
                return NotImplemented
        if self.min_poly != other.min_poly:
            return False
        if self.is_rational:
            return True
        sep = root_separation_lower(self.min_poly)
        a = self.refined(sep / 4)
        b = other.refined(sep / 4)
        return a.intersects(b)

    def __hash__(self):
        return hash(self.min_poly)

    # -- enclosure refinement ----------------------------------------------

    def refined(self, width):
        """Enclosure of the designated root of width <= ``width``, refined
        from the isolating box: a function of the number and the width
        alone."""
        return _refined(self.min_poly, self.enclosure, Fraction(width))

    def approx(self, bits):
        """Enclosure of relative width about 2^-bits, with endpoints rounded
        outward at bits + 8 and operations that round to ``bits``: an
        Interval for a real number, a Box for a complex one."""
        if self.is_rational:
            return Interval.of(self.as_fraction(), bits + 8).at(bits)
        box = self.enclosure
        scale = max(
            abs(box.mid() if box.is_real else box.lo + box.hi), Fraction(1)
        )
        return self.refined(scale * Fraction(1, 2**bits)).as_iv(bits + 8).at(bits)

    # -- number-theoretic operations ---------------------------------------

    def height(self, bits=WORKING_BITS):
        """Enclosure of the absolute logarithmic height, of width <= 2^-(bits // 2)."""
        d = self.degree
        lead = self.min_poly[0]
        target = Fraction(1, 2 ** (bits // 2))
        for p in ladder(bits):
            total = Interval.of(lead, p).log()
            for box in _isolate_all(self.min_poly, p):
                total += _log_plus(abs(box.as_iv(p)))
            result = total / d
            if result.sup - result.inf <= target:
                return result
        raise PrecisionExhausted(f"height enclosure did not converge at {p} bits")

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        if self.is_rational:
            return AlgebraicNumber.from_rational(-self.as_fraction())
        d = self.degree
        coeffs = [c if (d - i) % 2 == 0 else -c for i, c in enumerate(self.min_poly)]
        return AlgebraicNumber(coeffs, self.enclosure.scaled(-1))

    def __add__(self, other):
        return field_arith(self, _coerce(other), "add")

    def __radd__(self, other):
        return field_arith(_coerce(other), self, "add")

    def __sub__(self, other):
        return field_arith(self, _coerce(other), "sub")

    def __rsub__(self, other):
        return field_arith(_coerce(other), self, "sub")

    def __mul__(self, other):
        return field_arith(self, _coerce(other), "mul")

    def __rmul__(self, other):
        return field_arith(_coerce(other), self, "mul")


@lru_cache(maxsize=1024)
def _refined(min_poly, box, width):
    """:meth:`AlgebraicNumber.refined` of the root of ``min_poly`` in the
    isolating ``box``."""
    if box.width() <= width or len(min_poly) == 2:
        return box
    if box.is_real:
        # an irreducible min_poly of degree >= 2 has no rational root, so
        # it is nonzero, with opposite signs, at the ends of an isolating box
        return refine_bracket(min_poly, box, width)
    return _refine_complex(min_poly, box, width)


def _refine_complex(min_poly, box, width):
    """Exact Newton steps certified by :func:`_newton_box` against the
    other roots' isolating boxes, which are refined when they fail."""
    for eps_bits in ladder(64):
        boxes = _isolate_all(min_poly, eps_bits)
        hits = [b for b in boxes if b.intersects(box)]
        if len(hits) == 1:
            others = [b for b in boxes if b is not hits[0]]
            tight = _newton_box(min_poly, box, others, width)
            if tight is not None:
                return tight
            box = hits[0]
            if box.width() <= width:
                return box
    raise PrecisionExhausted(f"complex enclosure refinement failed at {eps_bits} bits")


def _coerce(value):
    if isinstance(value, AlgebraicNumber):
        return value
    return AlgebraicNumber.from_rational(value)


def abs_square(x: AlgebraicNumber):
    """|x|^2 exactly: x times its complex conjugate, computed once per
    (minimal polynomial, isolating box)."""
    return _abs_square(x.min_poly, x.enclosure)


@lru_cache(maxsize=1024)
def _abs_square(min_poly, enclosure):
    x = AlgebraicNumber(min_poly, enclosure)
    if x.is_real:
        return x * x
    return x * AlgebraicNumber(min_poly, enclosure.conjugate())


def abs_compare(x, y, bits=WORKING_BITS):
    """Certified sign of |x| - |y| (-1, 0 or 1) for algebraic numbers or
    rationals.

    Two rationals compare exactly.  When the moduli's intervals overlap at
    the working precision, a tie is decided exactly: x = y or x = -y for
    real x and y, |x|^2 = |y|^2 otherwise.  Past that the moduli are
    refined up :func:`ladder` from ``bits``; UndecidedComparison is raised
    when its last precision leaves them overlapping.
    """
    x, y = _coerce(x), _coerce(y)
    if x.is_rational and y.is_rational:
        a, b = abs(x.as_fraction()), abs(y.as_fraction())
        return (a > b) - (a < b)
    for p in ladder(bits):
        verdict = compare(abs(x.approx(p)), abs(y.approx(p)))
        if verdict is not None:
            return -1 if verdict else 1
        if p == bits and _moduli_tie(x, y):
            return 0
    raise UndecidedComparison(f"interval comparison undecided at {p} bits")


def _moduli_tie(x, y):
    """|x| = |y|, decided exactly: x = y or x = -y for real x and y,
    |x|^2 = |y|^2 otherwise."""
    if x.is_real and y.is_real:
        return x == y or x == -y
    return abs_square(x) == abs_square(y)


def _log_plus(mag):
    """Interval of log max(|.|, 1) from an Interval of |.|."""
    if mag.sup <= 1:
        return Interval.of(0, mag.prec)
    return Interval.between(max(mag.inf, 1), mag.sup, mag.prec).log()


def _newton_step(coeffs, re, im, unit):
    """At z = re + i im: a half-width R >= d |f/f'(z)| rounded up to a
    multiple of 1/unit, and the Newton iterate z - f/f'(z) rounded to that
    grid, as (R, re', im'); None when f'(z) = 0.  All arithmetic is exact.
    """
    d = len(coeffs) - 1
    fr = fi = dr = di = Fraction(0)
    for c in coeffs:  # Horner for f and f' at re + i im
        dr, di = dr * re - di * im + fr, dr * im + di * re + fi
        fr, fi = fr * re - fi * im + c, fr * im + fi * re
    norm = dr * dr + di * di
    if norm == 0:
        return None
    R = Fraction(math.isqrt(d * d * (fr * fr + fi * fi) * unit * unit // norm) + 1, unit)
    # z - f/f' with f/f' = f conj(f') / |f'|^2
    re = Fraction(round((re - (fr * dr + fi * di) / norm) * unit), unit)
    im = Fraction(round((im - (fi * dr - fr * di) / norm) * unit), unit)
    return R, re, im


def _newton_box(coeffs, start, others, target):
    """A square of width <= ``target`` holding the root of ``coeffs`` that
    lies in ``start``, or None if Newton's method from the centre of
    ``start`` does not certify one.  ``others`` are isolating boxes of all
    the other roots.

    Since f'/f(z) = sum_k 1/(z - z_k), some root lies within d |f(z)/f'(z)|
    of any z (d = degree).  When the square around z of that half-width
    meets none of ``others``, that root is the one in ``start``.  The
    iterates are rounded to multiples of 2^-K.
    """
    K = target.denominator.bit_length() - target.numerator.bit_length() + 16
    unit = 2**K
    re = start.mid()
    im = (start.im_lo + start.im_hi) / 2
    for _ in range(2 * K.bit_length() + 8):
        step = _newton_step(coeffs, re, im, unit)
        if step is None:
            return None
        R, next_re, next_im = step
        if 2 * R <= target:
            square = Enclosure(re - R, re + R, im - R, im + R)
            if not any(square.intersects(b) for b in others):
                return square
        re, im = next_re, next_im
    return None


# -- exact polynomial kernel -----------------------------------------------
#
# Polynomials are lists of descending coefficients (ints or Fractions); the
# zero polynomial is [].


def _trim(f):
    f = list(f)
    while f and f[0] == 0:
        f.pop(0)
    return f


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    """Quotient and remainder over Q (b has a nonzero leading coefficient)."""
    a, q = list(a), []
    while len(a) >= len(b):
        c = Fraction(a[0]) / b[0]
        q.append(c)
        a = [x - c * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    return q, _trim(a)


def _derivative(f):
    d = len(f) - 1
    return [c * (d - i) for i, c in enumerate(f[:-1])]


def _poly_gcd(a, b):
    """The monic gcd over Q of two polynomials, not both zero."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [Fraction(c) / a[0] for c in a]


def _primitive(f):
    """The primitive integer polynomial, with a positive leading coefficient,
    among the rational multiples of f."""
    scale = math.lcm(*(Fraction(c).denominator for c in f))
    return _normalize_coeffs([c * scale for c in f])


def _squarefree_part(f):
    return _primitive(_poly_divmod(f, _poly_gcd(f, _derivative(f)))[0])


def _power_sums(g, count):
    """Power sums p_0..p_{count-1} of the roots of g, by Newton's
    identities."""
    m = len(g) - 1
    a = [Fraction(c, g[0]) for c in g]
    sums = [Fraction(m)]
    for k in range(1, count):
        s = -sum(a[i] * sums[k - i] for i in range(1, min(k, m + 1)))
        if k <= m:
            s -= k * a[k]
        sums.append(s)
    return sums


def _from_power_sums(sums):
    """The monic polynomial of degree m whose roots have the power sums
    ``sums`` = p_0..p_m, by Newton's identities."""
    e = [Fraction(1)]
    for k in range(1, len(sums)):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i] for i in range(1, k + 1)) / k)
    return [(-1) ** k * c for k, c in enumerate(e)]


def factor_list(coeffs):
    """The irreducible factors of an integer polynomial of positive degree
    with their multiplicities, as (factor, multiplicity) pairs; each factor
    is primitive with a positive leading coefficient.  They are ordered by
    degree, then multiplicity, then coefficients.

    Yun's algorithm splits f into squarefree parts g_1, g_2, ... with
    f = lc * prod g_i^i, and :func:`_factor_squarefree` splits each part.
    """
    f = [Fraction(c) for c in coeffs]
    a = _poly_gcd(f, _derivative(f))
    b, c = _poly_divmod(f, a)[0], _poly_divmod(_derivative(f), a)[0]
    factors, mult = [], 1
    while len(b) > 1:
        d = [x - y for x, y in zip(c, _derivative(b))]
        a = _poly_gcd(b, d)
        if len(a) > 1:
            factors += [(g, mult) for g in _factor_squarefree(_primitive(a))]
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        mult += 1
    return sorted(factors, key=lambda gm: (len(gm[0]), gm[1], gm[0]))


def _factor_squarefree(f):
    """The irreducible factors of a squarefree primitive integer polynomial.

    Sets S of roots closed under conjugation are tried by increasing size.
    A factor g of f has lc(g) | lc(f), so lc(f) prod_{r in S} (x - r) is an
    integer polynomial when S is the root set of a factor.  S is rejected
    when an enclosure of that polynomial's x^(|S|-1) coefficient,
    -lc(f) e_1(S), or of any other coefficient holds no integer; otherwise
    the coefficients are rounded to the one integer each enclosure holds,
    and S is accepted when the primitive part divides f.  The first S
    accepted is irreducible, since every smaller one was rejected.  Root
    enclosures are refined until each coefficient's holds at most one
    integer.
    """
    d = len(f) - 1
    bound = 2 + max(abs(c) for c in f) // f[0]  # > |root| (Cauchy)
    for bits in ladder(32 + f[0].bit_length() + d * (bound.bit_length() + 1)):
        factors = _split_by_roots(f, _isolate_all(f, bits), bits)
        if factors is not None:
            return factors
    raise PrecisionExhausted(f"factoring needs more than {bits} bits")


def _split_by_roots(f, boxes, bits):
    """The subset search of :func:`_factor_squarefree` on the isolating
    ``boxes`` of the roots of f, or None when an enclosure is too wide."""
    atoms, i = [], 0  # real roots alone, conjugate pairs together
    while i < len(boxes):
        size = 1 if boxes[i].is_real else 2
        atoms.append(boxes[i:i + size])
        i += size
    factors, size = [], 1
    while 2 * size < len(f):
        for subset in _subsets(atoms, size):
            g = _round_factor(f, [b for atom in subset for b in atom], bits)
            if g is None:
                return None
            if not g:
                continue
            quotient, remainder = _poly_divmod(f, g)
            if not remainder:
                factors.append(g)
                f = tuple(int(c) for c in quotient)
                atoms = [a for a in atoms if a not in subset]
                break
        else:
            size += 1
    return factors + [f]


def _subsets(atoms, size):
    """The subsets of ``atoms`` holding ``size`` roots in all."""
    for count in range(1, size + 1):
        for subset in combinations(atoms, count):
            if sum(map(len, subset)) == size:
                yield subset


def _round_factor(f, roots, bits):
    """lc(f) prod (x - r) over the boxes ``roots``, with real Interval
    coefficients (x^2 - 2 Re(z) x + Re(z)^2 + Im(z)^2 for a conjugate pair),
    rounded to integers and made primitive: () when some coefficient's
    enclosure holds no integer, None when one holds more than one."""
    lc = f[0]
    lo = lc * sum(b.lo for b in roots)
    hi = lc * sum(b.hi for b in roots)
    if math.floor(hi) < math.ceil(lo):
        return ()
    prod = [Interval.of(lc, bits + 32)]
    for b in roots:
        z = b.as_iv(bits + 32)
        if b.is_real:
            prod = _poly_mul(prod, [1, -z])
        elif b.im_lo > 0:
            prod = _poly_mul(prod, [1, -2 * z.real, z.real**2 + z.imag**2])
    out = []
    for c in prod:
        lo, hi = math.ceil(c.inf), math.floor(c.sup)
        if lo > hi:
            return ()
        if lo < hi:
            return None
        out.append(lo)
    return _normalize_coeffs(out)


def _composed_poly(a_coeffs, b_coeffs, op):
    """The monic polynomial whose roots are all sums (op "add") or products
    (op "mul") of a root of ``a_coeffs`` and a root of ``b_coeffs``, with
    multiplicity: a resultant, up to a constant.

    Its power sums are p_k(a + b) = sum_i C(k, i) p_i(a) p_{k-i}(b) and
    p_k(a b) = p_k(a) p_k(b) (Bostan, Flajolet, Salvy and Schost, J.
    Symbolic Comput. 41, 2006), and Newton's identities turn them into
    coefficients.
    """
    N = (len(a_coeffs) - 1) * (len(b_coeffs) - 1)
    pa, pb = _power_sums(a_coeffs, N + 1), _power_sums(b_coeffs, N + 1)
    if op == "add":
        sums = [sum(math.comb(k, i) * pa[i] * pb[k - i] for i in range(k + 1)) for k in range(N + 1)]
    elif op == "mul":
        sums = [p * q for p, q in zip(pa, pb)]
    else:
        raise ValueError(op)
    return _from_power_sums(sums)


@lru_cache(maxsize=4096)
def _resultant_poly(a_coeffs, b_coeffs, op):
    """The irreducible factors of :func:`_composed_poly`, which annihilate
    a `op` b."""
    return tuple(_factor_squarefree(_squarefree_part(_composed_poly(a_coeffs, b_coeffs, op))))


def field_arith(a, b, op):
    """Exact algebraic arithmetic: result has its own minimal polynomial.

    The result polynomial is found via resultants; the designated root is the
    unique candidate compatible with interval arithmetic on the operands.
    """
    if op not in ("add", "sub", "mul"):
        raise ValueError(f"unknown op {op!r}")
    if op == "sub":
        return field_arith(a, -b, "add")

    # rational fast paths
    if a.is_rational and b.is_rational:
        if op == "add":
            return AlgebraicNumber.from_rational(a.as_fraction() + b.as_fraction())
        return AlgebraicNumber.from_rational(a.as_fraction() * b.as_fraction())
    if op == "mul" and (a.is_zero or b.is_zero):
        return AlgebraicNumber.from_rational(0)

    candidates = _resultant_poly(a.min_poly, b.min_poly, op)
    f = operator.add if op == "add" else operator.mul
    return _designate_from_iv(candidates, lambda p: f(a.approx(p), b.approx(p)))


def _designate_from_iv(candidate_polys, value_fn, bits=WORKING_BITS):
    """Select the unique (factor, root) pair compatible with the Interval or
    Box ``value_fn(p)``, at the precisions p of :func:`ladder` from ``bits``."""
    for p in ladder(bits):
        val = value_fn(p)
        re, im = val.real, val.imag
        val_box = Enclosure(re.inf, re.sup, im.inf, im.sup)
        hits = [
            (fc, box) for fc in candidate_polys for box in _isolate_all(fc, p // 2) if box.intersects(val_box)
        ]
        if len(hits) == 1:
            fc, box = hits[0]
            return AlgebraicNumber(fc, box)
        if not hits:
            raise SplitThueError("no candidate root matches interval value")
    raise PrecisionExhausted(f"could not separate candidate roots at {p} bits")
