"""Precision budgets, certified interval helpers and three-valued comparisons.

All certified real arithmetic in this package goes through mpmath's interval
context ``mpmath.iv``.  Its precision is a global knob, so every routine that
computes with intervals wraps its work in :func:`interval_bits`, or calls
``mpmath.libmp.libmpi`` with the precision of each step as an argument.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import iv
from mpmath.libmp import from_int, from_rational, mpf_gt, mpf_lt, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_abs, mpi_mul, mpi_sub


class SplitThueError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExhausted(SplitThueError):
    """Refinement budget ran out before the requested certainty was reached."""


class UndecidedComparison(SplitThueError):
    """An interval comparison stayed undecided after all refinements."""


MIN_WORKING_BITS = 64
MAX_BITS = 1 << 14


@dataclass(frozen=True)
class PrecisionBudget:
    """Working precision, and the cap on the precision that refinement may
    double up to before it gives up."""

    working_bits: int = 256
    max_bits: int = MAX_BITS

    def __post_init__(self):
        if self.working_bits < MIN_WORKING_BITS:
            raise ValueError(f"working_bits must be >= {MIN_WORKING_BITS}")
        if self.max_bits < self.working_bits:
            raise ValueError("max_bits must be >= working_bits")

    def target_width(self):
        """Half-precision width bound used by enclosure contracts."""
        return Fraction(1, 2 ** (self.working_bits // 2))


DEFAULT_BUDGET = PrecisionBudget()


@contextmanager
def interval_bits(bits):
    """Temporarily set the mpmath interval context precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = old


def iv_from_fraction(value, bits):
    """Interval with directed-rounded endpoints enclosing an exact rational."""
    return iv_from_fractions(value, value, bits)


def iv_from_fractions(lo, hi, bits):
    """Interval [lo, hi] with rational endpoints, rounded outward to ``bits``.

    The conversion must not pass through ``mpmath.mpf(...)``, which re-rounds
    at the global (often 53-bit) context; ``make_mpf`` keeps the directed
    endpoints exact.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    a = mpmath.mp.make_mpf(from_rational(lo.numerator, lo.denominator, bits, round_floor))
    b = mpmath.mp.make_mpf(from_rational(hi.numerator, hi.denominator, bits, round_ceiling))
    return iv.mpf([a, b])


def iv_abs_affine_exact(x, y, r):
    """The interval {|x - y t| : t in r} for integers x and y.

    libmpi at precision 0 does not round, so the endpoints are exact: the
    cancellation in x - y t for x/y near t costs no bits, and the global
    ``iv.prec`` is never read.
    """
    fx, fy = from_int(x), from_int(y)
    return iv.make_mpf(mpi_abs(mpi_sub((fx, fx), mpi_mul((fy, fy), r._mpi_))))


def iv_width(x):
    lo, hi = x._mpi_
    return _raw_to_fraction(hi) - _raw_to_fraction(lo)


def iv_sup(x):
    return _raw_to_fraction(x._mpi_[1])


def iv_inf(x):
    return _raw_to_fraction(x._mpi_[0])


def compare(x, y):
    """Three-valued interval comparison: True (x < y), False (x > y) or None,
    decided exactly on the endpoints."""
    (x_lo, x_hi), (y_lo, y_hi) = x._mpi_, y._mpi_
    if mpf_lt(x_hi, y_lo):
        return True
    if mpf_gt(x_lo, y_hi):
        return False
    return None


def _raw_to_fraction(raw):
    sign, man, exp, _ = raw
    man = int(man)
    if man == 0 and exp != 0:
        raise ValueError("non-finite mpf")
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << -exp)


def iv_to_fractions(x):
    """Exact rational endpoints of a real interval."""
    lo, hi = x._mpi_
    return _raw_to_fraction(lo), _raw_to_fraction(hi)


def is_iv_complex(value):
    return isinstance(value, mpmath.ctx_iv.ivmpc)
