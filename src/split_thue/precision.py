"""Precision budgets, certified interval helpers and three-valued comparisons.

Certified real arithmetic goes through :class:`Interval`: two mpf endpoints
and the precision ``prec`` that its operations round outward to, passed to
``mpmath.libmp.libmpi`` at each step, so no result depends on mpmath's global
``iv.prec``.  Only arithmetic with complex boxes still uses mpmath's interval
context ``mpmath.iv``, inside :func:`interval_bits`, which sets that global
for the length of a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import iv
from mpmath.libmp import from_int, from_rational, mpf_gt, mpf_lt, round_ceiling, round_floor
from mpmath.libmp.libmpi import (
    mpi_abs,
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_pow_int,
    mpi_sub,
)


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


@dataclass(frozen=True, slots=True)
class Interval:
    """A real interval ``_mpi_ = (lo, hi)`` of raw mpf endpoints whose
    operations round outward to ``prec`` bits; ``prec = 0`` means exact, and
    then only ``+ - *``, negation and ``abs`` are defined (``libmpi`` does not
    terminate on the others at precision 0).

    ``+ - * /``, integer powers, negation, ``abs`` and :meth:`log` call the
    ``libmpi`` function that mpmath's ``iv`` calls, with ``prec`` as an
    argument, so the endpoints are those ``iv`` gives at ``iv.prec = prec``.
    An int operand is converted with directed rounding at ``prec``, as
    ``iv`` converts it.  Two Intervals of different precisions do not mix:
    :meth:`at` states the precision of the next operations explicitly.
    """

    _mpi_: tuple
    prec: int

    @classmethod
    def between(cls, lo, hi, prec):
        """[lo, hi] for ints or Fractions, rounded outward to ``prec`` > 0."""
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi or prec < 1:
            raise ValueError(f"no interval [{lo}, {hi}] at {prec} bits")
        a = from_rational(lo.numerator, lo.denominator, prec, round_floor)
        b = from_rational(hi.numerator, hi.denominator, prec, round_ceiling)
        return cls((a, b), prec)

    @classmethod
    def of(cls, value, prec):
        """The point ``value`` (an int or a Fraction), rounded outward to ``prec``."""
        return cls.between(value, value, prec)

    def at(self, prec):
        """The same endpoints, with later operations rounding to ``prec``."""
        return Interval(self._mpi_, prec)

    @property
    def inf(self):
        return _raw_to_fraction(self._mpi_[0])

    @property
    def sup(self):
        return _raw_to_fraction(self._mpi_[1])

    def _operand(self, other):
        if isinstance(other, Interval):
            if other.prec != self.prec:
                raise ValueError(f"intervals at {self.prec} and {other.prec} bits do not mix")
            return other._mpi_
        if isinstance(other, int):
            p = self.prec
            return from_int(other, p, round_floor), from_int(other, p, round_ceiling)
        raise TypeError(f"an Interval does not combine with {type(other).__name__}")

    def __add__(self, other):
        return Interval(mpi_add(self._mpi_, self._operand(other), self.prec), self.prec)

    def __radd__(self, other):
        return Interval(mpi_add(self._operand(other), self._mpi_, self.prec), self.prec)

    def __sub__(self, other):
        return Interval(mpi_sub(self._mpi_, self._operand(other), self.prec), self.prec)

    def __rsub__(self, other):
        return Interval(mpi_sub(self._operand(other), self._mpi_, self.prec), self.prec)

    def __mul__(self, other):
        return Interval(mpi_mul(self._mpi_, self._operand(other), self.prec), self.prec)

    def __rmul__(self, other):
        return Interval(mpi_mul(self._operand(other), self._mpi_, self.prec), self.prec)

    def __truediv__(self, other):
        return Interval(mpi_div(self._mpi_, self._operand(other), self._rounding()), self.prec)

    def __rtruediv__(self, other):
        return Interval(mpi_div(self._operand(other), self._mpi_, self._rounding()), self.prec)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("an Interval takes integer powers only")
        return Interval(mpi_pow_int(self._mpi_, k, self._rounding()), self.prec)

    def __neg__(self):
        return Interval(mpi_neg(self._mpi_, self.prec), self.prec)

    def __abs__(self):
        return Interval(mpi_abs(self._mpi_, self.prec), self.prec)

    def log(self):
        return Interval(mpi_log(self._mpi_, self._rounding()), self.prec)

    def _rounding(self):
        if not self.prec:
            raise ValueError("an exact interval cannot divide or take powers or logs: call .at(bits)")
        return self.prec


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
    """mpmath ``iv`` interval enclosing an exact rational, rounded outward to
    ``bits`` as :meth:`Interval.of` rounds it; the global ``iv.prec`` is not
    read."""
    return iv.make_mpf(Interval.of(value, bits)._mpi_)


def iv_sup(x):
    return _raw_to_fraction(x._mpi_[1])


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
