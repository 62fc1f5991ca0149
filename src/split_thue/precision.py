"""Certified interval arithmetic at explicit precisions, and three-valued
comparisons.

Real arithmetic goes through :class:`Interval` (two mpf endpoints) and
complex arithmetic through :class:`Box` (a real and an imaginary interval).
Each carries the precision ``prec`` that its operations round outward to,
passed to ``mpmath.libmp.libmpi`` at each step, so no result depends on
mpmath's global interval precision, and nothing here sets it.  A precision
is an int number of bits, and :func:`ladder` is the one escalation policy:
every refinement tries the precisions it yields from a starting ``bits``
(``WORKING_BITS`` by default), doubling up to ``MAX_BITS``.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from operator import attrgetter

import mpmath
from mpmath.libmp import from_int, from_man_exp, from_rational, mpf_gt, mpf_lt, round_ceiling, round_floor
from mpmath.libmp.libmpi import (
    mpci_abs,
    mpci_add,
    mpci_div,
    mpci_mul,
    mpci_pow_int,
    mpci_sub,
    mpi_abs,
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_pow_int,
    mpi_sub,
    mpi_zero,
)


class SplitThueError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExhausted(SplitThueError):
    """Refinement ran out of precision before the requested certainty was reached."""


class UndecidedComparison(SplitThueError):
    """An interval comparison stayed undecided after all refinements."""


class Frozen:
    """Base of the package's immutable classes: ``__init__`` sets each
    attribute once, through ``object.__setattr__``, and assigning or
    deleting one later raises AttributeError.  A ``cached_property`` writes
    to the instance ``__dict__`` directly, so it still works.

    The package does without ``dataclasses``: importing that module and
    generating the methods of each decorated class took about a third of
    the package's import, which every command pays."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class Value(Frozen):
    """A :class:`Frozen` class whose fields are its ``__slots__``, compared
    by value: equal to an instance of the same class with equal fields, and
    hashed by them."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)  # a plain callable: not bound to instances

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))


_set = object.__setattr__  # how an __init__ sets a field of a Frozen instance


MIN_WORKING_BITS = 64
WORKING_BITS = 256
MAX_BITS = 1 << 14


def ladder(start):
    """The precisions an escalation tries, in order: ``start``, doubled while
    below ``MAX_BITS``, and ``MAX_BITS`` last; ``start`` alone when it is at
    least ``MAX_BITS``."""
    bits = start
    yield bits
    while bits < MAX_BITS:
        bits = min(2 * bits, MAX_BITS)
        yield bits


def _real_op(f, swap=False, exact=True):
    """Interval ``x op y`` (``y op x`` if ``swap``) by the libmpi ``f``."""

    def op(x, y):
        y = x._operand(y)
        if y is NotImplemented:
            return y
        prec = x.prec if exact else x._rounding()
        return Interval(f(y, x._mpi_, prec) if swap else f(x._mpi_, y, prec), x.prec)

    return op


def _complex_op(f, swap=False):
    """Box ``x op y`` (``y op x`` if ``swap``) by the libmpi ``f``."""

    def op(x, y):
        y = x._operand(y)
        return Box(f(y, x._mpci_, x.prec) if swap else f(x._mpci_, y, x.prec), x.prec)

    return op


class Interval(Value):
    """A real interval ``_mpi_ = (lo, hi)`` of raw mpf endpoints whose
    operations round outward to ``prec`` bits; ``prec = 0`` means exact, and
    then only ``+ - *``, negation and ``abs`` are defined (``libmpi`` does not
    terminate on the others at precision 0).

    ``+ - * /``, integer powers, negation, ``abs`` and :meth:`log` call the
    ``libmpi`` function that mpmath's interval context calls, with ``prec``
    as an argument, so the endpoints are those that context gives at
    precision ``prec``.  An int operand is converted with directed rounding
    at ``prec``, as that context converts it; with a :class:`Box` operand
    the Box computes.  Two precisions do not mix: :meth:`at` states the
    precision of the next operations explicitly.  ``real`` and ``imag``
    read an Interval as a complex value, as they read a Box.
    """

    __slots__ = ("_mpi_", "prec")

    def __init__(self, _mpi_, prec):
        _set(self, "_mpi_", _mpi_)
        _set(self, "prec", prec)

    @classmethod
    def between(cls, lo, hi, prec):
        """[lo, hi] for ints or Fractions, rounded outward to ``prec`` > 0.

        A dyadic endpoint m / 2^k (an int, and nearly every Fraction here:
        the ends of refined brackets and of intervals) is rounded from
        (m, -k) by ``from_man_exp``: the correctly rounded endpoint that
        ``from_rational`` gives, without a big-integer division."""
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi or prec < 1:
            raise ValueError(f"no interval [{lo}, {hi}] at {prec} bits")
        return cls((_round(lo, prec, round_floor), _round(hi, prec, round_ceiling)), prec)

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

    @property
    def real(self):
        return self

    @property
    def imag(self):
        return Interval(mpi_zero, self.prec)

    def _operand(self, other):
        if isinstance(other, Interval):
            if other.prec != self.prec:
                raise ValueError(f"intervals at {self.prec} and {other.prec} bits do not mix")
            return other._mpi_
        if isinstance(other, int):
            p = self.prec
            return from_int(other, p, round_floor), from_int(other, p, round_ceiling)
        if isinstance(other, Box):
            return NotImplemented
        raise TypeError(f"an Interval does not combine with {type(other).__name__}")

    __add__, __radd__ = _real_op(mpi_add), _real_op(mpi_add, swap=True)
    __sub__, __rsub__ = _real_op(mpi_sub), _real_op(mpi_sub, swap=True)
    __mul__, __rmul__ = _real_op(mpi_mul), _real_op(mpi_mul, swap=True)
    __truediv__ = _real_op(mpi_div, exact=False)
    __rtruediv__ = _real_op(mpi_div, swap=True, exact=False)

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


class Box(Value):
    """A complex interval ``_mpci_ = (re, im)`` of two raw real intervals
    whose operations round outward to ``prec`` > 0 bits: the complex
    counterpart of :class:`Interval`.

    ``+ - * /``, integer powers and ``abs`` (an Interval) call the
    ``libmpi`` ``mpci_*`` function that mpmath's complex intervals call, with
    ``prec`` as an argument, so the endpoints are those mpmath gives at
    precision ``prec``.  An Interval or an int operand is taken with a zero
    imaginary part.  Two precisions do not mix.
    """

    __slots__ = ("_mpci_", "prec")

    def __init__(self, _mpci_, prec):
        _set(self, "_mpci_", _mpci_)
        _set(self, "prec", prec)

    def at(self, prec):
        """The same endpoints, with later operations rounding to ``prec``."""
        return Box(self._mpci_, prec)

    @property
    def real(self):
        return Interval(self._mpci_[0], self.prec)

    @property
    def imag(self):
        return Interval(self._mpci_[1], self.prec)

    def _operand(self, other):
        if isinstance(other, Box):
            self.real._operand(other.real)  # two precisions do not mix
            return other._mpci_
        return self.real._operand(other), mpi_zero

    __add__, __radd__ = _complex_op(mpci_add), _complex_op(mpci_add, swap=True)
    __sub__, __rsub__ = _complex_op(mpci_sub), _complex_op(mpci_sub, swap=True)
    __mul__, __rmul__ = _complex_op(mpci_mul), _complex_op(mpci_mul, swap=True)
    __truediv__, __rtruediv__ = _complex_op(mpci_div), _complex_op(mpci_div, swap=True)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("a Box takes integer powers only")
        return Box(mpci_pow_int(self._mpci_, k, self.prec), self.prec)

    def __abs__(self):
        return Interval(mpci_abs(self._mpci_, self.prec), self.prec)


# interval_bits, iv_from_fraction and iv_sup give mpmath's global interval
# context; nothing in the package uses them, and they stay only because the
# benchmark's perfbench/check.py imports them.


@contextmanager
def interval_bits(bits):
    """Temporarily set the mpmath interval context precision."""
    iv = mpmath.iv
    old = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = old


def iv_from_fraction(value, bits):
    """mpmath ``iv`` interval enclosing an exact rational, rounded outward to
    ``bits`` as :meth:`Interval.of` rounds it; the global precision is not
    read."""
    return mpmath.iv.make_mpf(Interval.of(value, bits)._mpi_)


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


def _round(x, prec, rnd):
    """The raw mpf of the Fraction ``x`` rounded to ``prec`` bits in direction ``rnd``."""
    den = x.denominator
    if den & (den - 1):
        return from_rational(x.numerator, den, prec, rnd)
    return from_man_exp(x.numerator, 1 - den.bit_length(), prec, rnd)


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

