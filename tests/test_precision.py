from fractions import Fraction

import pytest
from mpmath import iv

from split_thue.precision import (
    PrecisionBudget,
    compare,
    interval_bits,
    iv_abs_affine_exact,
    iv_from_fraction,
    iv_from_fractions,
    iv_inf,
    iv_sup,
    iv_to_fractions,
    iv_width,
)


def test_budget_validation():
    with pytest.raises(ValueError):
        PrecisionBudget(working_bits=32)
    with pytest.raises(ValueError):
        PrecisionBudget(working_bits=512, max_bits=256)
    assert PrecisionBudget().max_bits == 1 << 14
    assert PrecisionBudget(working_bits=128).target_width() == Fraction(1, 2**64)


def test_interval_bits_restores_precision():
    old = iv.prec
    with interval_bits(333):
        assert iv.prec == 333
    assert iv.prec == old


def test_iv_from_fraction_encloses_exactly():
    q = Fraction(1, 3)
    for bits in (64, 128, 256):
        x = iv_from_fraction(q, bits)
        assert iv_inf(x) <= q <= iv_sup(x)
        assert iv_width(x) <= Fraction(1, 2 ** (bits - 4))


def test_iv_from_fraction_dyadic_is_exact():
    q = Fraction(5, 8)
    x = iv_from_fraction(q, 64)
    assert iv_inf(x) == iv_sup(x) == q
    assert iv_width(x) == 0


def test_iv_from_fraction_does_not_reround_at_53_bits():
    # a rational needing far more than double precision
    q = Fraction(2**200 + 1, 2**200)
    x = iv_from_fraction(q, 256)
    assert iv_inf(x) == iv_sup(x) == q


def test_iv_from_fractions_rejects_empty():
    with pytest.raises(ValueError):
        iv_from_fractions(Fraction(1), Fraction(0), 64)


def test_endpoint_extraction_round_trip():
    with interval_bits(128):
        x = iv_from_fractions(Fraction(-3, 7), Fraction(2, 7), 128)
    lo, hi = iv_to_fractions(x)
    assert lo <= Fraction(-3, 7) and hi >= Fraction(2, 7)


def test_compare_three_valued():
    with interval_bits(64):
        a = iv_from_fraction(Fraction(1), 64)
        b = iv_from_fraction(Fraction(2), 64)
        c = iv_from_fractions(Fraction(0), Fraction(3), 64)
    assert compare(a, b) is True
    assert compare(b, a) is False
    assert compare(a, c) is None


def test_iv_abs_affine_exact_has_exact_endpoints(monkeypatch):
    # x - y t cancels 400 bits of x for t near x / y; the endpoints are
    # still |x - y lo| and |x - y hi| exactly, whatever the global iv.prec
    x, y = 2**400 + 1, 3
    lo, hi = Fraction(x, y) - Fraction(1, 2**500), Fraction(x, y) + Fraction(1, 2**501)
    r = iv_from_fractions(lo, hi, 1024)
    rlo, rhi = iv_to_fractions(r)
    want = (Fraction(0), max(abs(x - y * rlo), abs(x - y * rhi)))
    for prec in (20, 53, 300):
        monkeypatch.setattr(iv, "prec", prec)
        assert iv_to_fractions(iv_abs_affine_exact(x, y, r)) == want
    r = iv_from_fractions(lo + Fraction(1, 2**499), hi + Fraction(1, 2**499), 1024)
    rlo, rhi = iv_to_fractions(r)
    assert iv_to_fractions(iv_abs_affine_exact(x, y, r)) == (y * rlo - x, y * rhi - x)
