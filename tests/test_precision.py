import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from split_thue import algebraic, bounds, cubic, sequences, solver, units
from split_thue.precision import (
    Box,
    Interval,
    compare,
    interval_bits,
    iv_from_fraction,
    iv_sup,
    ladder,
)


def _clear_memos():
    for module in (algebraic, sequences, cubic, units, bounds):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


FIB_POW2 = ({"recurrence": [1, -1, -1], "initial": [1, 2]}, {"recurrence": [1, -2], "initial": [2]})
# A_n = 3^n + 2 cos(pi n / 2): a complex secondary pair +-i
COMPLEX_PAIR = ({"recurrence": [1, -3, 1, -3], "initial": [3, 3, 7]}, {"recurrence": [1, -4], "initial": [4]})


def test_per_n_path_never_sets_the_global_precision(monkeypatch, fib_pow2, fib_pow2_consts):
    """Building a family from JSON, its field degree and constants, and every
    check at a given n compute with Intervals and Boxes of explicit
    precision: setting mpmath's global iv.prec anywhere on that path fails
    the test.  The complex-pair family computes with Boxes while it is
    built."""
    bits = 512
    probes = bounds.compute_n0(fib_pow2, 10**19).trace

    def forbidden(ctx, value):
        raise AssertionError(f"iv.prec set to {value}")

    ctx_type = type(mpmath.iv)
    monkeypatch.setattr(ctx_type, "prec", property(ctx_type.prec.fget, forbidden))
    _clear_memos()
    with pytest.raises(AssertionError, match="iv.prec set"):
        mpmath.iv.prec = 20
    for a, b in (FIB_POW2, COMPLEX_PAIR):
        fam = sequences.FamilyInstance.build(
            sequences.sequence_from_json(a), sequences.sequence_from_json(b)
        )
        D = bounds.field_degree(fam)
        consts = cubic.compute_constants(fam)
        for n in range(2, 13):
            rs = cubic.isolate_roots(fam, n, bits)
            assert cubic.verify_root_approx(rs).all_pass
            assert cubic.verify_log_approx(rs).all_pass
            assert cubic.verify_root_diff(rs).all_pass
            for s in solver.solve_bruteforce(fam, n, 50):
                if s.y == 0:
                    continue
                ue = units.unit_decompose(s.x, s.y, rs)
                assert units.verify_xi_bound(ue, rs).ok
        if (a, b) == FIB_POW2:
            assert D == 2 and consts == fib_pow2_consts
            for traced in probes:
                probe = bounds.ChainProbe(fam, traced.n, D)
                assert bounds._branch_report(probe, traced.branch) == traced
    assert D == 1 and all(isinstance(r.approx(bits), Box) for r, _ in fam.A.secondary)


def test_interval_bits_restores_precision():
    old = iv.prec
    with interval_bits(333):
        assert iv.prec == 333
    assert iv.prec == old


def test_iv_from_fraction_encloses_exactly():
    q = Fraction(1, 3)
    for bits in (64, 128, 256):
        x = iv_from_fraction(q, bits)
        exact = Interval(x._mpi_, bits)
        lo, hi = exact.inf, exact.sup
        assert lo <= q <= hi == iv_sup(x)
        assert hi - lo <= Fraction(1, 2 ** (bits - 4))


def test_iv_from_fraction_dyadic_is_exact():
    q = Fraction(5, 8)
    x = iv_from_fraction(q, 64)
    assert Interval(x._mpi_, 64).inf == iv_sup(x) == q


def test_iv_from_fraction_does_not_reround_at_53_bits():
    # a rational needing far more than double precision
    q = Fraction(2**200 + 1, 2**200)
    x = Interval(iv_from_fraction(q, 256)._mpi_, 256)
    assert (x.inf, x.sup) == (q, q)


def test_interval_between_rejects_empty_and_exact():
    with pytest.raises(ValueError):
        Interval.between(Fraction(1), Fraction(0), 64)
    with pytest.raises(ValueError):
        Interval.of(3, 0)


def test_endpoint_extraction_round_trip():
    x = Interval.between(Fraction(-3, 7), Fraction(2, 7), 128)
    lo, hi = x.inf, x.sup
    assert lo <= Fraction(-3, 7) and hi >= Fraction(2, 7)
    # the exact endpoints are representable at 128 bits: rebuilding from
    # them gives the same raw endpoints
    assert Interval.between(lo, hi, 128)._mpi_ == x._mpi_


def test_compare_three_valued():
    a = Interval.of(1, 64)
    b = Interval.of(2, 64)
    c = Interval.between(0, 3, 64)
    assert compare(a, b) is True
    assert compare(b, a) is False
    assert compare(a, c) is None


def test_exact_interval_has_exact_endpoints(monkeypatch):
    # x - y t cancels 400 bits of x for t near x / y; at precision 0 the
    # endpoints are still |x - y lo| and |x - y hi| exactly, whatever the
    # global iv.prec
    x, y = 2**400 + 1, 3
    lo, hi = Fraction(x, y) - Fraction(1, 2**500), Fraction(x, y) + Fraction(1, 2**501)
    r = Interval.between(lo, hi, 1024).at(0)
    want = (Fraction(0), max(abs(x - y * r.inf), abs(x - y * r.sup)))
    for prec in (20, 53, 300):
        monkeypatch.setattr(iv, "prec", prec)
        mag = abs(x - y * r)
        assert (mag.inf, mag.sup) == want
    r = Interval.between(lo + Fraction(1, 2**499), hi + Fraction(1, 2**499), 1024).at(0)
    mag = abs(x - y * r)
    assert (mag.inf, mag.sup) == (y * r.inf - x, y * r.sup - x)


def test_interval_from_fraction_encloses_and_does_not_reround_at_53_bits():
    third = Fraction(1, 3)
    for bits in (64, 128, 256):
        x = Interval.of(third, bits)
        assert x.inf < third < x.sup
        assert x.sup - x.inf <= Fraction(1, 2 ** (bits - 4))
        assert (x * 3).inf <= 1 <= (x * 3).sup
    q = Fraction(2**200 + 1, 2**200)
    x = Interval.of(q, 256)
    assert x.inf == x.sup == q


@pytest.mark.parametrize("prec", [20, 53, 64, 160, 512])
def test_interval_operations_match_iv_at_the_same_precision(monkeypatch, prec):
    # each operation rounds outward exactly as mpmath's iv does at
    # iv.prec = prec, whatever the global iv.prec is meanwhile
    rng = random.Random(prec)

    def draw():
        lo = Fraction(rng.randint(1, 10**40), rng.randint(1, 10**30)) * rng.choice((1, -1))
        return lo, lo + Fraction(rng.randint(0, 10**6), 10**rng.randint(6, 60))

    for _ in range(50):
        (a_lo, a_hi), (b_lo, b_hi) = draw(), draw()
        k = rng.randint(-7, 7)
        x, y = Interval.between(a_lo, a_hi, 1024).at(prec), Interval.between(b_lo, b_hi, 1024).at(prec)
        monkeypatch.setattr(iv, "prec", 53)
        got = [x + y, x - y, x * y, x / y, x**k, -x, abs(x), abs(x).log(), 7 * x - 3, 5 / x]
        with interval_bits(prec):
            u, v = iv.make_mpf(x._mpi_), iv.make_mpf(y._mpi_)
            want = [u + v, u - v, u * v, u / v, u**k, -u, abs(u), iv.log(abs(u)), 7 * u - 3, 5 / u]
        assert [g._mpi_ for g in got] == [w._mpi_ for w in want]
        assert all(g.prec == prec for g in got)

        # a Box's operations round as mpmath's complex intervals do, with an
        # Interval or int operand taken with a zero imaginary part
        (c_lo, c_hi), (d_lo, d_hi) = draw(), draw()
        z = Box((x._mpi_, y._mpi_), prec)
        w = Box((Interval.between(c_lo, c_hi, 1024)._mpi_, Interval.between(d_lo, d_hi, 1024)._mpi_), prec)
        got = [z + w, z - w, z * w, z / w, z + x, z - x, z * x, z / x, x + z, x - z, x * z, x / z]
        got += [z + 7, z - 7, z * 7, z / 7, 7 + z, 7 - z, 7 * z, 7 / z] + [z**k for k in range(-7, 8)]
        with interval_bits(prec):
            u = iv.mpc(iv.make_mpf(x._mpi_), iv.make_mpf(y._mpi_))
            v = iv.make_mpc(w._mpci_)
            r = iv.make_mpf(x._mpi_)
            want = [u + v, u - v, u * v, u / v, u + r, u - r, u * r, u / r, r + u, r - u, r * u, r / u]
            want += [u + 7, u - 7, u * 7, u / 7, 7 + u, 7 - u, 7 * u, 7 / u] + [u**k for k in range(-7, 8)]
            want_abs = abs(u)
        assert [g._mpci_ for g in got] == [w._mpci_ for w in want]
        assert all(isinstance(g, Box) and g.prec == prec for g in got)
        assert abs(z) == Interval(want_abs._mpi_, prec)
        assert (z.real, z.imag) == (x, y)


def test_intervals_of_different_precisions_do_not_mix():
    a, b = Interval.of(1, 64), Interval.of(1, 128)
    with pytest.raises(ValueError, match="do not mix"):
        a + b
    with pytest.raises(ValueError, match="do not mix"):
        b * a
    assert (a + b.at(64))._mpi_ == Interval.of(2, 64)._mpi_
    for other in (iv.mpf(1), 1.0, Fraction(1, 3)):
        with pytest.raises(TypeError):
            a + other
    with pytest.raises(TypeError):
        a**Fraction(1, 2)
    z = Box((a._mpi_, a._mpi_), 64)
    for mixed in (lambda: z + b, lambda: b * z, lambda: z / z.at(128), lambda: 1 - z.at(128) * a):
        with pytest.raises(ValueError, match="do not mix"):
            mixed()
    assert (a + z)._mpci_ == (Interval.of(2, 64)._mpi_, a._mpi_)
    for other in (iv.mpf(1), 1.0, Fraction(1, 3)):
        with pytest.raises(TypeError):
            z + other
    with pytest.raises(TypeError):
        z**Fraction(1, 2)


def test_exact_interval_only_adds_and_multiplies():
    x = Interval.of(3, 64).at(0)
    assert (x * x - 10)._mpi_ == Interval.of(-1, 64)._mpi_
    with pytest.raises(ValueError):
        x / 2
    with pytest.raises(ValueError):
        x**3
    with pytest.raises(ValueError):
        x.log()


def test_ladder_doubles_up_to_the_cap():
    assert list(ladder(64)) == [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
    assert list(ladder(3000)) == [3000, 6000, 12000, 16384]
    assert list(ladder(20000)) == [20000]
