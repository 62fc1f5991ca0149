from fractions import Fraction

import mpmath
import pytest

from split_thue import FamilyInstance, RecurrentSequence, cubic
from split_thue.bounds import _CLAMP_BITS, CHAIN_BITS, ChainProbe
from split_thue.cubic import (
    AnchorSignFailure,
    _bracket_around,
    compute_constants,
    cubic_coeffs,
    envelope,
    family_ivs,
    isolate_roots,
    log_closed_forms,
    verify_log_approx,
    verify_root_approx,
    verify_root_diff,
    xi_terms,
)
from split_thue.precision import Interval, UndecidedComparison
from split_thue.solver import verify_family


def test_cubic_coeffs():
    assert cubic_coeffs(3, 8) == (1, -11, 24, -1)


def test_bracket_around_rejects_no_sign_change():
    with pytest.raises(AnchorSignFailure):
        _bracket_around((1, 0, -2), Fraction(5, 2), Fraction(1, 2))


def test_isolate_roots_disjoint_and_ordered(fib_pow2, bits):
    rs = isolate_roots(fib_pow2, 6, bits)
    l1, l2, l3 = rs.lambda1, rs.lambda2, rs.lambda3
    assert l3.hi < l2.lo < l2.hi < l1.lo
    A, B = fib_pow2.terms(6)
    assert abs(l1.mid() - B) < 1
    assert abs(l2.mid() - A) < 1
    assert abs(l3.mid() - Fraction(1, A * B)) < Fraction(1, 100)


@pytest.mark.parametrize("family", ["fib_pow2", "pow2_equal_modulus"])
@pytest.mark.parametrize("n", [5, 30, 60, 150])
def test_logs_at_lambda3_follow_from_the_norms(request, bits, family, n):
    """lambda1 lambda2 lambda3 = 1 and prod (lambda_i - A_n) = 1: the logs at
    lambda3, derived from the other two, meet the logs taken directly from
    lambda3's interval; every log of the context is at its working
    precision."""
    rs = isolate_roots(request.getfixturevalue(family), n, bits)
    lam3 = rs.ivs[2]
    for derived, direct in zip((rs.log_abs[2], rs.log_abs_A[2]), (abs(lam3).log(), abs(lam3 - rs.A).log())):
        assert derived.inf <= direct.sup and direct.inf <= derived.sup
    logs = rs.log_abs + rs.log_abs_A + tuple(v for v in rs.coeff_logs if v is not None)
    assert all(v.prec == rs.work_bits for v in logs)


def test_coeff_logs_of_an_n_dependent_coefficient(bits):
    """A_n = (n + 2) 2^(n-1) has c_A(n) = (n + 2)/2, whose log is taken at
    each n; B_n = 3^n has the constant c_B = 1, whose log is taken once per
    family and precision."""
    fam = FamilyInstance.build(
        RecurrentSequence.from_recurrence([1, -4, 4], [1, 3]),
        RecurrentSequence.from_recurrence([1, -3], [1]),
    )
    contexts = [isolate_roots(fam, n, bits) for n in (5, 6)]
    for rs in contexts:
        _, _, lcA, lcB, ldiff = rs.coeff_logs
        exact = Interval.of(Fraction(rs.n + 2, 2), bits).log()
        assert lcA.inf <= exact.sup and exact.inf <= lcA.sup
        assert lcB.inf <= 0 <= lcB.sup and ldiff is None
    assert contexts[0].coeff_logs[3] is contexts[1].coeff_logs[3]


def test_isolate_roots_against_independent_solver(fib_pow2, bits):
    """50-digit numerical cubic solver as an oracle for the enclosures."""
    for n in (5, 12, 20):
        rs = isolate_roots(fib_pow2, n, bits)
        with mpmath.workdps(60):
            roots = sorted(
                mpmath.polyroots([mpmath.mpf(c) for c in rs.coeffs], maxsteps=200, extraprec=120)
            )
            for oracle, mine in zip(roots, (rs.lambda3, rs.lambda2, rs.lambda1)):
                mid = mpmath.mpf(mine.mid().numerator) / mpmath.mpf(mine.mid().denominator)
                assert abs(mid - oracle) < mpmath.mpf(10) ** -40


def test_isolate_roots_below_threshold_raises(bits):
    # adjacent Fibonacci-type pair: at n = 1 (A, B) = (2, 3) and the
    # smallest root lies outside its 1/(AB) anchor window
    from split_thue import FamilyInstance, RecurrentSequence

    a = RecurrentSequence.from_recurrence([1, -1, -1], [1, 2])
    b = RecurrentSequence.from_recurrence([1, -1, -1], [2, 3])
    fam = FamilyInstance.build(a, b)
    with pytest.raises(AnchorSignFailure):
        isolate_roots(fam, 1, bits)


def test_compute_constants_values(fib_pow2_consts):
    c = fib_pow2_consts
    # eps = phi/2, C = 5 phi/2 * 2, c5 = min coefficient lower / 4, c6 = 2(U+1)
    assert abs(float(c.eps) - 0.8090169943749475) < 1e-12
    assert abs(float(c.C) - 5.854101966249685) < 1e-9
    assert abs(float(c.c5) - 0.2927050983124842) < 1e-9
    assert abs(float(c.c6) - 8.683281572999748) < 1e-9
    assert 0 < c.eps < 1 and c.c5 <= c.c6


def test_verify_root_approx(fib_pow2, bits):
    rs = isolate_roots(fib_pow2, 8, bits)
    rep = verify_root_approx(rs)
    assert rep.all_pass
    assert {e.name for e in rep.entries} == {
        "lambda1-near-B",
        "lambda2-near-A",
        "lambda2-second-order",
        "lambda3-near-inv-AB",
    }


def test_verify_log_approx(fib_pow2, bits):
    rs = isolate_roots(fib_pow2, 10, bits)
    rep = verify_log_approx(rs)
    assert rep.all_pass
    assert len(rep.entries) == 6
    for e in rep.entries:
        assert e.ratio is not None and e.ratio <= 6.0


def test_verify_root_diff(fib_pow2, bits):
    rs = isolate_roots(fib_pow2, 10, bits)
    rep = verify_root_diff(rs)
    assert rep.all_pass


def test_find_threshold(fib_pow2, bits):
    # the lemma threshold of this family is n = 1: every lemma holds for n = 1..8
    for n in range(1, 9):
        rs = isolate_roots(fib_pow2, n, bits)
        assert verify_root_approx(rs).all_pass
        assert verify_log_approx(rs).all_pass
        assert verify_root_diff(rs).all_pass


def test_family_ivs_once_per_family_and_precision(fib_seq, pow2_seq):
    # two working precisions in one process compute the family's n-free
    # values twice, and a repeat of the first computes nothing new
    fam = FamilyInstance.build(fib_seq, pow2_seq)
    runs, computed = [], []
    for bits in (256, 512, 256):
        before = family_ivs.cache_info().misses
        runs.append(verify_family(fam, 2, 8, 50, bits))
        computed.append(family_ivs.cache_info().misses - before)
    assert computed == [1, 1, 0]
    assert runs[0] == runs[2]


def test_undecided_log_row_is_not_a_failure(monkeypatch, fib_pow2, bits):
    # an envelope that straddles the residual of log|l1| decides nothing:
    # the check stops instead of reporting the lemma as failed
    rs = isolate_roots(fib_pow2, 10, bits)
    residual = abs(rs.log_abs[0] - log_closed_forms(rs)["log|l1|"])
    monkeypatch.setattr(cubic, "envelope", lambda f, n, d2: residual)
    with pytest.raises(UndecidedComparison, match=r"^log\|l1\| at n=10 not decided at 256 bits$"):
        verify_log_approx(rs)


@pytest.fixture(scope="module")
def n_dependent_cA():
    # A_n = (n+2) 2^(n-1), B_n = 3^n: c_A(n) = (n+2)/2, so d2 = 1
    A = RecurrentSequence.from_recurrence([1, -4, 4], [1, 3])
    B = RecurrentSequence.from_recurrence([1, -3], [1])
    return FamilyInstance.build(A, B)


@pytest.mark.parametrize("family", ["fib_pow2", "pow2_equal_modulus", "n_dependent_cA"])
def test_envelope_encloses_the_exact_bound(request, family):
    # the one envelope C n^d2 eps^n encloses its exact rational value at
    # every precision, and the chain's e is its clamped upper end at 160 bits
    fam = request.getfixturevalue(family)
    consts = compute_constants(fam)
    assert fam.d2 == (1 if family == "n_dependent_cA" else 0)
    for n in (1, 2, 60, 150, 1000):
        exact = consts.C * Fraction(n) ** fam.d2 * consts.eps**n
        for bits in (64, 160, 512):
            env = envelope(family_ivs(fam, bits), n, fam.d2)
            assert env.inf <= exact <= env.sup, (n, bits)
        sup = envelope(family_ivs(fam, CHAIN_BITS), n, fam.d2).sup
        tiny = sup < Fraction(1, 2 ** (_CLAMP_BITS + 1))
        assert ChainProbe(fam, n).e == (Fraction(1, 2**_CLAMP_BITS) if tiny else sup), n


@pytest.fixture(scope="module")
def both_coefficients_grow():
    # A_n = (n+2) 2^(n-1), B_n = (n+1) 3^n: c_A and c_B both of degree 1, so d1 = 1
    A = RecurrentSequence.from_recurrence([1, -4, 4], [1, 3])
    B = RecurrentSequence.from_recurrence([1, -6, 9], [1, 6])
    return FamilyInstance.build(A, B)


@pytest.mark.parametrize("family", ["fib_pow2", "both_coefficients_grow"])
@pytest.mark.parametrize("prec", [512, CHAIN_BITS])
def test_xi_terms_enclose_the_bound_recomputed_from_the_constants(request, family, prec):
    # t1 = 4 / (c5^3 n^d1 (|alpha|^2 |beta|)^n) and t2 = 6 C n^d2 eps^n at
    # n = 60, recomputed with Fractions: the constants exactly, and |alpha|
    # and |beta| from 2048-bit enclosures, far narrower than the terms'
    fam, n = request.getfixturevalue(family), 60
    assert fam.d1 == (1 if family == "both_coefficients_grow" else 0)
    consts, f = compute_constants(fam), family_ivs(fam, prec)
    t1, t2 = xi_terms(f, n, fam.d1, envelope(f, n, fam.d2))
    a, b = (abs(r.approx(2048)) for r in (fam.alpha, fam.beta))
    scale = 4 / (consts.c5**3 * Fraction(n) ** fam.d1)
    assert t1.inf <= scale / (a.sup**2 * b.sup) ** n <= scale / (a.inf**2 * b.inf) ** n <= t1.sup
    assert t2.inf <= 6 * consts.C * Fraction(n) ** fam.d2 * consts.eps**n <= t2.sup


@pytest.mark.parametrize("family", ["fib_pow2", "both_coefficients_grow"])
def test_verify_and_the_chain_read_one_xi_bound(request, family):
    # log xi_rhs at 512 bits lies in [xi_upper - log 2, xi_upper]: the chain's
    # max(log t1, log t2) + log 2 bounds the t1 + t2 that verify decides with.
    # The lower end allows the chain's rounding at 160 bits: when t1 is below
    # t2 by more than 2^-160, log xi_rhs is log t2 to within it
    fam = request.getfixturevalue(family)
    log_rhs = isolate_roots(fam, 60, 512).xi_rhs.log()
    upper = ChainProbe(fam, 60).xi_upper
    lower = upper - Interval.of(2, CHAIN_BITS).log().sup - abs(upper) / 2**150
    assert lower <= log_rhs.inf <= log_rhs.sup <= upper
