import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import iv
from split_thue import FamilyInstance, RecurrentSequence, cli, units
from split_thue.cubic import CubicRootSet, closed_forms, combine, compute_constants, isolate_roots, xi_terms
from split_thue.precision import (
    Interval,
    PrecisionExhausted,
    UndecidedComparison,
)
from split_thue.solver import solve_bruteforce
from split_thue.units import (
    KL_CONVENTION,
    NotAUnit,
    UnitExponents,
    norm_form,
    regulator,
    ring_mul,
    _log_solve,
    siegel_gamma,
    unit_decompose,
    unit_product,
    verify_xi_bound,
    xi_form,
)


@pytest.fixture(scope="module")
def rs20(fib_pow2, bits):
    return isolate_roots(fib_pow2, 20, bits)


def test_kl_convention_complementary():
    for j, (k, l) in KL_CONVENTION.items():
        assert {j, k, l} == {1, 2, 3}


def test_regulator_pair_independence(rs20):
    r12 = regulator(rs20, (1, 2))
    r23 = regulator(rs20, (2, 3))
    r13 = regulator(rs20, (1, 3))
    vals = [(r.inf + r.sup) / 2 for r in (r12, r23, r13)]
    spread = max(vals) - min(vals)
    assert spread < Fraction(1, 2**40)
    assert (r12.sup - r12.inf) < Fraction(1, 2**40)


def test_regulator_rejects_degenerate_pair(rs20):
    with pytest.raises(ValueError):
        regulator(rs20, (2, 2))


def test_norm_form_on_trivial_solutions(fib_pow2):
    A, B = fib_pow2.terms(9)
    assert norm_form(1, 0, A, B) == 1
    assert norm_form(0, 1, A, B) == -1
    assert norm_form(A, 1, A, B) == -1
    assert norm_form(B, 1, A, B) == -1


def test_unit_decompose_trivial_solutions(rs20, pow2_equal_modulus, bits):
    for rs in (rs20, isolate_roots(pow2_equal_modulus, 20, bits)):
        A, B = rs.A, rs.B
        expected = {
            (1, 0): (0, 0, 1),
            (0, 1): (1, 0, -1),
            (A, 1): (0, 1, -1),
            (B, 1): (-1, -1, -1),
        }
        for (x, y), (b1, b2, sign) in expected.items():
            ue = unit_decompose(x, y, rs)
            assert (ue.b1, ue.b2, ue.sign) == (b1, b2, sign)
            # the verdict is the identity x - lambda y = sign lambda^b1 (lambda - A)^b2
            assert unit_product(b1, b2, A, B) == (sign * x, -sign * y, 0)
            # mirror solution flips only the sign
            um = unit_decompose(-x, -y, rs)
            assert (um.b1, um.b2, um.sign) == (b1, b2, -sign)


def test_unit_decompose_nontrivial_solutions(fib_pow2, bits):
    rs = isolate_roots(fib_pow2, 1, bits)
    expected = {(7, 4): (2, 0, 3, -1), (38, 273): (3, 6, -2, -1)}
    for (x, y), (j, b1, b2, sign) in expected.items():
        ue = unit_decompose(x, y, rs)
        assert (ue.j, ue.b1, ue.b2, ue.sign) == (j, b1, b2, sign)
        um = unit_decompose(-x, -y, rs)
        assert (um.j, um.b1, um.b2, um.sign) == (j, b1, b2, -sign)


@pytest.mark.parametrize("family", ["fib_pow2", "pow2_equal_modulus"])
def test_trivial_solutions_over_many_n(request, bits, family):
    """Type and exponents of every trivial solution with y != 0, at each n
    from 2 to 120: (0, 1) has type 3 and x - lambda y = -lambda, (A, 1) type
    2 and -(lambda - A), (B, 1) type 1 and -lambda^-1 (lambda - A)^-1."""
    fam = request.getfixturevalue(family)
    for n in range(2, 121):
        rs = isolate_roots(fam, n, bits)
        expected = {(0, 1): (3, 1, 0), (rs.A, 1): (2, 0, 1), (rs.B, 1): (1, -1, -1)}
        for (x, y), want in expected.items():
            for sign in (1, -1):
                ue = unit_decompose(sign * x, sign * y, rs)
                assert (ue.j, ue.b1, ue.b2, ue.sign) == want + (-sign,), (n, x, y, sign)


@pytest.mark.parametrize("family", ["fib_pow2", "pow2_equal_modulus"])
def test_mirror_solution_has_the_same_type_and_exponents(request, bits, family):
    """-x + lambda y = -(x - lambda y): the mirror (-x, -y) of a solution has
    its type j and exponents (b1, b2) and the opposite sign, for every
    solution at n = 1 (on fib-pow2 the nontrivial +-(7, 4) and +-(38, 273)
    among them) and at n = 2..60."""
    fam = request.getfixturevalue(family)
    pairs = set()
    for n in range(1, 61):
        rs = isolate_roots(fam, n, bits)
        for s in solve_bruteforce(fam, n, 300 if n == 1 else 50):
            if s.y == 0:
                continue
            ue = unit_decompose(s.x, s.y, rs)
            assert ue.j == _type(s.x, s.y, rs), (n, s)
            assert unit_decompose(-s.x, -s.y, rs) == UnitExponents(ue.j, ue.b1, ue.b2, -ue.sign), (n, s)
            pairs.add((n, s.x, s.y))
    if family == "fib_pow2":
        assert {(1, 7, 4), (1, -7, -4), (1, 38, 273), (1, -38, -273)} <= pairs


def test_unit_decompose_deepest_cancellation(fib_pow2, bits):
    # B - lambda_1 is about 1/(B (B - A)): the form cancels all of B's bits
    # (n = 60 is among the n above)
    rs = isolate_roots(fib_pow2, 300, bits)
    ue = unit_decompose(rs.B, 1, rs)
    assert (ue.b1, ue.b2, ue.sign) == (-1, -1, -1)


def test_unit_inverses(fib_pow2):
    for n in (1, 7, 40):
        A, B = fib_pow2.terms(n)
        for b in ((1, 0), (0, 1), (3, -5)):
            u = unit_product(*b, A, B)
            u_inv = unit_product(-b[0], -b[1], A, B)
            assert ring_mul(u, u_inv, A, B) == (1, 0, 0)


def test_unit_products_agree_with_interval_products(rs20):
    """lambda^b1 (lambda - A)^b2 as a triple in Z[lambda], evaluated at each
    embedding, meets the interval product there."""
    A, B = rs20.A, rs20.B
    products = {}
    for b1 in range(-6, 7):
        for b2 in range(-6, 7):
            c0, c1, c2 = products[b1, b2] = unit_product(b1, b2, A, B)
            for r in rs20.ivs:
                exact = c0 + c1 * r + c2 * r * r
                direct = r**b1 * (r - A) ** b2
                assert exact.inf <= direct.sup
                assert direct.inf <= exact.sup
    # lambda and lambda - A are multiplicatively independent
    assert len(set(products.values())) == len(products)


@pytest.fixture(scope="module")
def rs1(fib_pow2, bits):
    # n = 1 has the nontrivial solutions +-(7, 4) and +-(38, 273)
    return isolate_roots(fib_pow2, 1, bits)


CORRUPTIONS = pytest.mark.parametrize(
    "perturb",
    [lambda v: -v, lambda v: v + 1],
    ids=["inverted-second-unit", "shifted-log"],
)


@CORRUPTIONS
def test_unit_decompose_refuses_wrong_logs(rs1, perturb):
    """With wrong logs the exponent enclosures of a nontrivial solution miss
    its true exponents (the inverted unit puts them around the integer pair
    (b1, -b2)); the exact check then finds no match, and no exponents are
    returned."""
    bad = rs1._replace(log_abs_A=tuple(perturb(v) for v in rs1.log_abs_A))
    for x, y in ((7, 4), (38, 273)):
        for sx, sy in ((x, y), (-x, -y)):
            with pytest.raises(NotAUnit):
                unit_decompose(sx, sy, bad)


@CORRUPTIONS
def test_corrupted_logs_leave_trivial_exponents_unchanged(rs20, perturb):
    # the trivial orbit's exponents and sign come from its exact ring
    # identities, which read no log; its type is read off the logs
    bad = rs20._replace(log_abs_A=tuple(perturb(v) for v in rs20.log_abs_A))
    for x, y in ((0, 1), (rs20.A, 1), (rs20.B, 1)):
        for sx, sy in ((x, y), (-x, -y)):
            got, want = unit_decompose(sx, sy, bad), unit_decompose(sx, sy, rs20)
            assert (got.b1, got.b2, got.sign) == (want.b1, want.b2, want.sign), (sx, sy)


def test_unit_decompose_unbounded_enclosure(rs1):
    # a root interval wide enough to hold x / y makes log|x - lambda_2 y|
    # unbounded
    for x, y in ((7, 4), (38, 273)):
        wide = Interval.between(Fraction(x, y) - 1, Fraction(x, y) + 1, rs1.bits)
        coarse = rs1._replace(ivs=(rs1.ivs[0], wide, rs1.ivs[2]))
        with pytest.raises(PrecisionExhausted):
            unit_decompose(x, y, coarse)


# A_n = 3^n + 2 cos(pi n / 2), a complex secondary pair +-i, with B_n = 4^n;
# and A_n = (n + 2) 2^(n-1), whose c_A(n) = (n + 2) / 2, with B_n = 3^n
COMPLEX_PAIR = (([1, -3, 1, -3], [3, 3, 7]), ([1, -4], [4]))
N_DEPENDENT_CA = (([1, -4, 4], [1, 3]), ([1, -3], [1]))


def _family(request, family):
    if family in ("fib_pow2", "pow2_equal_modulus"):
        return request.getfixturevalue(family)
    a, b = COMPLEX_PAIR if family == "complex_pair" else N_DEPENDENT_CA
    return FamilyInstance.build(*(RecurrentSequence.from_recurrence(*seq) for seq in (a, b)))


def _type(x, y, rs):
    """The index of the smallest exact magnitude |x - lambda_i y| (Intervals
    at precision 0), which must be below the other two; 1 when y = 0.  It
    reads no log and no exponent."""
    if y == 0:
        return 1
    mags = [abs(x - y * r.at(0)) for r in rs.ivs]
    i = min(range(3), key=lambda k: mags[k].sup)
    assert all(mags[i].sup < mags[k].inf for k in range(3) if k != i), (x, y)
    return i + 1


def _log_solved(x, y, rs):
    """The type of (x, y) from its exact magnitudes, and its exponents from
    the 64-bit log solve alone."""
    nf = norm_form(x, y, rs.A, rs.B)
    return UnitExponents(_type(x, y, rs), *_log_solve(x, y, rs, (nf * x, -nf * y, 0)), nf)


@pytest.mark.parametrize("family", ["fib_pow2", "pow2_equal_modulus", "complex_pair", "n_dependent_cA"])
def test_trivial_orbit_exponents_match_the_log_solve(request, bits, family):
    """The exact identities of the trivial orbit give the exponents the log
    solve finds, for (0, 1), (A_n, 1), (B_n, 1) and their mirrors at
    n = 2..60."""
    fam = _family(request, family)
    for n in range(2, 61):
        rs = isolate_roots(fam, n, bits)
        for x, y in ((0, 1), (rs.A, 1), (rs.B, 1)):
            for sx, sy in ((x, y), (-x, -y)):
                assert unit_decompose(sx, sy, rs) == _log_solved(sx, sy, rs), (n, sx, sy)


def test_only_nontrivial_solutions_take_the_log_solve(monkeypatch, fib_pow2, bits):
    # every solution with y != 0 at n = 1 (y_max 300) and n = 2..60: the
    # nontrivial ones are log-solved, once each, and no trivial one is
    solved = []
    log_solve = units._log_solve

    def counting(x, y, *args):
        solved.append((x, y))
        return log_solve(x, y, *args)

    monkeypatch.setattr(units, "_log_solve", counting)
    nontrivial = []
    for n in range(1, 61):
        rs = isolate_roots(fib_pow2, n, bits)
        for s in solve_bruteforce(fib_pow2, n, 300 if n == 1 else 50):
            if s.y != 0:
                unit_decompose(s.x, s.y, rs)
                if s.classification == "nontrivial":
                    nontrivial.append((s.x, s.y))
    assert sorted(nontrivial) == [(-38, -273), (-7, -4), (7, 4), (38, 273)]
    assert solved == nontrivial


def test_unit_decompose_rejects_non_unit(rs20):
    with pytest.raises(NotAUnit):
        unit_decompose(5, 1, rs20)


def test_solution_type(fib_pow2, rs20):
    A, B = rs20.A, rs20.B
    assert unit_decompose(1, 0, rs20).j == 1
    assert unit_decompose(B, 1, rs20).j == 1  # x - lambda1 y smallest near B
    assert unit_decompose(A, 1, rs20).j == 2
    assert unit_decompose(0, 1, rs20).j == 3


def _wide_logs(rs):
    """The root context with each log|lambda_i| widened by +-10^6."""
    return rs._replace(log_abs=tuple(v + Interval.between(-10**6, 10**6, v.prec) for v in rs.log_abs))


def test_overlapping_type_rows_are_undecided(monkeypatch, capsys, rs20, bits):
    # log|lambda_i| too wide to compare: the type of (0, 1), whose rows are
    # log|x - lambda_i y| = log|lambda_i|, is not decided, an overlap never
    # reads as a tie, and verify stops with exit 5 and one stderr line
    undecided = f"solution type of (0, 1) at n=20 not decided at {bits} bits"
    with pytest.raises(UndecidedComparison, match=rf"^{re.escape(undecided)}$"):
        unit_decompose(0, 1, _wide_logs(rs20))
    decompose = units.unit_decompose
    monkeypatch.setattr(units, "unit_decompose", lambda x, y, rs: decompose(x, y, _wide_logs(rs)))
    config = str(Path(__file__).parent.parent / "configs" / "fibonacci_pow2.json")
    argv = ["verify", config, "--n-lo", "20", "--n-hi", "20", "--y-max", "5"]
    assert cli.main(argv) == cli.EXIT_PRECISION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"not certified: UndecidedComparison: {undecided}\n"


def test_siegel_gamma_small_for_solution(rs20):
    A = rs20.A
    gamma, lam = siegel_gamma(A, 1, rs20, 2)
    assert abs(gamma).sup < Fraction(1, 10**10)
    assert abs(lam).sup < Fraction(1, 10**10)


@pytest.mark.parametrize("case_tag", ["strict", "equal_modulus"])
def test_xi_form_vanishing_coefficients_on_trivial_solutions(case_tag):
    # each trivial solution with y != 0 makes its transformed form vanish
    # identically: (B, 1) has type 1 and b = (-1, -1), (A, 1) type 2 and
    # b = (0, 1), (0, 1) type 3 and b = (1, 0)
    n = 15
    for j, b1, b2 in ((1, -1, -1), (2, 0, 1), (3, 1, 0)):
        assert xi_form(j, case_tag, n, b1, b2) == (0, 0, 0, 0, 0), (j, b1, b2)
    # type 1, (1,0): b = (0, 0)
    xi = xi_form(1, "strict", n, 0, 0)
    assert all(c == 0 for c in xi[:3])


def _xi_value(rs, j, b1, b2):
    xi = xi_form(j, rs.fam.case_tag, rs.n, b1, b2)
    return sum((c * v for c, v in zip(xi, rs.coeff_logs) if c), Interval.of(0, rs.work_bits))


@pytest.mark.parametrize("family", ["fib_pow2", "pow2_equal_modulus"])
def test_xi_form_is_the_closed_form_of_siegels_lambda(request, bits, family):
    """xi_j against Lambda_j = b1 log|l_l / l_k| + b2 log|(l_l - A) / (l_k - A)|
    + log|(l_j - l_k) / (l_j - l_l)|, built from the root context's logs and
    root intervals alone: each of its 2|b1| + 2|b2| + 2 logs lies within the
    lemma envelope C n^d2 eps^n of its closed form."""
    fam = request.getfixturevalue(family)
    consts = compute_constants(fam)
    for n in (5, 12, 30, 60):
        rs = isolate_roots(fam, n, bits)
        w = rs.work_bits
        lam = [v.at(w) for v in rs.ivs]
        log_abs = [v.at(w) for v in rs.log_abs]
        log_abs_A = [v.at(w) for v in rs.log_abs_A]
        envelope = consts.C * Fraction(n) ** fam.d2 * consts.eps**n
        for j, (k, l) in KL_CONVENTION.items():
            j_, k_, l_ = j - 1, k - 1, l - 1
            log_diff = abs(lam[j_] - lam[k_]).log() - abs(lam[j_] - lam[l_]).log()
            for b1 in range(-4, 5):
                for b2 in range(-4, 5):
                    lam_j = (
                        b1 * (log_abs[l_] - log_abs[k_])
                        + b2 * (log_abs_A[l_] - log_abs_A[k_])
                        + log_diff
                    )
                    residual = abs(lam_j - _xi_value(rs, j, b1, b2)).sup
                    assert residual <= (2 * abs(b1) + 2 * abs(b2) + 2) * envelope, (n, j, b1, b2)


def test_six_log_errors_reach_the_second_xi_term(fib_pow2, bits):
    """Lambda = b1 log|l_l / l_k| + b2 log|(l_l - A_n) / (l_k - A_n)| +
    log|(l_j - l_k) / (l_j - l_l)| is xi_j when each of its six logs is its
    closed form; with each off by +-env, the worst sign pattern puts
    |Lambda - xi_j| at exactly (2|b1| + 2|b2| + 2) env, which for
    |b1| + |b2| <= 2 is at most xi_terms' t2 = 6 env, and equal to it when
    |b1| + |b2| = 2."""
    n = 20
    rs = isolate_roots(fib_pow2, n, bits)
    env = rs.envelope.sup
    _, t2 = xi_terms(rs.fam_ivs, n, fib_pow2.d1, rs.envelope)
    assert t2.inf <= 6 * rs.envelope.inf and 6 * env <= t2.sup
    # any values of the coefficient logs: the closed forms are linear in them
    coeff = (Fraction(7, 5), Fraction(-3, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11))
    small = [(b1, b2) for b1 in range(-2, 3) for b2 in range(-2, 3) if abs(b1) + abs(b2) <= 2]
    for case_tag in ("strict", "equal_modulus"):
        rows = closed_forms(case_tag == "equal_modulus")
        closed = {name: sum(c * v for c, v in zip((n * r[0], n * r[1], *r[2:]), coeff)) for name, r in rows.items()}
        for j, (k, l) in KL_CONVENTION.items():
            names = (f"l{l}", f"l{k}", f"l{l}-A", f"l{k}-A", f"l{j}-l{k}", f"l{j}-l{l}")
            for b1, b2 in small:
                xi = sum(c * v for c, v in zip(xi_form(j, case_tag, n, b1, b2), coeff))

                def error(signs):
                    ll, lk, llA, lkA, jk, jl = (closed[f"log|{m}|"] + s * env for m, s in zip(names, signs))
                    return abs(b1 * (ll - lk) + b2 * (llA - lkA) + jk - jl - xi)

                assert error((0,) * 6) == 0, (case_tag, j, b1, b2)
                worst = max(map(error, itertools.product((1, -1), repeat=6)))
                size = abs(b1) + abs(b2)
                assert worst == (2 * size + 2) * env, (case_tag, j, b1, b2)
                assert worst <= 6 * env <= t2.sup and (worst == 6 * env) == (size == 2), (case_tag, j, b1, b2)


@pytest.mark.parametrize("family", ["fib_pow2", "pow2_equal_modulus", "complex_pair", "n_dependent_cA"])
def test_root_difference_logs_are_within_the_envelope(request, bits, family):
    # t2 rests on log|lambda_j - lambda_k| lying within the lemma envelope of
    # its closed form too, which none of verify's six log rows checks
    fam = _family(request, family)
    rows = closed_forms(fam.equal_modulus)
    for n in range(2, 61):
        rs = isolate_roots(fam, n, bits)
        la, lb, *coeff = rs.coeff_logs
        lam = [v.at(rs.work_bits) for v in rs.ivs]
        for i, k in ((1, 2), (1, 3), (2, 3)):
            name = f"log|l{i}-l{k}|"
            closed = combine(rows[name][2:], coeff, n * combine(rows[name][:2], (la, lb)))
            residual = abs(abs(lam[i - 1] - lam[k - 1]).log() - closed)
            assert rs.decide(residual, rs.envelope, name), (n, name)


@pytest.mark.parametrize("case_tag", ["strict", "equal_modulus"])
def test_xi_form_coefficients_within_the_exponent_bound(case_tag):
    # bounds.exponent_bound_B covers the form's coefficients by 4 n (B + 1)
    # for a bound B on max(|b1|, |b2|); that exceeds what they need by 4n:
    # the largest is 4 n max(|b1|, |b2|), or n when b1 = b2 = 0
    for n in (1, 2, 7, 60):
        worst = {}
        for j in (1, 2, 3):
            for b1 in range(-6, 7):
                for b2 in range(-6, 7):
                    big = max(abs(b1), abs(b2))
                    cap = 4 * n * (big + 1)
                    coeffs = xi_form(j, case_tag, n, b1, b2)
                    assert all(abs(c) <= cap for c in coeffs), (n, j, b1, b2)
                    worst[big] = max(worst.get(big, 0), *map(abs, coeffs))
        assert worst == {big: n * max(4 * big, 1) for big in range(7)}, n


def test_xi_form_rejects_bad_input():
    with pytest.raises(ValueError):
        xi_form(4, "strict", 3, 0, 0)
    with pytest.raises(ValueError):
        xi_form(1, "other", 3, 0, 0)


def test_xi_bound_on_trivial_solutions(fib_pow2, bits):
    for n in (15, 20, 30):
        rs = isolate_roots(fib_pow2, n, bits)
        A, B = rs.A, rs.B
        for x, y in ((1, 0), (0, 1), (A, 1), (B, 1)):
            rep = verify_xi_bound(unit_decompose(x, y, rs), rs)
            assert rep.ok, (n, x, y, rep.value, rep.bound)


def test_xi_upper_rhs_is_a_lower_end(fib_pow2):
    # a pass compares sup|xi| with a lower bound on the right-hand side: in
    # a coarse context its wider enclosure puts that bound lower
    for n in (15, 60, 150):
        coarse, fine = (isolate_roots(fib_pow2, n, bits).xi_rhs.inf for bits in (64, 512))
        assert 0 < coarse <= fine


def test_undecided_xi_row_is_not_a_failure(monkeypatch, fib_pow2, bits):
    # a right-hand side that straddles |xi_2| of (7, 4) at n = 1 decides
    # nothing: the check stops instead of reporting the bound as failed
    rs = isolate_roots(fib_pow2, 1, bits)
    ue = unit_decompose(7, 4, rs)
    assert ue.j == 2 and 1 < verify_xi_bound(ue, rs).value < 2
    monkeypatch.setattr(CubicRootSet, "xi_rhs", property(lambda rs: Interval.between(1, 2, bits)))
    with pytest.raises(UndecidedComparison, match=r"^\|xi_2\| at n=1 not decided at 256 bits$"):
        verify_xi_bound(ue, rs)


def test_zero_xi_row_passes_without_the_right_hand_side(fib_pow2, bits):
    # the trivial orbit's rows are zero, so xi_j = 0 exactly: the check
    # passes with no log evaluated and no xi_rhs built, and reports the
    # value 0.0 and no bound
    rs = isolate_roots(fib_pow2, 30, bits)
    for x, y in ((0, 1), (rs.A, 1), (rs.B, 1)):
        rep = verify_xi_bound(unit_decompose(x, y, rs), rs)
        assert (rep.value, rep.bound, rep.ok) == (0.0, None, True), (x, y)
    assert "xi_rhs" not in vars(rs) and "coeff_logs" not in vars(rs)


def test_nonzero_xi_row_is_decided_against_the_right_hand_side(monkeypatch, rs1, bits):
    # |xi_2| of (7, 4) at n = 1 lies in (1, 2): a right-hand side below it
    # fails the check, and one above it passes it
    ue = unit_decompose(7, 4, rs1)
    below, above = Interval.between(Fraction(1, 4), Fraction(1, 2), bits), Interval.between(4, 8, bits)
    for rhs, ok in ((below, False), (above, True)):
        monkeypatch.setattr(CubicRootSet, "xi_rhs", property(lambda rs, rhs=rhs: rhs))
        rep = verify_xi_bound(ue, rs1)
        assert (rep.ok, rep.bound) == (ok, float(rhs.inf))
        assert 1 < rep.value < 2


def test_xi_value_matches_computed_form(rs20):
    """The tabulated linear form must agree with the directly computed
    log-combination on a solution's exponents."""
    ue = unit_decompose(rs20.A, 1, rs20)
    assert ue.j == 2
    assert verify_xi_bound(ue, rs20).value < 1e-3


def test_xi_bound_value_does_not_depend_on_the_global_precision(monkeypatch, rs20):
    # |xi_j| is taken at the context's precision, never at the global iv.prec
    ue = UnitExponents(2, 1, 3, 1)
    values = []
    for prec in (20, 53, 300):
        monkeypatch.setattr(iv, "prec", prec)
        values.append(verify_xi_bound(ue, rs20).value)
    assert values[0] == values[1] == values[2]


def test_checks_at_n_read_the_context_precision(fib_pow2):
    # the per-n logs are taken at the context's working precision, and so
    # is |xi_j|: a 64-bit context encloses the same form no tighter
    values = []
    for bits in (64, 512):
        rs = isolate_roots(fib_pow2, 1, bits)
        assert rs.work_bits == bits and rs.bits > bits
        logs = [v for v in rs.coeff_logs if v is not None]
        assert len(logs) == 4 and all(v.prec == bits for v in logs)
        ue = unit_decompose(7, 4, rs)
        assert (ue.j, ue.b1, ue.b2) == (2, 0, 3)
        values.append(verify_xi_bound(ue, rs).value)
    assert values[0] >= values[1] > 0
