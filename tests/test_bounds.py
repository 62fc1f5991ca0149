import math
import signal
import time
from fractions import Fraction

import pytest

from split_thue import FamilyInstance, RecurrentSequence, bounds
from split_thue.algebraic import AlgebraicNumber, Enclosure
from split_thue.bounds import (
    CHAIN_BITS,
    C_RANK2_CUBIC,
    BoundReport,
    ChainProbe,
    baker_constant,
    baker_lower,
    bugy_bound,
    bugy_constant,
    compositum_degree,
    compute_n0,
    exponent_bound_B,
    field_degree,
    log_logy_lower_altunit,
    logy_upper,
    regulator_bounds,
    xi_heights,
    xi_upper_log,
)
from split_thue import sequences
from split_thue.algebraic import AlgebraicNumber
from split_thue.cubic import compute_constants, isolate_roots
from split_thue.precision import SplitThueError
from split_thue.units import regulator


def test_bugy_constant_rank2_cubic_exact():
    # 3^(2+27) * 3^(7*2+19) * 3^(2*3+6*2+14) = 3^29 * 3^33 * 3^32 = 3^94
    assert bugy_constant(2, 3) == 3**94
    assert C_RANK2_CUBIC == 3**94


def test_bugy_bound_micro_instance():
    # R = 1, log H = 0: bound is exactly C * 1 * 1 * (1 + 0 + 1) = 2 * 3^94
    val = bugy_bound(Fraction(1), Fraction(0), CHAIN_BITS)
    assert val == 2 * 3**94


def test_bugy_bound_monotone():
    a = bugy_bound(Fraction(10), Fraction(5), CHAIN_BITS)
    b = bugy_bound(Fraction(20), Fraction(5), CHAIN_BITS)
    assert b > a
    with pytest.raises(ValueError):
        bugy_bound(Fraction(0), Fraction(1), CHAIN_BITS)


def test_baker_constant_micro_instance():
    # t = 1, D = 1: 18 * 2! * 1 * 32^3 = 1179648
    assert baker_constant(1, 1) == 18 * 2 * 32**3 == 1179648


def test_baker_lower_micro_instance():
    # t=1, D=1, h=1, B=e (log B = 1): -K log(2) * 1 * 1
    val = baker_lower([Fraction(1)], 1, Fraction(1), CHAIN_BITS)
    expected = -1179648 * math.log(2)
    assert abs(float(val) - expected) < 1e-9 * abs(expected)


def test_baker_lower_enforces_height_floor():
    with pytest.raises(SplitThueError):
        baker_lower([Fraction(1, 100)], 1, Fraction(1), CHAIN_BITS)
    with pytest.raises(ValueError):
        baker_lower([], 1, Fraction(1), CHAIN_BITS)
    # at the edge: a height of exactly 0.16 / D passes, a millionth below is refused
    for D in (1, 3):
        floor = Fraction(16, 100) / D
        assert baker_lower([floor, Fraction(1)], D, Fraction(1), CHAIN_BITS) < 0
        with pytest.raises(SplitThueError, match="below its floor"):
            baker_lower([floor * (1 - Fraction(1, 10**6)), Fraction(1)], D, Fraction(1), CHAIN_BITS)


def test_field_degree(fib_pow2):
    assert field_degree(fib_pow2) == 2


def test_compositum_degree():
    sqrt2 = AlgebraicNumber([1, 0, -2], Enclosure(Fraction(1), Fraction(3, 2)))
    sqrt3 = AlgebraicNumber([1, 0, -3], Enclosure(Fraction(3, 2), Fraction(2)))
    one_plus_sqrt2 = AlgebraicNumber([1, -2, -1], Enclosure(Fraction(2), Fraction(3)))
    assert compositum_degree([sqrt2, sqrt3]) == 4
    assert compositum_degree([sqrt2, one_plus_sqrt2]) == 2


def test_coefficients_add_nothing_to_q_alpha_beta(fib_pow2, pow2_equal_modulus, pow2_seq):
    # the form's arguments alpha, beta, c_A, c_B (and c_B - c_A) lie in
    # Q(alpha, beta): joining every coefficient of c_A and c_B to alpha and
    # beta leaves the degree as it is
    complex_pair = FamilyInstance.build(
        RecurrentSequence.from_recurrence([1, -3, 1, -3], [3, 3, 7]), pow2_seq  # 3^n + i^n + (-i)^n
    )
    n_dependent_cA = FamilyInstance.build(
        RecurrentSequence.from_recurrence([1, -4, 4], [1, 3]),  # (n + 2) 2^(n-1)
        RecurrentSequence.from_recurrence([1, -3], [1]),
    )
    for fam, D in ((fib_pow2, 2), (pow2_equal_modulus, 1), (complex_pair, 1), (n_dependent_cA, 1)):
        coeffs = [*fam.A.dominant_coeff.coeffs, *fam.B.dominant_coeff.coeffs]
        assert field_degree(fam) == D
        assert compositum_degree([fam.alpha, fam.beta] + coeffs) == D


def test_field_degree_with_irrational_alpha_and_complex_pair(fib_seq, cold_kernel):
    # Q(sqrt 5, 3): the complex pair i, -i enters only the error envelope, so
    # it is not joined, and D needs no field arithmetic
    b = RecurrentSequence.from_recurrence([1, -3, 1, -3], [3, 3, 7])  # 3^n + i^n + (-i)^n
    fam = FamilyInstance.build(fib_seq, b)
    start = time.perf_counter()
    assert field_degree(fam) == 2
    assert time.perf_counter() - start < 3


def test_field_degree_makes_few_resultants(fib_pow2, pow2_equal_modulus, fib_seq, pow2_seq, monkeypatch):
    # a rational alpha or beta, or a beta equal to alpha, needs no field
    # arithmetic, whether the secondary roots are real, complex or shared by
    # A and B
    calls = []
    arith = bounds.field_arith

    def counting(*args, **kwargs):
        calls.append(args[2])
        return arith(*args, **kwargs)

    monkeypatch.setattr(bounds, "field_arith", counting)
    complex_pair = FamilyInstance.build(
        RecurrentSequence.from_recurrence([1, -3, 1, -3], [3, 3, 7]), pow2_seq
    )
    shared = FamilyInstance.build(fib_seq, RecurrentSequence.from_recurrence([1, -1, -1], [3, 5]))
    for fam, D in ((fib_pow2, 2), (pow2_equal_modulus, 1), (complex_pair, 1), (shared, 2)):
        assert field_degree(fam) == D
    assert calls == []


@pytest.mark.parametrize("a, b", [
    (([1, 3, 1], [8, 2]), ([1, 4, -5, 1], [-2, 0, 7])),
    (([1, 2, -3, 4], [-3, 4, -5]), ([1, -4, 1], [-2, -2])),
], ids=["quadratic-A", "cubic-A"])
def test_field_degree_of_a_cubic_next_to_a_quadratic(a, b):
    # an S3 cubic root and a quadratic one generate a field of degree 6, one
    # composed sum of degree 6; joining the secondary roots as well ran for
    # minutes.  The alarm fails a regression instead of hanging the suite.
    fam = FamilyInstance.build(RecurrentSequence.from_recurrence(*a), RecurrentSequence.from_recurrence(*b))

    def timeout(signum, frame):
        raise TimeoutError("field_degree ran for more than 30 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        assert field_degree(fam) == 6
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_log_coeff_bound_positive(fib_pow2):
    assert ChainProbe(fib_pow2, 10).m > 0


def test_regulator_bounds_bracket_true_regulator(fib_pow2, fib_pow2_consts, bits):
    """Closed-form regulator enclosure must contain the regulator computed
    from certified root isolation."""
    for n in (20, 40):
        lo, up = regulator_bounds(fib_pow2, fib_pow2_consts, n, CHAIN_BITS)
        rs = isolate_roots(fib_pow2, n, bits)
        r = regulator(rs, (1, 2))
        assert lo <= r.inf and r.sup <= up
        assert lo > 0


def test_logy_upper_scales_like_n4(fib_pow2, fib_pow2_consts):
    u1 = logy_upper(fib_pow2, fib_pow2_consts, 100, CHAIN_BITS)
    u2 = logy_upper(fib_pow2, fib_pow2_consts, 200, CHAIN_BITS)
    ratio = float(u2.value / u1.value)
    assert 8 < ratio < 32  # between n^3 and n^5 growth


def test_xi_heights_strict_case(fib_pow2, bits):
    hs = xi_heights(fib_pow2, 20, 2, bits)
    labels = [lab for lab, _ in hs]
    assert labels == ["alpha", "beta", "cA", "cB"]
    floor = Fraction(16, 100) / 2
    assert all(h >= floor for _, h in hs)


def test_exponent_bound_B_positive(fib_pow2, fib_pow2_consts):
    lo, _ = regulator_bounds(fib_pow2, fib_pow2_consts, 50, CHAIN_BITS)
    ly = logy_upper(fib_pow2, fib_pow2_consts, 50, CHAIN_BITS)
    bound = exponent_bound_B(fib_pow2, fib_pow2_consts, 50, ly.value, lo, CHAIN_BITS)
    assert bound > 0
    with pytest.raises(ValueError):
        exponent_bound_B(fib_pow2, fib_pow2_consts, 50, ly.value, Fraction(0), CHAIN_BITS)


def test_xi_upper_log_decreases(fib_pow2, fib_pow2_consts):
    v100 = xi_upper_log(fib_pow2, fib_pow2_consts, 100, CHAIN_BITS)
    v200 = xi_upper_log(fib_pow2, fib_pow2_consts, 200, CHAIN_BITS)
    assert v200 < v100 < 0


def test_exponent_bound_is_its_closed_form(fib_pow2):
    # 4 n (b + 1) with b = 2 E (logy + M) / R_low + 1, E = n (log|alpha| +
    # log|beta|) + 2m + e and M = n log|beta| + m + e; at this small logy / R_low
    # b is near 1, so the outer + 1 is about half the bound
    p = ChainProbe(fib_pow2, 60)
    logy, r_low = Fraction(1), Fraction(10**6)
    (la, lb), n = p.fam_ivs.log_ab, p.n
    E = n * (la.sup + lb.sup) + 2 * p.m + p.e
    M = n * lb.sup + p.m + p.e
    closed = 4 * n * (2 * E * (logy + M) / r_low + 2)
    assert closed <= p.exponent_bound(logy, r_low) <= closed * (1 + Fraction(1, 2**100))
    assert 400 < closed < 500


def test_branch_verdict_at_an_exact_tie_is_no_contradiction(fib_pow2):
    # only lower > upper contradicts: a tie, or no lower bound yet, does not
    tie = Fraction(-7, 3)
    assert BoundReport(8, "xi-j2", 1.0, 2.0, tie, tie).verdict == "no-contradiction"
    assert BoundReport(8, "xi-j2", 1.0, 2.0, None, tie).verdict == "no-contradiction"
    assert BoundReport(8, "xi-j2", 1.0, 2.0, tie + Fraction(1, 10**40), tie).verdict == "contradiction"
    # the branch report takes its verdict from BoundReport: a probe whose two
    # xi bounds tie does not contradict
    probe = ChainProbe(fib_pow2, 60, 2)
    vars(probe)["xi_lower"] = probe.xi_upper
    assert bounds._branch_report(probe, "xi-j2").verdict == "no-contradiction"


def test_chain_refuses_zero_decay_ratio(pow2_seq):
    # A_n = 2^(n+1), B_n = 3 2^(n+1): equal moduli and no secondary root;
    # the probe's one lookup of the family's values refuses it, so every value
    # that reads eps does, whichever a caller reads first
    fam = FamilyInstance.build(pow2_seq, RecurrentSequence.from_recurrence([1, -2], [6]))
    assert compute_constants(fam).eps == 0
    for name in ("fam_ivs", "e", "xi_upper", "regulator"):
        with pytest.raises(SplitThueError, match="no certified decay ratio"):
            getattr(ChainProbe(fam, 10), name)


def test_logy_lower_altunit(fib_pow2, fib_pow2_consts):
    # vacuous at small n, then exponentially growing
    assert log_logy_lower_altunit(fib_pow2, fib_pow2_consts, 5, CHAIN_BITS) is None
    v600 = log_logy_lower_altunit(fib_pow2, fib_pow2_consts, 600, CHAIN_BITS)
    v700 = log_logy_lower_altunit(fib_pow2, fib_pow2_consts, 700, CHAIN_BITS)
    assert 0 < v600 < v700


def test_compute_n0_small_cap_reports_no_crossing(fib_pow2):
    res = compute_n0(fib_pow2, n_cap=10**4)
    assert res.no_crossing and res.n0 is None


def _altunit_ns(res):
    return [rep.n for rep in res.trace if rep.branch == "altunit-j1"]


def test_compute_n0_probes_the_cap_when_the_doubling_passes_it(fib_pow2):
    # 1024 > 1000: the cap itself contradicts and the bisection starts there;
    # the xi branches cross far beyond the cap
    doubling = [8, 16, 32, 64, 128, 256, 512]
    res = compute_n0(fib_pow2, n_cap=1000)
    assert res.branch_thresholds == {"xi-j2": None, "xi-j3": None, "altunit-j1": 568}
    assert res.no_crossing and res.n0 is None
    assert _altunit_ns(res)[:12] == doubling + [1000, 756, 634, 573, 542]
    # below the threshold the cap does not contradict, and the branch gives up
    res = compute_n0(fib_pow2, n_cap=567)
    assert res.branch_thresholds["altunit-j1"] is None
    assert _altunit_ns(res) == doubling + [567]
    # at the threshold the sanity window 568..578 passes the cap
    res = compute_n0(fib_pow2, n_cap=568)
    assert res.branch_thresholds["altunit-j1"] == 568
    assert _altunit_ns(res)[-11:] == list(range(568, 579))


def test_compute_n0_bisects_below_its_first_probe():
    # A = 3^n, B = 10^(9n): altunit-j1 already contradicts at N_START = 8, and
    # first contradicts at n = 6, which a search from 0 finds
    fam = FamilyInstance.build(
        RecurrentSequence.from_recurrence([1, -3], [1]),
        RecurrentSequence.from_recurrence([1, -1000000000], [1]),
    )
    res = compute_n0(fam, n_cap=10**6)
    assert res.branch_thresholds["altunit-j1"] == 6
    assert _altunit_ns(res)[:4] == [8, 4, 6, 5]


def test_compute_n0_finite_at_large_cap(fib_pow2):
    res = compute_n0(fib_pow2, n_cap=10**25)
    assert not res.no_crossing
    assert res.n0 == 59362923407947902848
    assert set(res.branch_thresholds) == {"xi-j2", "xi-j3", "altunit-j1"}
    assert res.branch_thresholds["altunit-j1"] == 568


def test_compute_n0_builds_no_family_constants(fib_pow2, fib_pow2_consts, monkeypatch):
    # the envelopes and heights do not depend on n: they are built with the
    # constants, and a full run at cap 10**19 (152 probes) builds none again
    calls = {"envelope": 0, "height": 0}

    def counting(method, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)
        return wrapper

    poly = sequences.CoefficientPolynomial
    for name in ("abs_coeff_sum_upper", "abs_lower_inf"):
        monkeypatch.setattr(poly, name, counting(getattr(poly, name), "envelope"))
    monkeypatch.setattr(AlgebraicNumber, "height", counting(AlgebraicNumber.height, "height"))
    res = compute_n0(fib_pow2, n_cap=10**19)
    assert len(res.trace) == 152
    assert calls == {"envelope": 0, "height": 0}


def test_compute_n0_evaluates_the_xi_branches_once_per_n(fib_pow2, monkeypatch):
    # every branch at n reads one probe, and xi-j2 and xi-j3 read one lower
    # bound: one probe, one regulator and one Baker bound per distinct n
    probes, regulators, lower_bounds = [], [], []

    def counting(fn, calls):
        def wrapper(*args):
            result = fn(*args)
            calls.append(result)
            return result
        return wrapper

    monkeypatch.setattr(bounds, "ChainProbe", counting(bounds.ChainProbe, probes))
    monkeypatch.setattr(bounds, "closed_forms", counting(bounds.closed_forms, regulators))
    monkeypatch.setattr(bounds, "baker_lower", counting(bounds.baker_lower, lower_bounds))
    res = compute_n0(fib_pow2, n_cap=10**19)
    assert len(res.trace) == 152
    assert len(probes) == len({p.n for p in probes}) == len({rep.n for rep in res.trace}) == 80
    assert len(regulators) == 80
    j2 = [rep for rep in res.trace if rep.branch == "xi-j2"]
    j3 = [rep for rep in res.trace if rep.branch == "xi-j3"]
    assert len(j3) == len(j2) == 62
    for a, b in zip(j2, j3):
        assert BoundReport(b.n, "xi-j2", b.R_upper, b.logy_upper, b.baker_lower_exponent, b.xi_upper_log) == a
    assert len(lower_bounds) == len({rep.n for rep in j2 if rep.baker_lower_exponent is not None})
