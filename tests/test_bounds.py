import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from split_thue import FamilyInstance, RecurrentSequence, bounds
from split_thue.algebraic import AlgebraicNumber, Enclosure
from split_thue.bounds import (
    CHAIN_BITS,
    C_RANK2_CUBIC,
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
from split_thue.cubic import isolate_roots
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


def test_field_degree(fib_pow2):
    assert field_degree(fib_pow2) == 2


def test_compositum_degree():
    sqrt2 = AlgebraicNumber([1, 0, -2], Enclosure(Fraction(1), Fraction(3, 2)))
    sqrt3 = AlgebraicNumber([1, 0, -3], Enclosure(Fraction(3, 2), Fraction(2)))
    one_plus_sqrt2 = AlgebraicNumber([1, -2, -1], Enclosure(Fraction(2), Fraction(3)))
    assert compositum_degree([sqrt2, sqrt3]) == 4
    assert compositum_degree([sqrt2, one_plus_sqrt2]) == 2


def _roots_and_coefficients(fam):
    """Every root and every coefficient value of the family."""
    elements = [fam.alpha, fam.beta]
    for seq in (fam.A, fam.B):
        elements.extend(seq.dominant_coeff.coeffs)
        for root, coeff in seq.secondary:
            elements.append(root)
            elements.extend(coeff.coeffs)
    return elements


def test_field_degree_equals_compositum_of_all_values(fib_pow2, pow2_seq):
    # each coefficient value lies in Q(its root), so joining the coefficients
    # to the roots leaves the degree as it is
    b = RecurrentSequence.from_recurrence([1, -3, 1, -3], [3, 3, 7])  # 3^n + i^n + (-i)^n
    pow2_complex = FamilyInstance.build(pow2_seq, b)
    for fam in (fib_pow2, pow2_complex):
        assert field_degree(fam) == 2
        assert compositum_degree(_roots_and_coefficients(fam)) == 2


def test_field_degree_with_irrational_alpha_and_complex_pair(fib_seq, cold_kernel):
    # Q(sqrt 5, i): joining -i runs four shifts, each a degree-8 composed
    # sum with complex roots to isolate; about 0.3 s
    b = RecurrentSequence.from_recurrence([1, -3, 1, -3], [3, 3, 7])  # 3^n + i^n + (-i)^n
    fam = FamilyInstance.build(fib_seq, b)
    start = time.perf_counter()
    assert field_degree(fam) == 4
    assert time.perf_counter() - start < 3


def test_field_degree_makes_few_resultants(fib_pow2, monkeypatch):
    # beta = 2 is rational and psi joins Q(alpha) with (2-1)(2-1)+1 = 2 shifts
    calls = []
    arith = bounds.field_arith

    def counting(*args, **kwargs):
        calls.append(args[2])
        return arith(*args, **kwargs)

    monkeypatch.setattr(bounds, "field_arith", counting)
    assert field_degree(fib_pow2) == 2
    assert len(calls) == 2


def test_log_coeff_bound_positive(fib_pow2, fib_pow2_consts):
    assert ChainProbe(fib_pow2, fib_pow2_consts, 10, CHAIN_BITS).m > 0


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


def test_logy_lower_altunit(fib_pow2, fib_pow2_consts):
    # vacuous at small n, then exponentially growing
    assert log_logy_lower_altunit(fib_pow2, fib_pow2_consts, 5, CHAIN_BITS) is None
    v600 = log_logy_lower_altunit(fib_pow2, fib_pow2_consts, 600, CHAIN_BITS)
    v700 = log_logy_lower_altunit(fib_pow2, fib_pow2_consts, 700, CHAIN_BITS)
    assert 0 < v600 < v700


def test_compute_n0_small_cap_reports_no_crossing(fib_pow2, fib_pow2_consts):
    res = compute_n0(fib_pow2, fib_pow2_consts, n_cap=10**4)
    assert res.no_crossing and res.n0 is None


def test_compute_n0_finite_at_large_cap(fib_pow2, fib_pow2_consts):
    res = compute_n0(fib_pow2, fib_pow2_consts, n_cap=10**25)
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
    res = compute_n0(fib_pow2, fib_pow2_consts, n_cap=10**19)
    assert len(res.trace) == 152
    assert calls == {"envelope": 0, "height": 0}


def test_compute_n0_evaluates_the_xi_branches_once_per_n(
    fib_pow2, fib_pow2_consts, monkeypatch
):
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
    res = compute_n0(fib_pow2, fib_pow2_consts, n_cap=10**19)
    assert len(res.trace) == 152
    assert len(probes) == len({p.n for p in probes}) == len({rep.n for rep in res.trace}) == 80
    assert len(regulators) == 80
    j2 = [rep for rep in res.trace if rep.branch == "xi-j2"]
    j3 = [rep for rep in res.trace if rep.branch == "xi-j3"]
    assert len(j3) == len(j2) == 62
    for a, b in zip(j2, j3):
        assert replace(b, branch="xi-j2") == a
    assert len(lower_bounds) == len({rep.n for rep in j2 if rep.baker_lower_exponent is not None})
