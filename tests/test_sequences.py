import time
from fractions import Fraction
from itertools import islice

import pytest

from split_thue.algebraic import AlgebraicNumber
from split_thue.cubic import compute_constants, family_ivs
from split_thue.sequences import (
    CoefficientPolynomial,
    FamilyInstance,
    HypothesisViolated,
    InconsistentModel,
    RecurrentSequence,
    check_hypotheses,
    sequence_from_json,
)


def checked_terms(seq, count):
    """The terms n < count by the recursion, each held by the explicit
    formula's enclosure."""
    terms = list(islice(seq.iter_terms(), count))
    for n, value in enumerate(terms):
        enc = seq.explicit_iv(n)
        assert enc.inf <= value <= enc.sup
    return terms


def test_recursion_matches_explicit(fib_seq):
    want = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert checked_terms(fib_seq, 10) == want


def test_power_sequence(pow2_seq):
    assert checked_terms(pow2_seq, 6) == [2, 4, 8, 16, 32, 64]
    assert pow2_seq.dominant_root.as_fraction() == 2


def test_dominant_root_of_fibonacci(fib_seq):
    r = fib_seq.dominant_root
    assert r.min_poly == (1, -1, -1)
    enc = r.approx(64)
    assert enc.inf > Fraction(8, 5) and enc.sup < Fraction(13, 8)


def test_repeated_root_coefficient_polynomial():
    # a_n = n 3^n has characteristic polynomial (x - 3)^2
    seq = RecurrentSequence.from_recurrence([1, -6, 9], [0, 3])
    assert checked_terms(seq, 5) == [0, 3, 18, 81, 324]
    assert seq.dominant_coeff.degree == 1


def test_steep_dominant_coefficient_lower_bound():
    # a_n = (10^12 + n/2) 2^n: the leading term of c(n) = 10^12 + n/2 takes
    # over only near n = 4 * 10^12, and the prefix must not be scanned
    seq = RecurrentSequence.from_recurrence([1, -4, 4], [10**12, 2 * 10**12 + 1])
    start = time.perf_counter()
    low = seq.dominant_coeff.abs_lower_inf(2, 128)
    assert time.perf_counter() - start < 2
    assert 10**12 < low <= 10**12 + 1


def _rational_poly(*coeffs):
    return CoefficientPolynomial(tuple(AlgebraicNumber.from_rational(c) for c in coeffs))


def test_abs_lower_inf_finds_an_interior_minimum():
    # (n - 500.5)^2 is smallest, 1/4, at n = 500 and 501, far inside [2, n_star]
    low = _rational_poly(Fraction(1002001, 4), -1001, 1).abs_lower_inf(2, 128)
    assert Fraction(1, 4) - Fraction(1, 2**100) < low <= Fraction(1, 4)


def test_abs_lower_inf_rejects_an_integer_zero():
    with pytest.raises(HypothesisViolated, match="vanishes at n=7"):
        _rational_poly(-7, 1).abs_lower_inf(2, 128)


def test_complex_secondary_roots():
    # a_n = 3^n + 2 cos(pi n / 2): characteristic roots 3, i, -i
    seq = RecurrentSequence.from_recurrence([1, -3, 1, -3], [3, 3, 7])
    assert checked_terms(seq, 6) == [3, 3, 7, 27, 83, 243]


def _recursion_terms(recurrence, initial, count):
    terms = list(initial)
    while len(terms) < count:
        window = reversed(terms[-(len(recurrence) - 1):])
        terms.append(-sum(c * t for c, t in zip(recurrence[1:], window)))
    return terms


def test_fibonacci_dominant_coefficient(fib_seq):
    # a_n = c phi^n + c' psi^n with c = (5 + 3 sqrt 5)/10
    (c,) = fib_seq.dominant_coeff.coeffs
    assert c.min_poly == (5, -5, -1)
    box = c.enclosure
    # for rational x > 1/2: x <= c  iff  (10 x - 5)^2 <= 45
    assert Fraction(1, 2) < box.lo and (10 * box.lo - 5) ** 2 <= 45 <= (10 * box.hi - 5) ** 2
    assert box.hi - box.lo < Fraction(1, 2**60)


def test_wrong_conjugate_coefficient_is_inconsistent(fib_seq):
    # a_n = c phi^n + c' psi^n; with c and its conjugate c' swapped the
    # formula gives c + c' = 1 at n = 0 but c' phi + c psi = -1 at n = 1
    ((psi, c_psi),) = fib_seq.secondary
    with pytest.raises(InconsistentModel, match="initial term 1"):
        RecurrentSequence(
            fib_seq.dominant_root, c_psi, ((psi, fib_seq.dominant_coeff),), fib_seq.recurrence_coeffs,
            fib_seq.initial_terms,
        )


def test_derived_values_do_not_depend_on_earlier_refinement():
    # a fresh fib-pow2 family: refining its numbers further must not change
    # what is computed from them afterwards
    fam = FamilyInstance.build(
        RecurrentSequence.from_recurrence([1, -1, -1], [1, 2]),
        RecurrentSequence.from_recurrence([1, -2], [2]),
    )
    numbers = []
    for seq in (fam.A, fam.B):
        for root, coeff in [(seq.dominant_root, seq.dominant_coeff), *seq.secondary]:
            numbers += [root, *coeff.coeffs]

    def derived():
        # computed afresh each time, past the per-family memos
        # Intervals compare equal when their endpoints and precisions agree
        return compute_constants.__wrapped__(fam), family_ivs.__wrapped__(fam, 160), fam.alpha.approx(256)

    before = derived()
    for x in numbers:
        x.approx(4000)
    assert derived() == before


@pytest.mark.parametrize(
    "recurrence, initial, dominant",
    [
        ([1, -2, 0], [1, 2], 2),  # characteristic roots 2 and 0
        # (x - 3)(x^2 + 1)^2: a repeated complex pair, order 5
        ([1, -3, 2, -6, 1, -3], [1, 2, 3, 4, 5], 3),
    ],
)
def test_explicit_formula_matches_recursion(recurrence, initial, dominant):
    seq = RecurrentSequence.from_recurrence(recurrence, initial)
    assert seq.dominant_root.as_fraction() == dominant
    want = _recursion_terms(recurrence, initial, 12)
    assert checked_terms(seq, 12) == want


def test_repeated_complex_pair_builds_fast(cold_kernel):
    # (x - 3)(x^2 + 1)^2: a repeated factor and three complex isolations
    # (x^2 + 1 and the minimal polynomials of its coefficients); about 0.02 s
    start = time.perf_counter()
    seq = RecurrentSequence.from_recurrence([1, -3, 2, -6, 1, -3], [1, 2, 3, 4, 5])
    assert time.perf_counter() - start < 0.25
    assert seq.dominant_root.as_fraction() == 3
    assert [root.min_poly for root, _ in seq.secondary] == [(1, 0, 1)] * 2


def test_initial_terms_must_match_order():
    with pytest.raises(ValueError, match="initial_terms must match recurrence order"):
        RecurrentSequence.from_recurrence([1, -1, -1], [1])


def test_dominance_violation_rejected():
    # roots 2 and -2 tie in modulus
    with pytest.raises(HypothesisViolated):
        RecurrentSequence.from_recurrence([1, 0, -4], [1, 1])


def test_irrational_modulus_tie_rejected():
    # x^3 - 2: the real root and the complex pair all have modulus 2^(1/3);
    # the tie is decided exactly, before any precision escalation
    with pytest.raises(HypothesisViolated):
        RecurrentSequence.from_recurrence([1, 0, 0, -2], [1, 2, 3])


def test_modulus_tie_squares_each_root_once():
    # three roots of x^3 - 2 tie in modulus: three exact |r|^2, not one per comparison
    from split_thue import algebraic

    algebraic._abs_square.cache_clear()
    with pytest.raises(HypothesisViolated):
        RecurrentSequence.from_recurrence([1, 0, 0, -2], [1, 2, 3])
    assert algebraic._abs_square.cache_info().misses == 3


def test_family_orders_roots(fib_seq, pow2_seq):
    fam = FamilyInstance.build(pow2_seq, fib_seq)
    # swapped input still puts the larger-modulus root on the B side
    assert fam.beta.as_fraction() == 2
    assert not fam.equal_modulus
    assert fam.case_tag == "strict"
    assert fam.d1 == 0 and fam.d2 == 0


def test_family_terms_and_coeffs(fib_pow2):
    assert fib_pow2.terms(1) == (2, 4)
    assert fib_pow2.terms(5) == (13, 64)
    assert fib_pow2.c_B(7).as_fraction() == 2


@pytest.mark.parametrize("n_probe", [3, 12])
def test_check_hypotheses(fib_pow2, n_probe):
    rep = check_hypotheses(fib_pow2, n_probe)
    assert rep.passed
    assert rep.first_n_all_pass == 1
    assert rep.bullet == "positive"
    assert rep.failures == ()


def test_hypotheses_fail_outside_bullets():
    # adjacent Fibonacci-type terms violate A <= B - 2 at n = 1
    a = RecurrentSequence.from_recurrence([1, -1, -1], [1, 2])
    b = RecurrentSequence.from_recurrence([1, -1, -1], [2, 3])
    fam = FamilyInstance.build(a, b)
    assert fam.equal_modulus
    rep = check_hypotheses(fam, 1)
    assert [n for n, _ in rep.failures] == [1]
    assert not rep.passed


def _outside(*pairs):
    return tuple((n, f"A_n={a}, B_n={b} outside both bullet ranges") for n, a, b in pairs)


def _each_n(reason, ns):
    return tuple((n, f"{reason} at n={n}") for n in ns)


# (A, B) as (recurrence, initial) pairs, and the whole report of
# check_hypotheses(fam, 8): one family outside both bullet ranges, then each
# verdict of _equal_modulus_check
HYPOTHESIS_REPORTS = {
    "outside-bullets": (
        ([1, 5], [1]), ([1, 2], [-1]),
        (None, None, None, _outside(
            (1, 2, -5), (2, -4, 25), (3, 8, -125), (4, -16, 625), (5, 32, -3125), (6, -64, 15625),
            (7, 128, -78125), (8, -256, 390625),
        )),
    ),
    "large-cB": (
        ([1, -2], [-3]), ([1, -2], [-4]),
        (2, "negative", "large-cB", _outside((1, -6, -8))),
    ),
    "small-cB": (
        ([1, -2], [1]), ([1, -1, -2], [-4, 5]),
        (None, None, "small-cB", _outside(
            (2, 4, -3), (3, 8, 7), (4, 16, 1), (5, 32, 15), (6, 64, 17), (7, 128, 47), (8, 256, 81),
        )),
    ),
    "unit-modulus": (
        ([1, 2], [-2]), ([1, -3, 2], [5, 6]),
        (None, None, "unit-modulus", _outside(
            (2, -8, 8), (3, 16, 12), (4, -32, 20), (5, 64, 36), (6, -128, 68), (7, 256, 132), (8, -512, 260),
        )),
    ),
    "equal-abs-coefficients": (
        ([1, -2], [1]), ([1, -3, 2], [3, 4]),
        (None, None, None, _each_n("|c_B(n)| = |c_A(n)|", range(1, 9))),
    ),
    "unit-modulus-diff-0-or-1": (
        ([1, -2], [2]), ([1, -3, 2], [5, 6]),
        (None, None, None, _each_n("|c_B - c_A| = 1", [1]) + _outside(
            (2, 8, 8), (3, 16, 12), (4, 32, 20), (5, 64, 36), (6, 128, 68), (7, 256, 132), (8, 512, 260),
        )),
    ),
    "large-cB-diff-equals-inverse": (
        ([1, -1, -2], [-4, -4]), ([1, -2], [-3]),
        (None, None, None, _outside((1, -4, -6), (2, -12, -12)) + _each_n("|c_B - c_A| = 1/|c_B|", range(3, 9))),
    ),
    "large-cB-diff-below-inverse": (
        ([1, -2], [-2]), ([1, -1, -2], [-4, -3]),
        (None, None, None, _outside((1, -4, -3)) + _each_n("|c_B - c_A| <= 1/|c_B|", [2])
         + _outside((3, -16, -17)) + _each_n("|c_B - c_A| <= 1/|c_B|", range(4, 9))),
    ),
    "small-cB-diff-one": (
        ([1, -1, -2], [-4, -1]), ([1, -1, -2], [2, -4]),
        (None, None, None, _each_n("|c_B - c_A| = 1", [1]) + _outside(
            (2, -9, 0), (3, -11, -8), (4, -29, -8), (5, -51, -24), (6, -109, -40), (7, -211, -88),
            (8, -429, -168),
        )),
    ),
    "small-cB-diff-above-one": (
        ([1, -2], [2]), ([1, -1, -2], [-4, 6]),
        (None, None, None, _each_n("|c_B - c_A| > 1", [1]) + _outside(
            (2, 8, -2), (3, 16, 10), (4, 32, 6), (5, 64, 26), (6, 128, 38), (7, 256, 90), (8, 512, 166),
        )),
    ),
}


@pytest.mark.parametrize("name", sorted(HYPOTHESIS_REPORTS))
def test_hypothesis_reports_are_pinned(name):
    A, B, want = HYPOTHESIS_REPORTS[name]
    fam = FamilyInstance.build(RecurrentSequence.from_recurrence(*A), RecurrentSequence.from_recurrence(*B))
    assert tuple(check_hypotheses(fam, 8)) == want


def test_each_recursion_step_runs_once_per_family(monkeypatch):
    produced = []
    walk = RecurrentSequence.iter_terms

    def counting(seq):
        produced.append(0)
        i = len(produced) - 1
        for term in walk(seq):
            produced[i] += 1
            yield term

    monkeypatch.setattr(RecurrentSequence, "iter_terms", counting)
    fam = FamilyInstance.build(
        RecurrentSequence.from_recurrence([1, -1, -1], [1, 2]),
        RecurrentSequence.from_recurrence([1, -2], [2]),
    )
    assert check_hypotheses(fam, 300).passed
    for n in range(301):
        fam.terms(n)
    assert produced == [301, 301]
    with pytest.raises(ValueError, match="n must be >= 0"):
        fam.terms(-1)


def test_sequence_from_json_plain():
    seq = sequence_from_json({"recurrence": [1, -1, -1], "initial": [1, 2]})
    assert checked_terms(seq, 7)[6] == 21


def test_sequence_from_json_bad_input():
    with pytest.raises(KeyError):
        sequence_from_json({"recurrence": [1, -2]})


@pytest.mark.parametrize(
    "data",
    [
        {"recurrence": [1, -1.5, -1], "initial": [1, 2]},
        {"recurrence": [1, -1, -1], "initial": [1, 2.5]},
        {"recurrence": [1, -1, -1], "initial": [1, 2.0]},
        {"recurrence": [1, -1, -1], "initial": [True, 2]},
    ],
)
def test_sequence_from_json_takes_integers_only(data):
    with pytest.raises(ValueError, match="entries must be integers"):
        sequence_from_json(data)
