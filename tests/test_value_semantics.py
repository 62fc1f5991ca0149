"""The equality, hashing, ordering and immutability of the package's records
and value types, which are plain classes and named tuples."""

import operator
import random
from fractions import Fraction

import pytest

from split_thue import FamilyInstance
from split_thue.algebraic import Enclosure
from split_thue.bounds import BoundReport
from split_thue.cubic import isolate_roots
from split_thue.precision import Box, Interval
from split_thue.solver import Solution
from split_thue.units import UnitExponents


def _box(re, im, prec=64):
    return Box((Interval.of(re, prec)._mpi_, Interval.of(im, prec)._mpi_), prec)


@pytest.mark.parametrize(
    "a, b",
    [
        (Interval.of(1, 64), Interval.of(2, 64)),
        (_box(1, 1), _box(2, 2)),
        (Enclosure(Fraction(1), Fraction(2)), Enclosure(Fraction(3), Fraction(4))),
    ],
    ids=["Interval", "Box", "Enclosure"],
)
def test_value_types_do_not_order(a, b):
    # a tuple would answer lexicographically; an interval order is undecided
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, b)


def test_value_types_compare_and_hash_by_value():
    assert Interval.of(1, 64) == Interval.of(1, 64)
    assert hash(Interval.of(1, 64)) == hash(Interval.of(1, 64))
    assert Interval.of(1, 64) != Interval.of(1, 128)
    assert _box(1, 2) == _box(1, 2) and hash(_box(1, 2)) == hash(_box(1, 2))
    a, b = Enclosure(Fraction(1), Fraction(2)), Enclosure(Fraction(1), Fraction(2), 0, 0)
    assert a == b and hash(a) == hash(b)
    assert a != Enclosure(Fraction(1), Fraction(2), Fraction(-1), Fraction(1))


def test_fields_cannot_be_assigned(fib_pow2, bits):
    rs = isolate_roots(fib_pow2, 5, bits)
    report = BoundReport(8, "xi-j2", 1.0, 2.0, None, Fraction(1))
    sentinel = object()
    for obj, field in (
        (Solution(1, 0, 5, 1, "trivial-(1,0)"), "x"),
        (rs, "n"),
        (report, "verdict"),
        (Interval.of(1, 64), "prec"),
        (fib_pow2, "d2"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, field, sentinel)
        assert getattr(obj, field) is not sentinel
    with pytest.raises(AttributeError):
        del report.n


def test_validated_classes_check_every_construction():
    with pytest.raises(ValueError, match="sign must be"):
        UnitExponents(1, 0, 0, 0)
    assert UnitExponents(1, 0, 0, -1) == UnitExponents(1, 0, 0, -1)


def test_families_compare_by_identity(fib_seq, pow2_seq):
    # the per-family caches key on the family: two builds share no entry
    first, second = FamilyInstance.build(fib_seq, pow2_seq), FamilyInstance.build(fib_seq, pow2_seq)
    assert first != second
    assert first == first
    assert len({first, second}) == 2


def test_solutions_sort_by_their_fields():
    rng = random.Random(5)
    classes = ("nontrivial", "trivial-(0,1)", "trivial-(1,0)")
    sols = [
        Solution(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 2), rng.choice((-1, 1)), rng.choice(classes))
        for _ in range(200)
    ]
    key = lambda s: (s.x, s.y, s.n, s.sign, s.classification)  # noqa: E731
    assert sorted(sols) == sorted(sols, key=key)
