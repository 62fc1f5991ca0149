import pytest

from split_thue import FamilyInstance, RecurrentSequence, algebraic
from split_thue.cubic import compute_constants


@pytest.fixture(scope="session")
def bits():
    return 256


@pytest.fixture(scope="session")
def fib_seq():
    # a_0 = 1, a_1 = 2, a_n = a_{n-1} + a_{n-2}  (shifted Fibonacci)
    return RecurrentSequence.from_recurrence([1, -1, -1], [1, 2])


@pytest.fixture(scope="session")
def pow2_seq():
    # a_n = 2^{n+1}
    return RecurrentSequence.from_recurrence([1, -2], [2])


@pytest.fixture(scope="session")
def fib_pow2(fib_seq, pow2_seq):
    return FamilyInstance.build(fib_seq, pow2_seq)


@pytest.fixture(scope="session")
def fib_pow2_consts(fib_pow2):
    return compute_constants(fib_pow2)


@pytest.fixture(scope="session")
def pow2_equal_modulus(pow2_seq):
    # A_n = 2^{n+1}, B_n = 3 * 2^{n+1} + 1: |alpha| = |beta| = 2
    B = RecurrentSequence.from_recurrence([1, -3, 2], [7, 13])
    return FamilyInstance.build(pow2_seq, B)


@pytest.fixture
def cold_kernel():
    """Empty the polynomial kernel's caches, so that a timed or counted test
    pays for its own root isolation, refinement and factoring."""
    for cached in (
        algebraic._coarse_boxes,
        algebraic._isolate_all,
        algebraic._refined,
        algebraic._resultant_poly,
        algebraic._abs_square,
    ):
        cached.cache_clear()
