"""Fixed reference work that measures how fast the machine runs right now.

    python3 calibrate.py

It runs in a fresh process, like each op, and does the kind of work split-thue
does, with none of its code: importing sympy, factoring polynomials, interval
logarithms at 256 bits, Fractions and big integers. On a shared machine the
speed of this work and of the ops drift together over minutes, so run.py
divides op times by the median time of this work in the same run.
"""

from fractions import Fraction

import sympy
from mpmath import iv

ROUNDS = 2


def work(rounds):
    x = sympy.Symbol("x")
    for k in range(rounds):
        f = (x**3 - (k + 3) * x**2 + 2 * k * x - 1) * (x**2 - x - 1) * (x**2 - 2 * x - 1 - k)
        sympy.factor_list(sympy.Poly(f, x))
    iv.prec = 256
    acc = iv.mpf(0)
    for k in range(1, 60 * rounds):
        acc += iv.log(iv.mpf(k) + iv.mpf(1) / 3) * iv.exp(iv.mpf(-k) / 7)
    frac = Fraction(0)
    for k in range(1, 150 * rounds):
        frac += Fraction(k, 3 ** (k % 40) + 7)
    a, b = 1, 2
    for _ in range(2000 * rounds):
        a, b = b, (3 * a + b * b) % (1 << 4096)
    return acc, frac, a


if __name__ == "__main__":
    work(ROUNDS)
