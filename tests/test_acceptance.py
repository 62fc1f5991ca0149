"""End-to-end acceptance tests.

Each test covers one headline criterion and prints a single summary line
(written straight to the terminal, bypassing capture) so a full run reads
as a checklist.
"""

import json
import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from split_thue import cli
from split_thue.algebraic import AlgebraicNumber, Enclosure
from split_thue.bounds import (
    CHAIN_BITS,
    C_RANK2_CUBIC,
    ChainProbe,
    _branch_report,
    baker_lower,
    bugy_bound,
    compute_n0,
    field_degree,
)
from split_thue.cubic import isolate_roots, verify_log_approx, verify_root_approx
from split_thue.solver import solve_bruteforce
from split_thue.units import regulator, siegel_gamma, unit_decompose


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def outcome(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {name}: {status} ({detail})"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert passed, f"{name}: {detail}"


# -- 1: trivial-only solutions at desk scale --------------------------------

def _naive_oracle(A, B, y_max):
    out = set()
    span = max(abs(A), abs(B), 1)
    for y in range(-y_max, y_max + 1):
        lo, hi = -span * abs(y) - 4, span * abs(y) + 4
        for x in range(lo, hi + 1):
            if x * (x - A * y) * (x - B * y) - y**3 in (1, -1):
                out.add((x, y))
    return out


def test_criterion_01_trivial_only_solutions(fib_pow2):
    """n = 1..12, |y| <= 10^4, both signs.

    The theorem's conclusion is asymptotic ("for n large enough").  For this
    family it holds from n = 2 on; at n = 1 the pair (A, B) = (2, 4) admits
    genuine extra solutions:  +-(7, 4), since 7 * (-1) * (-9) - 64 = -1, and
    +-(38, 273), since 38 * (-508) * (-1054) - 273^3 = -1.  The oracle
    confirms them, so the test pins the exact solution sets rather than
    asserting an 8-element orbit everywhere.
    """
    t0 = time.time()
    extra = {}
    for n in range(1, 13):
        A, B = fib_pow2.terms(n)
        sols = solve_bruteforce(fib_pow2, n, 10**4)
        nontrivial = {(s.x, s.y) for s in sols if s.classification == "nontrivial"}
        trivial = {(s.x, s.y) for s in sols} - nontrivial
        orbit = {
            (1, 0), (-1, 0), (0, 1), (0, -1),
            (A, 1), (-A, -1), (B, 1), (-B, -1),
        }
        assert trivial == orbit, f"n={n}: trivial orbit mismatch"
        if nontrivial:
            extra[n] = nontrivial
        # independent naive double-loop oracle on a small sub-box
        oracle = _naive_oracle(A, B, 25)
        mine = {(s.x, s.y) for s in sols if abs(s.y) <= 25}
        assert mine == oracle, f"n={n}: solver disagrees with naive oracle"
    elapsed = time.time() - t0
    n1_expected = {(7, 4), (-7, -4), (38, 273), (-38, -273)}
    only_n1_exception = set(extra) <= {1} and extra.get(1) == n1_expected
    outcome(
        "criterion-01 trivial-only (n=1..12, |y|<=1e4)",
        only_n1_exception and elapsed < 120,
        f"trivial-only for n=2..12; n=1 has the genuine extra pairs "
        f"+-(7,4) and +-(38,273); {elapsed:.1f}s",
    )


# -- 2: root-approximation residuals ----------------------------------------

def test_criterion_02_root_approx_residuals(fib_pow2, bits):
    worst = 0.0
    for n in range(10, 31):
        rs = isolate_roots(fib_pow2, n, bits)
        rep = verify_root_approx(rs)
        assert rep.all_pass, f"n={n}: root-location inequality failed"
        # independent 50-digit cubic solver as oracle for the enclosures
        with mpmath.workdps(50):
            roots = sorted(
                mpmath.polyroots(
                    [mpmath.mpf(c) for c in rs.coeffs], maxsteps=200, extraprec=120
                )
            )
            for oracle, mine in zip(roots, (rs.lambda3, rs.lambda2, rs.lambda1)):
                mid = mpmath.mpf(mine.mid().numerator) / mpmath.mpf(mine.mid().denominator)
                dev = abs(mid - oracle)
                worst = max(worst, float(dev))
                assert dev < mpmath.mpf(10) ** -35
    outcome(
        "criterion-02 root approximations (n=10..30)",
        True,
        f"all four inequalities certified; max deviation from 50-digit oracle {worst:.1e}",
    )


# -- 3: log-approximation residuals -----------------------------------------

def test_criterion_03_log_approx_residuals(fib_pow2, fib_pow2_consts, bits):
    ratios = []
    for n in range(15, 41):
        rs = isolate_roots(fib_pow2, n, bits)
        rep = verify_log_approx(rs)
        assert rep.all_pass, f"n={n}: log approximation exceeded C n^d2 eps^n"
        ratios.append(max(e.ratio for e in rep.entries))
    # boundedness: the scaled residual must not trend upward across the range
    head, tail = max(ratios[:8]), max(ratios[-8:])
    bounded = tail <= head * 1.05 and max(ratios) < float(6 * fib_pow2_consts.C)
    outcome(
        "criterion-03 log approximations (n=15..40)",
        bounded,
        f"all residuals within C n^d2 eps^n; scaled ratio max {max(ratios):.3f}, "
        f"head {head:.3f} vs tail {tail:.3f} (no growth)",
    )


# -- 4: regulator growth -----------------------------------------------------

def test_criterion_04_regulator_growth(fib_pow2, fib_pow2_consts, bits):
    # the closed-form enclosure that the n0 chain uses must bracket the
    # regulator of the certified roots, and the regulator must not depend on
    # the pair of embeddings: the three pairs' intervals overlap
    probes = (50, 80, 110, 140, 170, 200)
    for n in probes:
        rs = isolate_roots(fib_pow2, n, bits)
        r12, r23, r13 = (regulator(rs, pair) for pair in ((1, 2), (2, 3), (1, 3)))
        r_low, r_up = ChainProbe(fib_pow2, fib_pow2_consts, n, CHAIN_BITS).regulator
        assert 0 < r_low <= r12.inf and r12.sup <= r_up, f"n={n}: closed form misses R"
        assert max(r.inf for r in (r12, r23, r13)) <= min(r.sup for r in (r12, r23, r13)), (
            f"n={n}: regulator depends on the embedding pair"
        )
    outcome(
        "criterion-04 regulator growth (n=50..200)",
        True,
        f"0 < R_low <= R <= R_up and pair-independent R at n in {probes}",
    )


# -- 5: unit decomposition ---------------------------------------------------

def test_criterion_05_unit_decomposition(fib_pow2, pow2_equal_modulus, bits):
    checked = 0
    for fam in (fib_pow2, pow2_equal_modulus):
        for n in range(5, 26):
            rs = isolate_roots(fam, n, bits)
            A, B = rs.A, rs.B
            expected = {
                (1, 0): (0, 0, 1),
                (0, 1): (1, 0, -1),
                (A, 1): (0, 1, -1),
                (B, 1): (-1, -1, -1),
            }
            for (x, y), (b1, b2, sign) in expected.items():
                for sx, sy, s in ((x, y, sign), (-x, -y, -sign)):
                    ue = unit_decompose(sx, sy, rs)
                    got = (ue.b1, ue.b2, ue.sign)
                    assert got == (b1, b2, s), f"{fam.case_tag}, n={n}, ({sx},{sy}): got {got}"
                    checked += 1
    outcome(
        "criterion-05 unit decomposition (strict and equal-modulus, n=5..25)",
        checked == 2 * 21 * 8,
        f"exact exponents and signs for all eight trivial solutions; "
        f"{checked} identities in Z[lambda]",
    )


# -- 6: Siegel identity ------------------------------------------------------

def test_criterion_06_siegel_identity(fib_pow2, bits):
    # Lambda = log|1 + gamma| from Siegel's identity, at the trivial
    # solutions (0, 1), (A_n, 1) and (B_n, 1) of their own solution type:
    # certified small, and not increasing with n
    probes = (8, 14, 21)
    sups = []
    for n in probes:
        rs = isolate_roots(fib_pow2, n, bits)
        lams = []
        for x, y in ((0, 1), (rs.A, 1), (rs.B, 1)):
            _, lam = siegel_gamma(x, y, rs, unit_decompose(x, y, rs).j)
            lams.append(abs(lam).sup)
        sups.append(max(lams))
    ok = all(s < Fraction(1, 10**6) for s in sups) and sups == sorted(sups, reverse=True)
    outcome(
        "criterion-06 Siegel identity",
        ok,
        f"sup |Lambda| at n in {probes}: " + ", ".join(f"{float(s):.2g}" for s in sups),
    )


# -- 7: bound formulas -------------------------------------------------------

def test_criterion_07_bound_micro_instances():
    exact_const = C_RANK2_CUBIC == 3**94
    exact_bugy = bugy_bound(Fraction(1), Fraction(0), CHAIN_BITS) == 2 * 3**94
    # t = 1, D = 1, h = 1, B = e: -18 * 2! * 1 * 32^3 * log 2
    val = float(baker_lower([Fraction(1)], 1, Fraction(1), CHAIN_BITS))
    expected = -1179648 * math.log(2)
    baker_ok = abs(val - expected) < 1e-12 * abs(expected)
    outcome(
        "criterion-07 bound formulas",
        exact_const and exact_bugy and baker_ok,
        f"C(2,3)=3^94 exact; micro bugy bound exact; baker micro {val:.6f} "
        f"vs {expected:.6f}",
    )


# -- 8: effective threshold n0 ----------------------------------------------

def test_criterion_08_effective_n0(fib_pow2, fib_pow2_consts, bits):
    t0 = time.time()
    res = compute_n0(fib_pow2, fib_pow2_consts, n_cap=10**25)
    elapsed = time.time() - t0
    assert not res.no_crossing and res.n0 is not None
    n0 = res.n0
    D = field_degree(fib_pow2)
    # sanity window: every branch contradicts at n0..n0+10 ...
    window_ok = True
    for n in list(range(n0, n0 + 11)):
        probe = ChainProbe(fib_pow2, fib_pow2_consts, n, CHAIN_BITS, D)
        for branch in ("xi-j2", "xi-j3", "altunit-j1"):
            r = _branch_report(probe, branch)
            if r.verdict != "contradiction":
                window_ok = False
    # ... and the largest branch threshold really is the first crossing point
    below = _branch_report(ChainProbe(fib_pow2, fib_pow2_consts, n0 - 1, CHAIN_BITS, D), "xi-j2")
    strict_ok = below.verdict == "no-contradiction"
    outcome(
        "criterion-08 effective n0",
        window_ok and strict_ok and elapsed < 300,
        f"n0 = {n0} (~{float(n0):.2e}) at cap 1e25 in {elapsed:.1f}s; "
        f"contradiction holds on n0..n0+10, not at n0-1; "
        f"default desk-scale cap reports no crossing honestly",
    )


# -- 9: heights --------------------------------------------------------------

def test_criterion_09_heights(bits):
    with mpmath.workdps(60):
        log2 = Fraction(mpmath.nstr(mpmath.log(2), 55)).limit_denominator(10**45)
        logphi_half = Fraction(
            mpmath.nstr(mpmath.log((1 + mpmath.sqrt(5)) / 2) / 2, 55)
        ).limit_denominator(10**45)
    tol = Fraction(1, 10**20)
    cases = [
        ("h(2)", AlgebraicNumber.from_rational(2), log2),
        ("h(1/2)", AlgebraicNumber.from_rational(Fraction(1, 2)), log2),
        (
            "h(phi)",
            AlgebraicNumber([1, -1, -1], Enclosure(Fraction(3, 2), Fraction(2))),
            logphi_half,
        ),
    ]
    worst = Fraction(0)
    for name, num, target in cases:
        h = num.height(bits)
        mid = (h.inf + h.sup) / 2
        dev = abs(mid - target)
        worst = max(worst, dev)
        assert dev < tol, f"{name} off by {float(dev):.2e}"
    outcome(
        "criterion-09 heights",
        True,
        f"h(2), h(1/2) = log 2 and h(phi) = (1/2) log phi within {float(worst):.1e} "
        f"(tolerance 1e-20 at 256 bits)",
    )


# -- 10: determinism ---------------------------------------------------------

def test_criterion_10_deterministic_reports(tmp_path, capsys):
    cfg = {
        "name": "fibonacci-pow2",
        "A": {"recurrence": [1, -1, -1], "initial": [1, 2]},
        "B": {"recurrence": [1, -2], "initial": [2]},
        "options": {"n_lo": 2, "n_hi": 5, "y_max": 100},
    }
    p = tmp_path / "family.json"
    p.write_text(json.dumps(cfg))
    payloads = []
    for cmd in (["verify"], ["solve"], ["bounds", "--n-cap", "5000"]):
        pair = []
        for i in range(2):
            out = tmp_path / f"{cmd[0]}-{i}.json"
            cli.main(cmd + [str(p), "--json-out", str(out)])
            pair.append(out.read_bytes())
        payloads.append(pair)
    capsys.readouterr()
    same = all(a == b for a, b in payloads)
    outcome(
        "criterion-10 determinism",
        same,
        "byte-identical canonical JSON for repeated verify/solve/bounds runs",
    )
