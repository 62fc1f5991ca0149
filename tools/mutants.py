"""The mutant gate: tier-1 must fail on each of a list of one-line mutants
of the bound code, ten that change the chain's and the xi bound's terms and
branch verdict, two that change which n the threshold search probes, one
for each constant of ``baker_constant``, ``bugy_constant``, ``envelope`` and
``compute_constants``, three that break the trivial orbit's shortcuts in
``units`` and one that drops a root from its type decision: 32 in all.

    python tools/mutants.py

Each mutant is (name, file, old line, new line), lines given whole, with
their indentation.  For each one the repository, without ``.git`` and
caches, is copied to a temporary directory, the old line is replaced there
by the new one, and tier-1 runs there with ``-x``.  The gate fails when an
old line does not occur exactly once in its file, so the list cannot rot
unseen, and when tier-1 shows no failed test on a mutant.  A tier-1 run
that takes over ``TIMEOUT`` seconds counts as a failure, so a mutant that
makes a loop spin cannot stall the gate.  Nothing in the repository itself
is changed.  Exit code 0 when every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUNDS, CUBIC, UNITS = "src/split_thue/bounds.py", "src/split_thue/cubic.py", "src/split_thue/units.py"

MUTANTS = (
    ("window-0", BOUNDS, "WINDOW = 10", "WINDOW = 0"),
    (
        "regulator-without-e",
        BOUNDS,
        "            return n * combine(rows[name][:2], (la, lb)) + Interval.between(-(k * m + e), k * m + e, CHAIN_BITS)",
        "            return n * combine(rows[name][:2], (la, lb)) + Interval.between(-(k * m), k * m, CHAIN_BITS)",
    ),
    (
        "xi-upper-without-log-2",
        BOUNDS,
        "        return max(t1.log().sup, t2.log().sup) + _n_free_log(2, CHAIN_BITS).sup",
        "        return max(t1.log().sup, t2.log().sup)",
    ),
    (
        "log-h-without-2",
        BOUNDS,
        "        val = (self.n * (la + lb)).sup + 2 * (self.m + 1) + self.e",
        "        val = (self.n * (la + lb)).sup + 2 * self.m + self.e",
    ),
    (
        "altunit-r-low-minus-1",
        BOUNDS,
        "        return (_log(r_low - 2, bits) - _n_free_log(4, bits) - log_q).inf",
        "        return (_log(r_low - 1, bits) - _n_free_log(4, bits) - log_q).inf",
    ),
    (
        "height-floor-0.15",
        BOUNDS,
        "        floor = Fraction(16, 100) / D",
        "        floor = Fraction(15, 100) / D",
    ),
    (
        "tie-contradicts",
        BOUNDS,
        "        contra = baker_lower_exponent is not None and baker_lower_exponent > xi_upper_log",
        "        contra = baker_lower_exponent is not None and baker_lower_exponent >= xi_upper_log",
    ),
    (
        "exponent-bound-without-1",
        BOUNDS,
        "        return 4 * n * (b_bound + 1)",
        "        return 4 * n * b_bound",
    ),
    (
        "xi-t2-5-envelopes",
        CUBIC,
        "    return 4 / (f.c5**3 * n_iv**d1 * (a_abs * a_abs * b_abs) ** n), 6 * env",
        "    return 4 / (f.c5**3 * n_iv**d1 * (a_abs * a_abs * b_abs) ** n), 5 * env",
    ),
    (
        "xi-t1-3",
        CUBIC,
        "    return 4 / (f.c5**3 * n_iv**d1 * (a_abs * a_abs * b_abs) ** n), 6 * env",
        "    return 3 / (f.c5**3 * n_iv**d1 * (a_abs * a_abs * b_abs) ** n), 6 * env",
    ),
    # which n the threshold search probes
    ("gallop-exponent-2^j", BOUNDS, "        hi = N_START << ((1 << j) - 1)", "        hi = N_START << (1 << j)"),
    (
        "bisect-arithmetic-only",
        BOUNDS,
        "        mid = math.isqrt(lo * hi) if hi > 2 * lo > 0 else (lo + hi) // 2",
        "        mid = (lo + hi) // 2",
    ),
    # the constants of baker_constant, bugy_constant, envelope and compute_constants
    (
        "baker-18-to-17",
        BOUNDS,
        "    return 18 * math.factorial(t + 1) * t ** (t + 1) * (32 * D) ** (t + 2)",
        "    return 17 * math.factorial(t + 1) * t ** (t + 1) * (32 * D) ** (t + 2)",
    ),
    (
        "baker-32-to-31",
        BOUNDS,
        "    return 18 * math.factorial(t + 1) * t ** (t + 1) * (32 * D) ** (t + 2)",
        "    return 18 * math.factorial(t + 1) * t ** (t + 1) * (31 * D) ** (t + 2)",
    ),
    (
        "baker-power-t-plus-1",
        BOUNDS,
        "    return 18 * math.factorial(t + 1) * t ** (t + 1) * (32 * D) ** (t + 2)",
        "    return 18 * math.factorial(t + 1) * t ** (t + 1) * (32 * D) ** (t + 1)",
    ),
    (
        "baker-floor-check-0.15",
        BOUNDS,
        "    floor = Fraction(16, 100) / D",
        "    floor = Fraction(15, 100) / D",
    ),
    (
        "bugy-3-power-26",
        BOUNDS,
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
        "    return 3 ** (r + 26) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
    ),
    (
        "bugy-r-plus-2",
        BOUNDS,
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
        "    return 3 ** (r + 27) * (r + 2) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
    ),
    (
        "bugy-7r-to-6r",
        BOUNDS,
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
        "    return 3 ** (r + 27) * (r + 1) ** (6 * r + 19) * N ** (2 * N + 6 * r + 14)",
    ),
    (
        "bugy-19-to-18",
        BOUNDS,
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 18) * N ** (2 * N + 6 * r + 14)",
    ),
    (
        "bugy-2N-to-N",
        BOUNDS,
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (1 * N + 6 * r + 14)",
    ),
    (
        "bugy-6r-to-5r",
        BOUNDS,
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 5 * r + 14)",
    ),
    (
        "bugy-14-to-13",
        BOUNDS,
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 14)",
        "    return 3 ** (r + 27) * (r + 1) ** (7 * r + 19) * N ** (2 * N + 6 * r + 13)",
    ),
    (
        "envelope-without-n-power",
        CUBIC,
        "    return f.C * Interval.of(n, f.C.prec) ** d2 * f.eps**n",
        "    return f.C * f.eps**n",
    ),
    (
        "C-5-to-4",
        CUBIC,
        "    C = 5 * max(c1, c2, c3, c4) * (m_B + m_A + 1)",
        "    C = 4 * max(c1, c2, c3, c4) * (m_B + m_A + 1)",
    ),
    (
        "C-without-1",
        CUBIC,
        "    C = 5 * max(c1, c2, c3, c4) * (m_B + m_A + 1)",
        "    C = 5 * max(c1, c2, c3, c4) * (m_B + m_A)",
    ),
    ("c6-2-to-1", CUBIC, "    c6 = 2 * (ups[0] + ups[1] + 1)", "    c6 = 1 * (ups[0] + ups[1] + 1)"),
    ("c5-4-to-3", CUBIC, "    c5 = min(lows) / 4", "    c5 = min(lows) / 3"),
    # the trivial orbit's exact identities and its zero xi rows
    (
        "trivial-candidate-unchecked",
        UNITS,
        "        if unit_product(b1, b2, A, B) == target:",
        "        if True:",
    ),
    ("zero-row-shortcut-always", UNITS, "    if not any(xi):", "    if True:"),
    (
        "trivial-candidate-b2-0",
        UNITS,
        "TRIVIAL_EXPONENTS = ((1, 0), (0, 1), (-1, -1))",
        "TRIVIAL_EXPONENTS = ((1, 0), (0, 1), (-1, 0))",
    ),
    # the solution type, read off the exponents
    ("type-without-lambda3", UNITS, "        for i in (2, 3):", "        for i in (2,):"),
)

TIMEOUT = 600  # seconds; a mutant that makes tier-1 run longer counts as caught
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build")


def apply(tree: Path, path: str, old: str, new: str) -> None:
    """Replace the one line ``old`` of ``tree / path`` by ``new``."""
    target = tree / path
    lines = target.read_text().split("\n")
    count = lines.count(old)
    if count != 1:
        raise SystemExit(f"{path}: old line found {count} times, not once: {old.strip()}")
    lines[lines.index(old)] = new
    target.write_text("\n".join(lines))


def first_failure(output: str) -> str | None:
    """The first ``FAILED`` line of pytest's short summary, if any."""
    return next((line for line in output.splitlines() if line.startswith("FAILED ")), None)


def main() -> int:
    survivors, start = [], time.perf_counter()
    for name, path, old, new in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            tree = Path(tmp) / "repo"
            shutil.copytree(ROOT, tree, ignore=IGNORED)
            apply(tree, path, old, new)
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            try:
                run = subprocess.run(
                    [sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT
                )
                failed = first_failure(run.stdout) if run.returncode == 1 else None
                verdict = f"caught by {failed[7:]}" if failed else f"SURVIVED (pytest exit {run.returncode})"
            except subprocess.TimeoutExpired:
                failed = verdict = f"caught by a timeout after {TIMEOUT} s"
        print(f"{name}: {verdict} in {time.perf_counter() - t0:.1f} s")
        if not failed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
