"""Reference verdicts for the benchmark's families, and the checks that compare
a split-thue report against them.

No reference comes from the code path under test:

* solution sets: the 8-member trivial orbit, computed here from the recurrences
  with plain integers, plus an exact search over |y| <= 25 (`small_solutions`);
* lemma verdicts: the certified `True` that the same checks give at 512 bits;
* n0 and the branch thresholds: the branch comparison of `bounds._branch_report`
  redone with exact Fractions instead of floats. `ExactBranches` repeats that
  comparison at the reported values, so a reported threshold t must show a
  contradiction at t and none at t - 1, and a branch with no threshold below
  the cap must show none at the cap.
"""

from dataclasses import dataclass, field

FAMILIES = {
    "fib-pow2": {"A": {"recurrence": [1, -1, -1], "initial": [1, 2]},
                 "B": {"recurrence": [1, -2], "initial": [2]}},
}

# Degree of the field generated by the dominant roots and the coefficients of
# the explicit formulas: Q(sqrt 5) for fib-pow2.
FIELD_DEGREE = {"fib-pow2": 2}

# Exact-Fraction thresholds. The float comparison in bounds._branch_report
# reports 59362923407947908538 instead.
N0_REFERENCE = {
    "fib-pow2": {
        "n0": 59362923407947902848,
        "branch_thresholds": {
            "altunit-j1": 568,
            "xi-j2": 59362923407947902848,
            "xi-j3": 59362923407947902848,
        },
    },
}

# n for which every lemma and the xi bound certify True at 512 bits.
LEMMA_TRUE = {"fib-pow2": range(2, 121)}

# The |y| range of the independent solution search.
SMALL_Y = 25


def term(spec, n):
    """n-th term (from index 0) of an integer linear recurrence."""
    rec, vals = spec["recurrence"], list(spec["initial"])
    order = len(rec) - 1
    while len(vals) <= n:
        vals.append(-sum(c * v for c, v in zip(rec[1:], reversed(vals[-order:]))))
    return vals[n]


def form(x, y, A, B):
    return x * (x - A * y) * (x - B * y) - y**3


def trivial_orbit(A, B):
    return {(1, 0), (-1, 0), (0, 1), (0, -1), (A, 1), (-A, -1), (B, 1), (-B, -1)}


def small_solutions(A, B, y_lim=SMALL_Y):
    """Every (x, y) with |y| <= y_lim and |F(x, y)| = 1, by a double loop.

    |x (x - Ay)(x - By)| = |y^3 -+ 1| <= y_lim^3 + 1, so one factor is at most
    y_lim in absolute value: x lies within y_lim of 0, Ay or By.
    """
    out = set()
    for y in range(-y_lim, y_lim + 1):
        xs = set()
        for c in (0, A * y, B * y):
            xs.update(range(c - y_lim - 1, c + y_lim + 2))
        for x in xs:
            if form(x, y, A, B) in (1, -1):
                out.add((x, y))
    return out


@dataclass
class Verdicts:
    """Checked answers of one operation and the ones that differ."""

    checked: int = 0
    wrong: list = field(default_factory=list)

    def expect(self, what, want, got):
        self.checked += 1
        if want != got:
            self.wrong.append(f"{what}: expected {_short(want)}, got {_short(got)}")


def _short(v, limit=160):
    s = repr(sorted(v) if isinstance(v, set) else v)
    return s if len(s) <= limit else s[: limit - 3] + "..."


class SolutionReference:
    """Expected solution sets per n, cached for the life of one run."""

    def __init__(self, family):
        self.spec = FAMILIES[family]
        self._cache = {}

    def expected(self, n):
        """(x, y, F(x, y)) for the trivial orbit and every small solution."""
        if n not in self._cache:
            A, B = term(self.spec["A"], n), term(self.spec["B"], n)
            orbit, small = trivial_orbit(A, B), small_solutions(A, B)
            sols = {(x, y, form(x, y, A, B)) for x, y in orbit | small}
            self._cache[n] = (sols, sorted(small - orbit))
        return self._cache[n]


def _rows_by_n(report):
    return {row["n"]: row for row in report.get("per_n", [])}


def _solution_set(row):
    return {(s["x"], s["y"], s["sign"]) for s in row["solutions"]}


def check_solutions(verdicts, refs, n, row):
    want, nontrivial = refs.expected(n)
    if nontrivial:
        verdicts.wrong.append(f"n={n}: nontrivial solutions with |y| <= {SMALL_Y}: {nontrivial}")
    verdicts.expect(f"n={n} solution set", want, _solution_set(row) if row else None)


def check_solve(report, refs, n_lo, n_hi):
    v = Verdicts()
    rows = _rows_by_n(report)
    for n in range(n_lo, n_hi + 1):
        check_solutions(v, refs, n, rows.get(n))
    return v


LEMMA_FIELDS = ("in_scope", "lemma_root_approx", "lemma_log_approx", "lemma_root_diff", "xi_bound_ok")


def check_verify(report, refs, family, n_lo, n_hi):
    if not (n_lo in LEMMA_TRUE[family] and n_hi in LEMMA_TRUE[family]):
        raise ValueError(f"no lemma reference for {family} at n = {n_lo}..{n_hi}")
    v = Verdicts()
    rows = _rows_by_n(report)
    for n in range(n_lo, n_hi + 1):
        row = rows.get(n)
        check_solutions(v, refs, n, row)
        v.expect(f"n={n} nontrivial", [], row["nontrivial"] if row else None)
        for key in LEMMA_FIELDS:
            v.expect(f"n={n} {key}", True, row.get(key) if row else None)
    return v


class ExactBranches:
    """The n0 branch comparison of `bounds._branch_report`, with exact Fractions.

    Uses only the public bound functions of split_thue, imported on first use.
    """

    BITS = 160  # the precision `_branch_report` works at

    def __init__(self, family, working_bits):
        from split_thue import bounds, cli, cubic

        config = {"A": FAMILIES[family]["A"], "B": FAMILIES[family]["B"],
                  "options": {"working_bits": working_bits}}
        self.fam, self.budget = cli.build_family(config, None)
        self.consts = cubic.compute_constants(self.fam)
        self.bounds = bounds
        self.D = FIELD_DEGREE[family]
        self._cache = {}

    def contradiction(self, n, branch):
        key = (n, branch)
        if key not in self._cache:
            self._cache[key] = self._contradiction(n, branch)
        return self._cache[key]

    def _contradiction(self, n, branch):
        from mpmath import iv

        from split_thue.precision import interval_bits, iv_from_fraction, iv_sup

        b, fam, consts, bits = self.bounds, self.fam, self.consts, self.BITS
        if branch == "altunit-j1":
            log_lower = b.log_logy_lower_altunit(fam, consts, n, bits)
            ly = b.logy_upper(fam, consts, n, bits)
            with interval_bits(bits):
                up = iv_sup(iv.log(iv_from_fraction(ly.value, bits)))
            return log_lower is not None and log_lower > up
        r_low, _ = b.regulator_bounds(fam, consts, n, bits)
        if r_low <= 0:
            return False
        ly = b.logy_upper(fam, consts, n, bits)
        heights = [h for _, h in b.xi_heights(fam, n, self.D, self.budget)]
        B_exp = b.exponent_bound_B(fam, consts, n, ly.value, r_low, bits)
        with interval_bits(bits):
            log_B = iv_sup(iv.log(iv_from_fraction(B_exp, bits)))
        lower = b.baker_lower(heights, self.D, log_B, bits=bits)
        return lower > b.xi_upper_log(fam, consts, n, bits)

    def first_from(self, n, branches):
        """True when every branch contradicts at n and some branch not at n - 1."""
        return all(self.contradiction(n, br) for br in branches) and not all(
            self.contradiction(n - 1, br) for br in branches
        )


def check_bounds(report, family, n_cap, exact):
    """Thresholds and n0 at cap n_cap: a branch whose exact threshold lies above
    the cap has none, and must then show no exact contradiction at the cap."""
    v = Verdicts()
    ref = N0_REFERENCE[family]
    got_thr = report.get("branch_thresholds", {})
    want_thr = {br: t if t <= n_cap else None for br, t in ref["branch_thresholds"].items()}
    for branch, want in sorted(want_thr.items()):
        got = got_thr.get(branch)
        if got == want and isinstance(got, int) and not exact.first_from(got, [branch]):
            got = f"{got} (not the first exact contradiction)"
        if got is None and want is None and exact.contradiction(n_cap, branch):
            got = f"None (but an exact contradiction at the cap {n_cap})"
        v.expect(f"threshold {branch}", want, got)
    no_crossing = None in want_thr.values()
    v.expect("no_crossing", no_crossing, report.get("no_crossing"))
    want = None if no_crossing else ref["n0"]
    got = report.get("n0")
    if got == want and isinstance(got, int) and not exact.first_from(got, list(want_thr)):
        got = f"{got} (not the first exact contradiction)"
    v.expect("n0", want, got)
    return v


def exact_findings(report, family, exact):
    """Exact verdicts at each reported threshold t and at t - 1, for the log."""
    out = []
    for branch, t in sorted(report.get("branch_thresholds", {}).items()):
        if isinstance(t, int) and t > 2:
            out.append(f"{branch}: contradiction at t={t}: {exact.contradiction(t, branch)}, "
                       f"at t-1: {exact.contradiction(t - 1, branch)}")
    return out
