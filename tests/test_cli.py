import hashlib
import json
import os
import subprocess
import sys
import time
from functools import cached_property
from types import SimpleNamespace

import mpmath
import pytest

from split_thue import algebraic, cli, cubic, sequences, units

EXAMPLE_CONFIG = os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "fibonacci_pow2.json"
)
EQUAL_MODULUS_CONFIG = os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "pow2_equal_modulus.json"
)

CONFIG = {
    "name": "fibonacci-pow2",
    "A": {"recurrence": [1, -1, -1], "initial": [1, 2]},
    "B": {"recurrence": [1, -2], "initial": [2]},
    "options": {"n_lo": 2, "n_hi": 4, "y_max": 50},
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(CONFIG))
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_solve_clean_range(config_path, capsys):
    code, report = run(["solve", config_path], capsys)
    assert code == cli.EXIT_OK
    assert report["nontrivial_found"] == 0
    assert [p["n"] for p in report["per_n"]] == [2, 3, 4]
    assert all(len(p["solutions"]) == 8 for p in report["per_n"])


def test_solve_nontrivial_exit_code(config_path, capsys):
    code, report = run(["solve", config_path, "--n-lo", "1", "--n-hi", "1"], capsys)
    assert code == cli.EXIT_NONTRIVIAL
    assert report["nontrivial_found"] == 2


def test_verify_report_structure(config_path, capsys):
    code, report = run(["verify", config_path], capsys)
    assert code == cli.EXIT_OK
    assert report["case"] == "strict"
    assert report["hypotheses"]["passed"]
    assert report["constants"]["eps"] == pytest.approx(0.8090169943749475)
    assert all(row["xi_bound_ok"] for row in report["per_n"])
    assert report["residuals"] and all(r["ok"] for r in report["residuals"])


def test_bounds_no_crossing_exit_code(config_path, capsys):
    code, report = run(["bounds", config_path, "--n-cap", "10000"], capsys)
    assert code == cli.EXIT_BOUND
    assert report["no_crossing"] and report["n0"] is None


def test_bounds_finite_n0(config_path, capsys):
    code, report = run(["bounds", config_path, "--n-cap", str(10**25)], capsys)
    assert code == cli.EXIT_OK
    assert report["n0"] == 59362923407947902848


def test_equal_modulus_n0(capsys):
    code, report = run(
        ["bounds", EQUAL_MODULUS_CONFIG, "--n-cap", str(10**40)], capsys
    )
    assert code == cli.EXIT_OK
    assert report["case"] == "equal_modulus"
    n0 = 10395187911310732708
    assert report["n0"] == n0
    assert report["branch_thresholds"] == {"xi-j1": n0, "xi-j2": n0, "xi-j3": n0}


def test_n_dependent_coefficient_n0(capsys, tmp_path):
    # A_n = (n+2) 2^(n-1) has c_A = (n+2)/2, so d2 = 1: m, e, the xi bound
    # and the coefficient heights all carry a log n term
    path = tmp_path / "n-dependent-cA.json"
    path.write_text(json.dumps({
        "A": {"recurrence": [1, -4, 4], "initial": [1, 3]},
        "B": {"recurrence": [1, -3], "initial": [1]},
    }))
    code, report = run(["bounds", str(path), "--n-cap", str(10**25)], capsys)
    assert code == cli.EXIT_OK
    n0 = 7636976776585388261696
    assert report["n0"] == n0
    assert report["branch_thresholds"] == {"altunit-j1": 313, "xi-j2": n0, "xi-j3": n0}
    assert len(report["trace"]) == 334


@pytest.mark.parametrize(
    "argv, want, keys",
    [
        (["verify", EXAMPLE_CONFIG], cli.EXIT_OK, ["n_hi", "n_lo", "working_bits", "y_max"]),
        (["solve", EXAMPLE_CONFIG], cli.EXIT_OK, ["n_hi", "n_lo", "y_max"]),
        (["bounds", EXAMPLE_CONFIG, "--n-cap", "10000"], cli.EXIT_BOUND, ["n_cap"]),
    ],
    ids=["verify", "solve", "bounds"],
)
def test_each_command_echoes_only_its_options(capsys, argv, want, keys):
    # the shipped config sets all five options; each command ignores the
    # ones it does not take
    code, report = run(argv, capsys)
    assert code == want
    assert list(report["config"]["options"]) == keys


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--bits", "256"),
        ("solve", "--n-cap", "10000"),
        ("solve", "--csv-out", "r.csv"),
        ("bounds", "--n-lo", "2"),
        ("bounds", "--n-hi", "8"),
        ("bounds", "--y-max", "50"),
        ("bounds", "--bits", "256"),
        ("bounds", "--csv-out", "r.csv"),
        ("verify", "--n-cap", "10000"),
    ],
)
def test_flag_the_command_does_not_take_is_usage_error(tmp_path, capsys, command, flag, value):
    argv = [command, EXAMPLE_CONFIG, flag, str(tmp_path / value) if flag == "--csv-out" else value]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not (tmp_path / "r.csv").exists()


def _assert_hypothesis_violation(path, capsys, message):
    for command in ("verify", "bounds"):
        assert cli.main([command, str(path)]) == cli.EXIT_HYPOTHESIS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hypothesis violated: {message}\n"


def test_equal_sequences_are_a_hypothesis_violation(tmp_path, capsys):
    # c_B - c_A vanishes identically, so no constant c5 exists: for A = B,
    # and for A = 2^n, B = 2^n + 1, whose dominant terms agree
    message = "c_B - c_A vanishes identically (equal dominant coefficients)"
    for name, A, B in (
        ("equal", CONFIG["B"], CONFIG["B"]),
        ("plus-one", {"recurrence": [1, -2], "initial": [1]},
         {"recurrence": [1, -3, 2], "initial": [2, 3]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(dict(CONFIG, A=A, B=B)))
        _assert_hypothesis_violation(p, capsys, message)


@pytest.mark.parametrize(
    "zero",
    [
        {"recurrence": [1, -2], "initial": [0]},  # A_n = 0
        {"recurrence": [1, -3, 2], "initial": [1, 1]},  # A_n = 1: the root 2 has coefficient 0
    ],
)
def test_zero_dominant_coefficient_is_a_hypothesis_violation(tmp_path, capsys, zero):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(dict(CONFIG, A=zero, B=CONFIG["A"])))
    message = "dominant coefficient must be nonzero"
    _assert_hypothesis_violation(p, capsys, message)
    assert cli.main(["solve", str(p)]) == cli.EXIT_HYPOTHESIS
    assert capsys.readouterr().err == f"hypothesis violated: {message}\n"


def test_zero_dominant_root_is_a_hypothesis_violation(tmp_path, capsys):
    # A = 5, 0, 0, ...: the dominant root alpha = 0 has no logarithm
    p = tmp_path / "zero.json"
    zero = {"recurrence": [1, 0], "initial": [5]}
    p.write_text(json.dumps(dict(CONFIG, A=zero, B={"recurrence": [1, -3], "initial": [1]})))
    _assert_hypothesis_violation(p, capsys, "dominant root must be nonzero")


def count_property(monkeypatch, name):
    """Count the computations of a cached property of the root contexts,
    such as the per-n logs ``coeff_logs``: the list of the n each one was
    computed at."""
    computed = []
    compute = getattr(cubic.CubicRootSet, name).func

    def counting(rs):
        computed.append(rs.n)
        return compute(rs)

    prop = cached_property(counting)
    prop.__set_name__(cubic.CubicRootSet, name)
    monkeypatch.setattr(cubic.CubicRootSet, name, prop)
    return computed


def test_verify_runs_each_stage_once(monkeypatch, capsys):
    calls = {"isolate_roots": [], "bullet": 0, "explicit_iv": 0}
    isolate = cubic.isolate_roots
    bullet = sequences._bullet_check
    explicit_iv, build = sequences.RecurrentSequence.explicit_iv, sequences.FamilyInstance.build

    def counting_isolate(fam, n, *args, **kwargs):
        calls["isolate_roots"].append(n)
        return isolate(fam, n, *args, **kwargs)

    def counting_bullet(*args):
        calls["bullet"] += 1
        return bullet(*args)

    def counting_explicit_iv(self, *args, **kwargs):
        calls["explicit_iv"] += 1
        return explicit_iv(self, *args, **kwargs)

    def recording_build(*args, **kwargs):
        calls["explicit_iv_at_build"] = calls["explicit_iv"]
        return build(*args, **kwargs)

    monkeypatch.setattr(cubic, "isolate_roots", counting_isolate)
    monkeypatch.setattr(sequences, "_bullet_check", counting_bullet)
    monkeypatch.setattr(sequences.RecurrentSequence, "explicit_iv", counting_explicit_iv)
    monkeypatch.setattr(sequences.FamilyInstance, "build", recording_build)
    coeff_logs = count_property(monkeypatch, "coeff_logs")
    xi_rhs = count_property(monkeypatch, "xi_rhs")
    sequences.FamilyInstance.terms.cache_clear()
    # the memo's misses count the computations of the family's constants
    constants = cubic.compute_constants.cache_info().misses
    code, report = run(["verify", EXAMPLE_CONFIG], capsys)
    assert code == cli.EXIT_OK
    in_scope = [row["n"] for row in report["per_n"] if row["in_scope"]]
    assert in_scope == list(range(2, 9))
    assert calls["isolate_roots"] == in_scope
    # the family's constants are computed once, whoever reads them
    assert cubic.compute_constants.cache_info().misses == constants + 1
    # one hypothesis pass over n = 1..n_hi
    n_hi = report["config"]["options"]["n_hi"]
    assert calls["bullet"] == n_hi
    assert sorted({r["n"] for r in report["residuals"]}) == in_scope
    # the explicit formula is checked at the initial terms while the
    # sequences are built, and never evaluated after that
    assert calls["explicit_iv_at_build"] > 0
    assert calls["explicit_iv"] == calls["explicit_iv_at_build"]
    # per-n values are computed once per n, not once per solution or stage
    assert coeff_logs == in_scope
    assert xi_rhs == in_scope


def test_verify_checks_xi_at_the_working_precision(monkeypatch, capsys):
    # the xi bound reads the per-n logs of the root context, at --bits, the
    # precision the lemma checks read them at: one computation per in-scope n
    contexts = []
    isolate = cubic.isolate_roots

    def recording_isolate(*args, **kwargs):
        contexts.append(isolate(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(cubic, "isolate_roots", recording_isolate)
    coeff_logs = count_property(monkeypatch, "coeff_logs")
    xi_rhs = count_property(monkeypatch, "xi_rhs")
    code, report = run(["verify", EXAMPLE_CONFIG, "--n-hi", "5", "--bits", "512"], capsys)
    assert code == cli.EXIT_OK
    in_scope = [row["n"] for row in report["per_n"] if row["in_scope"]]
    assert in_scope == list(range(2, 6))
    assert coeff_logs == xi_rhs == in_scope
    assert [rs.work_bits for rs in contexts] == [512] * len(in_scope)


def test_verify_decomposes_one_solution_of_each_mirror_pair(monkeypatch, capsys):
    # fib-pow2 has six solutions with y != 0 at each n = 2..60: three mirror
    # pairs, each decomposed once
    decomposed = []
    decompose = units.unit_decompose

    def counting(x, y, rs):
        decomposed.append(rs.n)
        return decompose(x, y, rs)

    monkeypatch.setattr(units, "unit_decompose", counting)
    code, report = run(
        ["verify", EXAMPLE_CONFIG, "--n-lo", "2", "--n-hi", "60", "--y-max", "50", "--bits", "512"],
        capsys,
    )
    assert code == cli.EXIT_OK
    in_scope = [row["n"] for row in report["per_n"] if row["in_scope"]]
    assert in_scope == list(range(2, 61))
    assert len(decomposed) == 177
    assert decomposed == [n for n in in_scope for _ in range(3)]


def test_equal_modulus_verify_checks_xi_off_y_zero(capsys):
    # the y = 0 solutions have no type, so the xi bound is not checked there
    code, report = run(
        ["verify", EQUAL_MODULUS_CONFIG, "--n-lo", "2", "--n-hi", "40", "--y-max", "50",
         "--bits", "512"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert len(report["per_n"]) == 39
    assert all(row["xi_bound_ok"] is True for row in report["per_n"])


def test_second_in_process_verify_compares_no_algebraic_numbers(capsys, monkeypatch):
    """Families compare by identity, so the memo-cache lookups of a second
    run, on a family equal to the first one, never compare roots exactly."""
    argv = ["verify", EXAMPLE_CONFIG, "--n-lo", "2", "--n-hi", "20", "--y-max", "50"]
    calls = []
    exact_eq = algebraic.AlgebraicNumber.__eq__

    def counting(self, other):
        calls.append(1)
        return exact_eq(self, other)

    monkeypatch.setattr(algebraic.AlgebraicNumber, "__eq__", counting)
    first = run(argv, capsys)
    calls.clear()
    assert run(argv, capsys) == first
    assert len(calls) == 0


def test_xi_bound_failure_exits_bound(config_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        return SimpleNamespace(ok=False)

    monkeypatch.setattr(units, "verify_xi_bound", failing)
    code, report = run(["verify", config_path], capsys)
    assert code == cli.EXIT_BOUND
    assert all(row["xi_bound_ok"] is False for row in report["per_n"])


def test_uncaught_certification_error_is_one_line(config_path, capsys, monkeypatch):
    def not_a_unit(*args, **kwargs):
        raise units.NotAUnit("x - lambda y is not +- lambda^b1 (lambda - A)^b2 at (x, y) = (7, 4)")

    monkeypatch.setattr(units, "unit_decompose", not_a_unit)
    assert cli.main(["verify", config_path]) == cli.EXIT_PRECISION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "not certified: NotAUnit: x - lambda y is not +- lambda^b1 (lambda - A)^b2"
        " at (x, y) = (7, 4)\n"
    )


def test_usage_errors(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "missing.json")]) == cli.EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", str(bad)]) == cli.EXIT_USAGE
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"A": CONFIG["A"]}))
    assert cli.main(["solve", str(incomplete)]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_option_validation(config_path, capsys):
    assert cli.main(["solve", config_path, "--n-lo", "5", "--n-hi", "2"]) == cli.EXIT_USAGE
    assert cli.main(["solve", config_path, "--y-max", "-3"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_bits_below_minimum_is_usage_error(config_path, capsys):
    assert cli.main(["verify", config_path, "--bits", "10"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: option working_bits must be at least 64\n"


def test_bits_above_cap_is_usage_error(config_path, capsys):
    # refinement doubles up to 2^14 bits, so a larger working precision is refused
    assert cli.main(["verify", config_path, "--bits", str(2**14 + 1)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: option working_bits must be at most 16384\n"


def test_short_initial_terms_is_usage_error(tmp_path, capsys):
    p = tmp_path / "short.json"
    p.write_text(json.dumps(dict(CONFIG, A={"recurrence": [1, -1, -1], "initial": [1]})))
    assert cli.main(["solve", str(p)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bad sequence spec: initial_terms must match recurrence order\n"
    )


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"recurrence": [1, -1.5, -1], "initial": [1, 2]},
         "recurrence entries must be integers, got -1.5"),
        ({"recurrence": [1, -1, -1], "initial": [1, 2.5]},
         "initial entries must be integers, got 2.5"),
        ({"recurrence": [1, -1, -1], "initial": [False, 2]},
         "initial entries must be integers, got False"),
    ],
)
def test_non_integer_spec_is_usage_error(tmp_path, capsys, spec, message):
    p = tmp_path / "float.json"
    p.write_text(json.dumps(dict(CONFIG, A=spec)))
    assert cli.main(["bounds", str(p)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad sequence spec: {message}\n"


def test_roots_key_is_usage_error(tmp_path, capsys):
    p = tmp_path / "root.json"
    root = {"minpoly": [1, -1, -1], "enclosure": ["8/5", "13/8"]}
    p.write_text(json.dumps(dict(CONFIG, A=dict(CONFIG["A"], roots=[root]))))
    assert cli.main(["solve", str(p)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bad sequence spec: 'roots' is not supported: recurrence and initial"
        " fix the explicit formula\n"
    )


@pytest.mark.parametrize(
    "root, parse_error",
    [
        ({"minpoly": [3], "enclosure": [1, 2]}, "minpoly must have degree >= 1, got [3]"),
        ({"minpoly": [0, 0], "enclosure": [1, 2]}, "minpoly must have degree >= 1, got [0, 0]"),
        ({"minpoly": [1, -1, -1], "enclosure": ["1/0", 3]}, "zero denominator in '1/0'"),
    ],
)
def test_malformed_root_spec_is_usage_error(tmp_path, capsys, root, parse_error):
    # A malformed root is refused for its 'roots' key, before anything parses it.
    p = tmp_path / "root.json"
    p.write_text(json.dumps(dict(CONFIG, A=dict(CONFIG["A"], roots=[root]))))
    assert cli.main(["solve", str(p)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert parse_error not in captured.err
    assert captured.err == (
        "error: bad sequence spec: 'roots' is not supported: recurrence and initial"
        " fix the explicit formula\n"
    )


def test_boolean_option_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(dict(CONFIG, options={"n_hi": True})))
    assert cli.main(["solve", str(p)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: option n_hi must be a positive integer\n"


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(CONFIG, options=[1, 2]), "options must be a JSON object"),
        (dict(CONFIG, options=None), "options must be a JSON object"),
        ([CONFIG], "config must be a JSON object"),
        (3, "config must be a JSON object"),
        (dict(CONFIG, options={"n_lo": 2, "ymax": 5}), "unknown option ymax"),
        (dict(CONFIG, name=["x"]), "name must be a string"),
    ],
)
def test_non_object_config_is_usage_error(tmp_path, capsys, config, message):
    p = tmp_path / "shape.json"
    p.write_text(json.dumps(config))
    assert cli.main(["solve", str(p)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# sha256 of the canonical reports (stdout, then --md-out and --csv-out for
# verify) and the exit code of each command: a refactor must leave every
# byte of them unchanged
PINNED_REPORTS = {
    "solve-fib-pow2": (
        ["solve", EXAMPLE_CONFIG, "--n-lo", "2", "--n-hi", "12", "--y-max", str(10**30)],
        cli.EXIT_OK,
        ("fb8422283ea036cb14b15575495b7233000de34abadd1496cf563bc1bf8715d9",),
    ),
    "verify-fib-pow2": (
        ["verify", EXAMPLE_CONFIG, "--n-lo", "2", "--n-hi", "60", "--y-max", "50", "--bits", "512"],
        cli.EXIT_OK,
        (
            "c03b4f021c9d0ffed8db9d82787cfa83a156bf75be972bdaf4473fdba00f7a1c",
            "bd7e111f7cf5d5adb16cfe45f756f12acb8a4c4254605d49fcfcf6398d500fd7",
            "63ee65201f15cb4694a935e4a2caf0a76bef17242f483b06abef7fa97958e9f1",
        ),
    ),
    "bounds-fib-pow2-cap-1e19": (
        ["bounds", EXAMPLE_CONFIG, "--n-cap", str(10**19)],
        cli.EXIT_BOUND,
        ("d44fb15120aca66c4eaab695ea776beb44a4dc7c4f876d1438b345b406ef2607",),
    ),
    "bounds-fib-pow2-cap-1e25": (
        ["bounds", EXAMPLE_CONFIG, "--n-cap", str(10**25)],
        cli.EXIT_OK,
        ("7287043efa9bff7a0439ac5931e15ed2f8a9589bd0559e01f40fde27841a1715",),
    ),
    "verify-equal-modulus": (
        ["verify", EQUAL_MODULUS_CONFIG, "--n-lo", "2", "--n-hi", "40", "--y-max", "50", "--bits", "512"],
        cli.EXIT_OK,
        (
            "9ba706246f141c377e2062c7f48dbed3479f7b20dcaddf333cff99a81eda3d15",
            "0b21444b825a2bf4cca8d105c80829235fbebde9ddd9ecbdadf4b09171ea2787",
            "39f62457f011e6ed2bb8fb4bed578fc7a292f162945b947c39ed7e1b33c415d4",
        ),
    ),
    "bounds-equal-modulus-cap-1e40": (
        ["bounds", EQUAL_MODULUS_CONFIG, "--n-cap", str(10**40)],
        cli.EXIT_OK,
        ("a43bfea5c9d901d97262d220c34160ebf26ab79a8c62d5e8e61478cdfc9c9beb",),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_canonical_reports_are_pinned(name, tmp_path, capsys):
    argv, want_code, want_hashes = PINNED_REPORTS[name]
    files = []
    if argv[0] == "verify":
        files = [tmp_path / "report.md", tmp_path / "residuals.csv"]
        argv = argv + ["--md-out", str(files[0]), "--csv-out", str(files[1])]
    code = cli.main(argv)
    outputs = [capsys.readouterr().out.encode()] + [f.read_bytes() for f in files]
    assert code == want_code
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == want_hashes


@pytest.mark.parametrize(
    "config, n_hi",
    [(EXAMPLE_CONFIG, "30"), (EQUAL_MODULUS_CONFIG, "20")],
)
def test_reports_do_not_depend_on_the_global_interval_precision(monkeypatch, capsys, config, n_hi):
    argv = ["verify", config, "--n-lo", "2", "--n-hi", n_hi, "--bits", "512"]
    assert_independent_of_global_precision(argv, cli.EXIT_OK, monkeypatch, capsys)


@pytest.mark.parametrize(
    "argv, want",
    [
        (["solve", EXAMPLE_CONFIG, "--n-lo", "2", "--n-hi", "12"], cli.EXIT_OK),
        (["bounds", EXAMPLE_CONFIG, "--n-cap", str(10**19)], cli.EXIT_BOUND),
    ],
    ids=["solve", "bounds"],
)
def test_solve_and_bounds_do_not_depend_on_the_global_interval_precision(monkeypatch, capsys, argv, want):
    assert_independent_of_global_precision(argv, want, monkeypatch, capsys)


def assert_independent_of_global_precision(argv, want, monkeypatch, capsys):
    # every interval step runs at the command's own precision, so mpmath's
    # global iv.prec (53 by default) leaves no trace in the report
    reports = []
    for prec in (53, 20, 300):
        monkeypatch.setattr(mpmath.iv, "prec", prec)
        code = cli.main(argv)
        reports.append((code, capsys.readouterr().out))
    assert reports[0][0] == want
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


# A_n = (10^12 + n/2) 2^n has a dominant coefficient of degree 1 whose
# leading term takes over only near n = 4 * 10^12
STEEP_COEFFICIENT = {
    "A": {"recurrence": [1, -4, 4], "initial": [10**12, 2 * 10**12 + 1]},
    "B": {"recurrence": [1, -3], "initial": [1]},
}


@pytest.mark.parametrize("command, want", [("verify", cli.EXIT_HYPOTHESIS), ("bounds", cli.EXIT_BOUND)])
def test_steep_coefficient_family_is_decided_quickly(tmp_path, capsys, command, want):
    p = tmp_path / "steep.json"
    p.write_text(json.dumps(dict(STEEP_COEFFICIENT, options={"n_hi": 3})))
    start = time.perf_counter()
    assert cli.main([command, str(p)]) == want
    assert time.perf_counter() - start < 10
    capsys.readouterr()


def test_stdin_config(capsys, monkeypatch, tmp_path):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CONFIG)))
    code, report = run(["solve", "-"], capsys)
    assert code == cli.EXIT_OK
    assert report["config"]["name"] == "fibonacci-pow2"


def test_output_files(config_path, tmp_path, capsys):
    j = tmp_path / "out.json"
    m = tmp_path / "out.md"
    c = tmp_path / "out.csv"
    code = cli.main(
        ["verify", config_path, "--json-out", str(j), "--md-out", str(m), "--csv-out", str(c)]
    )
    capsys.readouterr()
    assert code == cli.EXIT_OK
    report = json.loads(j.read_text())
    assert report["command"] == "verify"
    md = m.read_text()
    assert md.startswith("# split-thue verify report")
    header = c.read_text().splitlines()[0]
    assert header == "n,name,residual,bound,ratio,ok"


@pytest.mark.parametrize("flag", ["--json-out", "--md-out", "--csv-out"])
def test_unwritable_output_path_is_usage_error(config_path, tmp_path, capsys, flag):
    path = tmp_path / "missing" / "r.md"
    assert cli.main(["verify", config_path, flag, str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize(
    "bad, reason", [("missing/x.md", "No such file or directory"), ("a-directory", "Is a directory")]
)
def test_output_files_are_written_all_or_none(config_path, tmp_path, capsys, bad, reason):
    ok, bad = tmp_path / "ok.json", tmp_path / bad
    (tmp_path / "a-directory").mkdir()
    argv = ["solve", config_path, "--n-lo", "2", "--n-hi", "3", "--json-out", str(ok), "--md-out", str(bad)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: cannot write {bad}: {reason}\n"
    assert not ok.exists()
    ok.write_bytes(b"old report")
    assert cli.main(argv) == cli.EXIT_USAGE
    assert ok.read_bytes() == b"old report"
    assert sorted(os.listdir(tmp_path)) == ["a-directory", "family.json", "ok.json"]  # no temporary file is left


def test_deterministic_json(config_path, tmp_path, capsys):
    outs = []
    for i in range(2):
        p = tmp_path / f"run{i}.json"
        cli.main(["verify", config_path, "--json-out", str(p)])
        outs.append(p.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_commands_run_without_sympy():
    # sympy is a test-only oracle: no command imports it
    script = f"""
import contextlib, io, sys
from split_thue import cli
config = {EXAMPLE_CONFIG!r}
for argv in (
    ["solve", config, "--n-lo", "2", "--n-hi", "4", "--y-max", "1000"],
    ["verify", config, "--n-lo", "2", "--n-hi", "6", "--y-max", "50", "--bits", "512"],
    ["bounds", config, "--n-cap", "10000000000000000000"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
sys.exit("sympy" in sys.modules)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0
