"""The benchmark's exact n0 check (perfbench/check.py) calls the public bound
functions directly; a change to their names, signatures or return types must
fail here, not only in a benchmark run."""

import importlib.util
import os

CHECK_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "check.py")


def _load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_branches_altunit_threshold():
    exact = _load_check().ExactBranches("fib-pow2", 256)
    assert exact.contradiction(568, "altunit-j1")
    assert not exact.contradiction(567, "altunit-j1")


def test_exact_branches_xi_threshold():
    # n0 of fib-pow2, where both xi branches first contradict; the check
    # reaches xi_heights, exponent_bound_B, baker_lower and xi_upper_log
    exact = _load_check().ExactBranches("fib-pow2", 256)
    assert exact.first_from(59362923407947902848, ["xi-j2", "xi-j3"])
    assert not exact.contradiction(10**19, "xi-j2")
