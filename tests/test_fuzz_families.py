"""A corpus of small families run through the CLI in process: a fixed seed
list of random families (recurrence orders 1-4, coefficients in [-5, 5],
initial terms in [-6, 9]) and six fixed families with irreducible cubics
and quartics, four of which kept ``bounds`` busy for more than 30 s while the
field degree joined the secondary roots.  Each run must end within its time
limit with a documented exit code, raise nothing out of ``cli.main``, and
print the same bytes when run again.  The ``bounds`` exit code, ``n0`` and
branch thresholds of each are pinned, so that a change to the threshold
search cannot move a threshold unseen."""

import contextlib
import json
import random
import signal

import pytest

from split_thue import FamilyInstance, cli
from split_thue.bounds import field_degree
from split_thue.sequences import sequence_from_json

SEEDS = range(40)
TIME_LIMIT_S = 5
DOCUMENTED_EXITS = {
    cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_HYPOTHESIS, cli.EXIT_BOUND, cli.EXIT_NONTRIVIAL, cli.EXIT_PRECISION,
}
COMMANDS = (
    ["verify", "--n-lo", "2", "--n-hi", "6", "--y-max", "50"],
    ["bounds", "--n-cap", "1000000"],
)


def _seq(recurrence, initial):
    return {"recurrence": recurrence, "initial": initial}


# (A, B, the field degree D of Q(alpha, beta))
FIXED = {
    "linear-quartic": (_seq([1, 1], [-4]), _seq([1, -2, -4, 3, 1], [-5, -3, 1, -5]), 4),
    "quartic-cubic": (_seq([1, -4, 1, 2, 1], [-4, -1, -1, -2]), _seq([1, -5, -3, 4], [8, -2, 9]), 12),
    "quadratic-quartic": (_seq([1, 4, -4], [-5, 4]), _seq([1, 5, 3, 3, 3], [9, -3, -5, 1]), 8),
    "s3-pair": (_seq([1, 4, -5, 1], [-2, 0, 7]), _seq([1, 2, -3, 4], [-3, 4, -5]), 9),
    "quadratic-cubic": (_seq([1, 3, 1], [8, 2]), _seq([1, 4, -5, 1], [-2, 0, 7]), 6),
    "cubic-quadratic": (_seq([1, 2, -3, 4], [-3, 4, -5]), _seq([1, -4, 1], [-2, -2]), 6),
}


# `bounds --n-cap 1000000` of each family: its exit code (H, B or P) and, when it reports,
# its altunit-j1 threshold; every report has n0 = None and no xi threshold
H, B, P = cli.EXIT_HYPOTHESIS, cli.EXIT_BOUND, cli.EXIT_PRECISION
BOUNDS_AT_CAP = {
    "linear-quartic": (B, 113), "quartic-cubic": (B, 294), "quadratic-quartic": (B, 1521),
    "s3-pair": (B, 291), "quadratic-cubic": (B, 191), "cubic-quadratic": (B, 985),
    "seed-0": (B, 211), "seed-1": (B, 138), "seed-2": (H, None), "seed-3": (B, 263), "seed-4": (B, 196),
    "seed-5": (H, None), "seed-6": (B, 237), "seed-7": (H, None), "seed-8": (H, None), "seed-9": (B, 88),
    "seed-10": (P, None), "seed-11": (B, 301), "seed-12": (H, None), "seed-13": (H, None), "seed-14": (B, 152),
    "seed-15": (B, 327), "seed-16": (H, None), "seed-17": (B, 931), "seed-18": (H, None), "seed-19": (H, None),
    "seed-20": (B, 497), "seed-21": (H, None), "seed-22": (B, 96), "seed-23": (B, 442), "seed-24": (B, 2973),
    "seed-25": (B, 203), "seed-26": (B, 275), "seed-27": (B, 1210), "seed-28": (H, None), "seed-29": (B, 85),
    "seed-30": (H, None), "seed-31": (B, 332), "seed-32": (B, 1706), "seed-33": (B, 314), "seed-34": (B, 137),
    "seed-35": (B, 623), "seed-36": (H, None), "seed-37": (H, None), "seed-38": (B, 314), "seed-39": (H, None),
}


def random_sequence(rng):
    # a nonzero constant term keeps 0 from being a characteristic root
    order = rng.randint(1, 4)
    coeffs = [rng.randint(-5, 5) for _ in range(order - 1)] + [rng.choice([c for c in range(-5, 6) if c])]
    return _seq([1] + coeffs, [rng.randint(-6, 9) for _ in range(order)])


def random_family(seed):
    rng = random.Random(seed)
    return random_sequence(rng), random_sequence(rng)


@contextlib.contextmanager
def time_limit(seconds, what):
    def timeout(signum, frame):
        raise TimeoutError(f"{what} ran for more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run(argv, capsys):
    with time_limit(TIME_LIMIT_S, " ".join(argv)):
        code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name, family",
    [pytest.param(name, FIXED[name][:2], id=name) for name in FIXED]
    + [pytest.param(f"seed-{seed}", random_family(seed), id=f"seed-{seed}") for seed in SEEDS],
)
def test_family_runs_to_a_documented_exit(name, family, tmp_path, capsys):
    config = tmp_path / "family.json"
    config.write_text(json.dumps({"A": family[0], "B": family[1]}))
    for command in COMMANDS:
        argv = [command[0], str(config), *command[1:]]
        first = _run(argv, capsys)
        assert first[0] in DOCUMENTED_EXITS, (argv, first)
        assert _run(argv, capsys) == first, argv
    code, out, _ = first  # the bounds run, the last of COMMANDS
    want_code, altunit = BOUNDS_AT_CAP[name]
    assert code == want_code
    if altunit is None:
        assert out == ""
    else:
        report = json.loads(out)
        assert report["n0"] is None
        assert report["branch_thresholds"] == {"altunit-j1": altunit, "xi-j2": None, "xi-j3": None}


@pytest.mark.parametrize("name", FIXED)
def test_fixed_family_field_degree(name):
    a, b, D = FIXED[name]
    fam = FamilyInstance.build(sequence_from_json(a), sequence_from_json(b))
    with time_limit(TIME_LIMIT_S, f"field_degree of {name}"):
        assert field_degree(fam) == D


def test_s3_pair_has_no_crossing_below_the_cap(tmp_path, capsys):
    config = tmp_path / "family.json"
    config.write_text(json.dumps(dict(zip("AB", FIXED["s3-pair"][:2]))))
    code, out, _ = _run(["bounds", str(config), "--n-cap", "1000000"], capsys)
    report = json.loads(out)
    assert code == cli.EXIT_BOUND
    assert report["no_crossing"] is True
    assert report["branch_thresholds"]["altunit-j1"] == 291
