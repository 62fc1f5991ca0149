"""Command-line entry point: parse family configs, run the verification
pipelines, and emit deterministic machine- and human-readable reports."""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import sys
from collections import namedtuple

from . import bounds, cubic, solver
from .precision import MAX_BITS, MIN_WORKING_BITS, WORKING_BITS, PrecisionExhausted, SplitThueError
from .sequences import FamilyInstance, HypothesisViolated, check_hypotheses, sequence_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BOUND = 3
EXIT_NONTRIVIAL = 4
EXIT_PRECISION = 5


class ConfigError(SplitThueError):
    pass


def load_config(args) -> dict:
    """Read the family config from a path or stdin and fold in the command's flags."""
    if args.config and args.config != "-":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    else:
        raw = sys.stdin.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, col {exc.colno}): {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("A", "B"):
        if key not in data:
            raise ConfigError(f"config is missing the '{key}' sequence spec")
    data.setdefault("name", "unnamed-family")
    if not isinstance(data["name"], str):
        raise ConfigError("name must be a string")
    given = data.get("options", {})
    if not isinstance(given, dict):
        raise ConfigError("options must be a JSON object")
    unknown = sorted(given.keys() - DEFAULTS.keys())
    if unknown:
        raise ConfigError("unknown option " + ", ".join(unknown))
    opts = {}
    for key in COMMANDS[args.command].keys:
        flag = getattr(args, key)
        opts[key] = val = given.get(key, DEFAULTS[key]) if flag is None else flag
        if not isinstance(val, int) or isinstance(val, bool) or val <= 0:
            raise ConfigError(f"option {key} must be a positive integer")
    if opts.get("working_bits", WORKING_BITS) < MIN_WORKING_BITS:
        raise ConfigError(f"option working_bits must be at least {MIN_WORKING_BITS}")
    if opts.get("working_bits", WORKING_BITS) > MAX_BITS:
        raise ConfigError(f"option working_bits must be at most {MAX_BITS}")
    if "n_lo" in opts and opts["n_lo"] > opts["n_hi"]:
        raise ConfigError("n_lo must not exceed n_hi")
    data["options"] = opts
    return data


def build_family(config, args):
    """The family of a loaded config and its working precision, None for a
    command that takes none; ``load_config`` has folded the flags in."""
    try:
        A = sequence_from_json(config["A"])
        B = sequence_from_json(config["B"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad sequence spec: {exc}") from exc
    return FamilyInstance.build(A, B), config["options"].get("working_bits")


def _num(x):
    """JSON-safe number: exact for ints, float elsewhere."""
    if isinstance(x, bool) or isinstance(x, int):
        return x
    return float(x)


def _constants(consts):
    return {key: _num(getattr(consts, key)) for key in ("C", "eps", "c5", "c6")}


def _config_echo(config):
    return {"name": config["name"], "options": dict(sorted(config["options"].items()))}


def _solution_row(s):
    return {"x": s.x, "y": s.y, "n": s.n, "sign": s.sign, "class": s.classification}


def cmd_solve(config, args):
    fam, _ = build_family(config, args)
    opts = config["options"]
    report = {"command": "solve", "config": _config_echo(config), "per_n": []}
    code = EXIT_OK
    for n in range(opts["n_lo"], opts["n_hi"] + 1):
        sols = solver.solve_bruteforce(fam, n, opts["y_max"])
        nontrivial = [s for s in sols if s.classification == "nontrivial"]
        if nontrivial:
            code = EXIT_NONTRIVIAL
        report["per_n"].append(
            {
                "n": n,
                "solutions": [_solution_row(s) for s in sols],
                "nontrivial_count": len(nontrivial),
            }
        )
    report["nontrivial_found"] = sum(p["nontrivial_count"] for p in report["per_n"])
    return report, code


def cmd_verify(config, args):
    fam, bits = build_family(config, args)
    opts = config["options"]
    fv = solver.verify_family(fam, opts["n_lo"], opts["n_hi"], opts["y_max"], bits)
    hyp = fv.hypotheses
    threshold = hyp.first_n_all_pass
    per_n = []
    residuals = []
    any_out_of_scope = False
    check_fail_beyond = False
    code = EXIT_OK
    for rep in fv.per_n:
        row = {
            "n": rep.n,
            "in_scope": rep.in_scope,
            "solutions": [_solution_row(s) for s in rep.solutions],
            "nontrivial": [_solution_row(s) for s in rep.nontrivial],
            "lemma_root_approx": rep.lemma_root_approx,
            "lemma_log_approx": rep.lemma_log_approx,
            "lemma_root_diff": rep.lemma_root_diff,
            "xi_bound_ok": rep.xi_bound_ok,
        }
        if not rep.in_scope:
            any_out_of_scope = True
            row["failures"] = [reason for _, reason in rep.hypothesis_failures]
        elif threshold is not None and rep.n >= threshold:
            if False in (rep.lemma_log_approx, rep.lemma_root_diff, rep.xi_bound_ok):
                check_fail_beyond = True
        per_n.append(row)
        if rep.residuals is not None:
            residuals.extend(
                {"n": rep.n, "name": e.name, "residual": e.residual, "bound": e.bound,
                 "ratio": e.ratio, "ok": e.ok}
                for e in rep.residuals.entries
            )
    if fv.nontrivial_found:
        code = EXIT_NONTRIVIAL
    elif check_fail_beyond:
        code = EXIT_BOUND
    elif any_out_of_scope and threshold is None:
        code = EXIT_HYPOTHESIS
    report = {
        "command": "verify",
        "config": _config_echo(config),
        "case": fam.case_tag,
        "hypotheses": {
            "passed": hyp.passed,
            "first_n_all_pass": hyp.first_n_all_pass,
            "bullet": hyp.bullet,
            "equal_case_condition": hyp.equal_case_condition,
        },
        "constants": _constants(fv.constants),
        "per_n": per_n,
        "residuals": residuals,
        "nontrivial_found": len(fv.nontrivial_found),
        "flags": ["c5-inverted-in-upper-bound", "j3-cB-row-rederived"],
    }
    return report, code


def cmd_bounds(config, args):
    fam, _ = build_family(config, args)
    opts = config["options"]
    consts = cubic.compute_constants(fam)
    res = bounds.compute_n0(fam, n_cap=opts["n_cap"])
    trace = [
        {
            "n": r.n,
            "branch": r.branch,
            "R_upper": r.R_upper,
            "logy_upper": r.logy_upper,
            # null marks "no lower bound yet"
            "baker_lower_exponent": None if r.baker_lower_exponent is None
            else float(r.baker_lower_exponent),
            "xi_upper_log": float(r.xi_upper_log),
            "verdict": r.verdict,
        }
        for r in res.trace
    ]
    report = {
        "command": "bounds",
        "config": _config_echo(config),
        "case": fam.case_tag,
        "constants": _constants(consts),
        "n0": res.n0,
        "no_crossing": res.no_crossing,
        "n_cap": res.n_cap,
        "branch_thresholds": dict(sorted(res.branch_thresholds.items())),
        "trace": trace,
        "flags": ["c5-inverted-in-upper-bound"],
    }
    if fam.equal_modulus:
        hyp = check_hypotheses(fam, 20)
        report["equal_case_condition"] = hyp.equal_case_condition
    code = EXIT_OK if not res.no_crossing else EXIT_BOUND
    return report, code


def to_canonical_json(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=True) + "\n"


def to_markdown(report) -> str:
    out = io.StringIO()
    out.write(f"# split-thue {report['command']} report\n\n")
    out.write(f"- family: **{report['config']['name']}**\n")
    for key, val in report["config"]["options"].items():
        out.write(f"- {key}: {val}\n")
    if "case" in report:
        out.write(f"- case: {report['case']}\n")
    if "constants" in report:
        c = report["constants"]
        out.write(
            f"- constants: C={c['C']:.6g}, eps={c['eps']:.6g}, "
            f"c5={c['c5']:.6g}, c6={c['c6']:.6g}\n"
        )
    if "n0" in report:
        out.write("\n## Effective threshold\n\n")
        if report["no_crossing"]:
            out.write(f"No crossing found below the cap {report['n_cap']}.\n")
        else:
            out.write(f"n0 = {report['n0']} (all branches contradict beyond this point).\n")
        for branch, thr in report.get("branch_thresholds", {}).items():
            out.write(f"- {branch}: {thr}\n")
    if "per_n" in report:
        out.write("\n## Per-n results\n\n")
        for row in report["per_n"]:
            nsol = len(row.get("solutions", []))
            nn = row.get("nontrivial_count", len(row.get("nontrivial", [])))
            mark = "NONTRIVIAL" if nn else "ok"
            out.write(f"- n={row['n']}: {nsol} solutions, {mark}\n")
    if report.get("flags"):
        out.write("\n_Caveats: " + ", ".join(report["flags"]) + "_\n")
    return out.getvalue()


def residuals_csv(report) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n", "name", "residual", "bound", "ratio", "ok"])
    for row in report.get("residuals", []):
        writer.writerow([row["n"], row["name"], row["residual"], row["bound"], row["ratio"], row["ok"]])
    return out.getvalue()


Command = namedtuple("Command", "run help keys outputs")
# the flag of a config key is the key with dashes, except --bits for working_bits
COMMANDS = {
    "verify": Command(cmd_verify, "hypothesis checks, lemma residuals and brute-force solving",
                      ("n_lo", "n_hi", "y_max", "working_bits"), ("json_out", "md_out", "csv_out")),
    "bounds": Command(cmd_bounds, "effective bound chain and the threshold n0", ("n_cap",), ("json_out", "md_out")),
    "solve": Command(cmd_solve, "brute-force solving only", ("n_lo", "n_hi", "y_max"), ("json_out", "md_out")),
}
DEFAULTS = {"n_lo": 1, "n_hi": 10, "y_max": 100, "working_bits": WORKING_BITS, "n_cap": 10**7}
RENDERERS = {"json_out": to_canonical_json, "md_out": to_markdown, "csv_out": residuals_csv}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="split-thue",
        description="Verify approximation lemmas, effective bounds and "
        "trivial-only solutions for split families of cubic Thue equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("config", nargs="?", help="family config JSON path (default: stdin)")
        for dest in command.keys + command.outputs:
            flag = "--bits" if dest == "working_bits" else "--" + dest.replace("_", "-")
            p.add_argument(flag, dest=dest, type=int if dest in command.keys else None)
    return parser


def _write_all(outputs):
    """Write every (path, text) pair or none: each text goes to a temporary
    file beside its path, and the temporaries replace their paths only once
    all of them are written (a directory, which no file replaces, is refused
    first)."""
    temps = []
    try:
        for i, (path, text) in enumerate(outputs):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
            with open(tmp, "x", encoding="utf-8") as fh:
                temps.append(tmp)
                fh.write(text)
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = load_config(args)
        report, code = COMMANDS[args.command].run(config, args)
        outputs = [(getattr(args, dest), RENDERERS[dest]) for dest in COMMANDS[args.command].outputs]
        _write_all([(path, render(report)) for path, render in outputs if path])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except SplitThueError as exc:
        # e.g. NotAUnit, UndecidedComparison, InconsistentModel
        print(f"not certified: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    if not args.json_out:
        sys.stdout.write(to_canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
