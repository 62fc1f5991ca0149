"""Run one split-thue CLI command in this process and record where its time went.

    python3 child.py RECORD MODE CLI_ARG...

MODE is one of
  plain  time `import split_thue` and the one `cli.build_family` call, then
         run `cli.main` exactly as the `split-thue` console script does;
  setup  the same import and family build, then exit without running a command;
  trace  as `plain`, and also wrap the public functions of every layer so that
         each call becomes a span (name, start, end, parent) in memory.

The record (JSON) is written when the process ends, even if the command raises.
Times come from `time.perf_counter`, which on Linux reads CLOCK_MONOTONIC and so
shares its clock with the parent process that spawned this one.
"""

import functools
import importlib
import inspect
import json
import sys
import time

# Spans: (metric that gets their self time, module, function). Every module
# attribute that holds one of these functions is replaced by a wrapper, so
# `from .x import f` sites are traced too. "FamilyInstance.build" is the
# classmethod on that class.
SPANS = (
    ("sequences.build_s", "sequences", "sequence_from_json"),
    ("sequences.build_s", "sequences", "FamilyInstance.build"),
    ("sequences.hypotheses_s", "sequences", "check_hypotheses"),
    ("sequences.hypotheses_s", "sequences", "check_hypotheses_at"),
    ("algebraic.field_arith_s", "algebraic", "field_arith"),
    ("bounds.field_degree_s", "bounds", "field_degree"),
    ("bounds.compute_n0_s", "bounds", "compute_n0"),
    ("cubic.isolate_s", "cubic", "isolate_roots"),
    ("cubic.lemma_s", "cubic", "verify_root_approx"),
    ("cubic.lemma_s", "cubic", "verify_log_approx"),
    ("cubic.lemma_s", "cubic", "verify_root_diff"),
    ("units.s", "units", "unit_decompose"),
    ("units.s", "units", "solution_type"),
    ("units.s", "units", "verify_xi_bound"),
    ("solver.solve_s", "solver", "solve_bruteforce"),
)
# Functions whose calls are counted but not timed apart from their caller.
COUNTED = (
    ("bounds", "log_coeff_bound"),
    ("cubic", "compute_constants"),
)
# The argument recorded with each span of these functions.
SPAN_ARG = {"isolate_roots": "n", "solve_bruteforce": "y_max"}


def _replace_everywhere(orig, wrapper):
    """Point every split_thue module attribute that holds `orig` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "split_thue" or name.startswith("split_thue.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install_tracing(record):
    """Wrap the layer functions; spans and counts go into `record`."""
    spans = record["spans"]
    counts = record["counts"]
    stack = []

    def span_wrapper(fn, key, argname):
        sig = inspect.signature(fn) if argname else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arg = sig.bind(*args, **kwargs).arguments.get(argname) if sig else None
            idx = len(spans)
            spans.append([key, time.perf_counter(), None, stack[-1] if stack else None, arg])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def count_wrapper(fn, key):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    targets = [(mod, fn, metric) for metric, mod, fn in SPANS]
    targets += [(mod, fn, None) for mod, fn in COUNTED]
    for modname, fname, metric in targets:
        mod = importlib.import_module(f"split_thue.{modname}")
        key = f"{modname}.{fname}"
        owner, _, attr = fname.rpartition(".")
        if owner:  # a classmethod: wrap the function and rebind it on the class
            cls = getattr(mod, owner, None)
            cm = vars(cls).get(attr) if cls is not None else None
            if not isinstance(cm, classmethod):
                record["missing"].append(key)
                continue
            setattr(cls, attr, classmethod(span_wrapper(cm.__func__, key, None)))
            record["layers"][key] = metric
            continue
        orig = getattr(mod, fname, None)
        if orig is None:
            record["missing"].append(key)
            continue
        if metric is None:
            _replace_everywhere(orig, count_wrapper(orig, key))
        else:
            _replace_everywhere(orig, span_wrapper(orig, key, SPAN_ARG.get(fname)))
            record["layers"][key] = metric


def main(argv):
    record_path, mode, cli_args = argv[0], argv[1], argv[2:]
    record = {"spans": [], "counts": {}, "layers": {}, "missing": []}
    try:
        t0 = time.perf_counter()
        import split_thue  # noqa: F401
        from split_thue import cli

        t1 = time.perf_counter()
        record["import"] = [t0, t1]
        record["spans"].append(["cli.import", t0, t1, None, None])
        record["layers"]["cli.import"] = "cli.import_s"

        import mpmath
        import sympy

        record["env"] = {
            "python": sys.version.split()[0],
            "sympy": sympy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "split_thue_file": split_thue.__file__,
        }
        if mode == "trace":
            install_tracing(record)

        build_family = cli.build_family

        @functools.wraps(build_family)
        def timed_build_family(*args, **kwargs):
            b0 = time.perf_counter()
            try:
                return build_family(*args, **kwargs)
            finally:
                record.setdefault("build", [b0, time.perf_counter()])

        cli.build_family = timed_build_family
        if mode == "setup":
            args = cli.make_parser().parse_args(cli_args)
            cli.build_family(cli.load_config(args), args)
            return 0
        return cli.main(cli_args)
    finally:
        record["t_end"] = time.perf_counter()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
