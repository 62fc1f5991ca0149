"""Per-layer metrics from the spans of one traced CLI run.

A span's self time is its duration minus the durations of the spans it called
(calls nest, since the program is single-threaded). The root span runs from the
parent spawning the process to its exit, so `cli.self_s` holds interpreter
start-up and exit, argument parsing, report assembly and JSON output.
"""

# Self time of each layer; with cli.self_s they add up to the traced wall time.
TIME_METRICS = (
    "cli.import_s",
    "sequences.build_s",
    "sequences.hypotheses_s",
    "algebraic.field_arith_s",
    "bounds.field_degree_s",
    "bounds.compute_n0_s",
    "cubic.isolate_s",
    "cubic.lemma_s",
    "units.s",
    "solver.solve_s",
)

# (metric, unit) in the order they are reported; trace.overhead_s is added by
# the caller, which also runs the untraced op it is measured against.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("sequences.build_s", "s"),
    ("sequences.hypotheses_s", "s"),
    ("sequences.hypotheses_calls", "count"),
    ("algebraic.field_arith_s", "s"),
    ("algebraic.field_arith_calls", "count"),
    ("bounds.field_degree_s", "s"),
    ("bounds.compute_n0_s", "s"),
    ("bounds.probes", "count"),
    ("bounds.log_coeff_bound_calls", "count"),
    ("bounds.log_coeff_bound_per_probe", "calls/probe"),
    ("cubic.isolate_s", "s"),
    ("cubic.isolate_calls", "count"),
    ("cubic.isolate_per_n", "calls/n"),
    ("cubic.lemma_s", "s"),
    ("cubic.log_approx_calls", "count"),
    ("cubic.constants_calls", "count"),
    ("units.s", "s"),
    ("units.decompose_calls", "count"),
    ("solver.solve_s", "s"),
    ("solver.solve_calls", "count"),
    ("solver.y_rows_per_s", "rows/s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Nesting and self-time sums are checked to this many seconds.
TOLERANCE_S = 1e-6


class TraceError(Exception):
    """The spans do not nest inside the process or do not add up."""


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(record, t_spawn, t_exit, report):
    """Per-layer metrics of one traced op (all but trace.overhead_s)."""
    spans = record["spans"]
    layer_of = record["layers"]
    wall = t_exit - t_spawn
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for key, t0, t1, parent, _ in spans:
        if t1 is None or not (t_spawn - TOLERANCE_S <= t0 <= t1 <= t_exit + TOLERANCE_S):
            raise TraceError(f"span {key} [{t0}, {t1}] outside the process [{t_spawn}, {t_exit}]")
        if parent is None:
            top_level += t1 - t0
        else:
            p = spans[parent]
            if not (p[1] <= t0 and t1 <= p[2]):
                raise TraceError(f"span {key} is not inside its parent {p[0]}")
            child_time[parent] += t1 - t0

    self_s = dict.fromkeys(TIME_METRICS, 0.0)
    calls = {}
    isolate_n = set()
    y_rows = 0
    for (key, t0, t1, _, arg), inner in zip(spans, child_time):
        self_s[layer_of[key]] += (t1 - t0) - inner
        calls[key] = calls.get(key, 0) + 1
        if key == "cubic.isolate_roots":
            isolate_n.add(arg)
        elif key == "solver.solve_bruteforce":
            y_rows += arg
    cli_self = wall - top_level
    total = sum(self_s.values()) + cli_self
    if abs(total - wall) > TOLERANCE_S * max(1, len(spans)):
        raise TraceError(f"layer self times add up to {total} s, not the traced wall {wall} s")

    counts = record["counts"]
    probes = len(report.get("trace", [])) if report else 0
    m = dict(self_s)
    m.update({
        "sequences.hypotheses_calls": calls.get("sequences.check_hypotheses", 0)
        + calls.get("sequences.check_hypotheses_at", 0),
        "algebraic.field_arith_calls": calls.get("algebraic.field_arith", 0),
        "bounds.probes": probes,
        "bounds.log_coeff_bound_calls": counts.get("bounds.log_coeff_bound", 0),
        "bounds.log_coeff_bound_per_probe": _ratio(counts.get("bounds.log_coeff_bound", 0), probes),
        "cubic.isolate_calls": calls.get("cubic.isolate_roots", 0),
        "cubic.isolate_per_n": _ratio(calls.get("cubic.isolate_roots", 0), len(isolate_n)),
        "cubic.log_approx_calls": calls.get("cubic.verify_log_approx", 0),
        "cubic.constants_calls": counts.get("cubic.compute_constants", 0),
        "units.decompose_calls": calls.get("units.unit_decompose", 0),
        "solver.solve_calls": calls.get("solver.solve_bruteforce", 0),
        "solver.y_rows_per_s": _ratio(y_rows, self_s["solver.solve_s"]),
        "cli.self_s": cli_self,
    })
    return m
