"""Cold-process benchmark of the split-thue command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a split-thue checkout; it imports the package from
`src/`. Each operation (op) is one `split-thue` command in a fresh child
process, one child at a time (a closed loop with one client), because users run
one command per family and wait for its verdict. Every verdict is checked
against references that do not come from the code under test (see check.py).

Each workload has one timed main op, repeated until `--seconds` would be
exceeded, and optional probe ops that are run once per run and only checked.
Every op of the workloads in BENCHMARK.json gives the right answer today. The
`known-defects` workload runs the cases that do not, so that they stay visible:
its `correct` is false until they are fixed.

With `--trace 0` the last line of stdout is a JSON object whose metrics are the
end-to-end ones: medians over the run's main ops of wall time, CPU time and peak
memory, and of set-up time (import plus family build, at least MIN_SETUPS
samples). On a shared 2-vCPU VM the speed of this work drifts by a quarter or
more over minutes, so times are reported at reference speed: a fixed reference
workload (calibrate.py) runs right before each timed op, each time is divided
by that workload's time and multiplied by REFERENCE_S, and then the median is
taken. The raw times are printed above the result.

With `--trace 1` untraced and traced main ops alternate and the metrics are per
layer (see layers.py), in raw seconds. Lines above the last one give the run
environment, sample counts, failed ops and every wrong verdict.
"""

import argparse
import collections
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402

MIN_SETUPS = 3
# Seconds the reference workload takes at reference speed: about its time on an
# idle 2-vCPU Intel Xeon VM (Python 3.11, pure-Python mpmath), so reported times
# read close to raw seconds there.
REFERENCE_S = 0.6
# Every child must end before the run's own 180-second limit.
RUN_LIMIT_S = 170.0
N_CAP = 10**25
BOUNDS_CHAIN_CAP = 10**19
EXIT_BOUND = 3  # split_thue.cli.EXIT_BOUND: no n0 below the cap


@dataclass(frozen=True)
class Op:
    command: str  # solve | verify | bounds
    family: str
    n_range: tuple = ()
    y_max: int = 0
    bits: int = 0  # 0: the CLI's default precision
    n_cap: int = N_CAP  # bounds only
    exit_code: int = 0  # the CLI's exit code for the right answer

    def cli_args(self, config_path):
        args = [self.command, str(config_path)]
        if self.n_range:
            args += ["--n-lo", str(self.n_range[0]), "--n-hi", str(self.n_range[1])]
        if self.y_max:
            args += ["--y-max", str(self.y_max)]
        if self.bits:
            args += ["--bits", str(self.bits)]
        if self.command == "bounds":
            args += ["--n-cap", str(self.n_cap)]
        return args

    def describe(self):
        return "split-thue " + " ".join(self.cli_args(f"<{self.family}>"))


def workload_ops(name, seed):
    """(main op, probe ops) of a workload; the seed shifts the solve window."""
    rng = random.Random(seed)
    if name == "solve-desk":
        # Brute-force solving dominates; nothing in cubic, units or bounds runs.
        n_lo = 2 + rng.randrange(2)
        return Op("solve", "fib-pow2", (n_lo, n_lo + 10), y_max=5000), ()
    if name == "verify-deep":
        # Root isolation, lemma checks and unit decomposition for many n, with
        # little solving.
        return Op("verify", "fib-pow2", (2, 60), y_max=50, bits=512), ()
    if name == "bounds-chain":
        # The n0 chain with a cheap degree-2 field, capped below n0 (about
        # 5.9e19): the xi branches do not contradict by the cap, so the right
        # answer is "no crossing", exit code 3.
        return Op("bounds", "fib-pow2", n_cap=BOUNDS_CHAIN_CAP, exit_code=EXIT_BOUND), ()
    if name == "known-defects":
        # The known defects, each of which fails: n0 from the float comparison
        # in bounds._branch_report, and at the default 256 bits
        # unit_decompose raises for n >= 63 and n = 96, 97 do not certify.
        main = Op("bounds", "fib-pow2")
        probes = (Op("verify", "fib-pow2", (62, 64), y_max=50),
                  Op("verify", "fib-pow2", (95, 97), y_max=50))
        return main, probes
    raise ValueError(f"unknown workload {name}")


# known-defects fails until those defects are fixed, so it is not one of the
# workloads in BENCHMARK.json.
WORKLOADS = ("solve-desk", "verify-deep", "bounds-chain", "known-defects")


@dataclass
class OpResult:
    op: Op
    mode: str
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stderr: str
    t_spawn: float
    t_exit: float
    record: dict = None
    report: dict = None
    reference: tuple = None  # (wall, CPU) seconds of the reference workload just before
    problems: list = field(default_factory=list)

    @property
    def setup_s(self):
        rec = self.record or {}
        if "import" not in rec or "build" not in rec:
            return None
        return (rec["import"][1] - rec["import"][0]) + (rec["build"][1] - rec["build"][0])


class Runner:
    def __init__(self, workdir, seed, t_begin):
        self.workdir = workdir
        self.seed = seed
        self.t_begin = t_begin
        self.configs = {}
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("SPLIT_THUE_BITS", None)

    def config_path(self, family):
        if family not in self.configs:
            path = self.workdir / f"{family}.json"
            spec = check.FAMILIES[family]
            path.write_text(json.dumps({"name": f"{family}-seed{self.seed}", **spec}))
            self.configs[family] = path
        return self.configs[family]

    def _spawn(self, argv, base):
        """Run one child to completion: (t_spawn, t_exit, status, rusage, timed out)."""
        timeout = RUN_LIMIT_S - (time.perf_counter() - self.t_begin)
        if timeout <= 1:
            raise RuntimeError("no time left for another child within the run limit")
        timed_out = []
        with open(base.with_suffix(".out"), "wb") as out, open(base.with_suffix(".err"), "wb") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)

            def on_alarm(signum, frame):
                timed_out.append(True)
                proc.kill()

            signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t_exit = time.perf_counter()
        return t_spawn, t_exit, status, usage, bool(timed_out)

    def calibrate(self):
        """Wall and CPU seconds of one run of the reference workload."""
        self.count += 1
        base = self.workdir / f"cal{self.count}"
        t_spawn, t_exit, status, usage, _ = self._spawn([sys.executable, str(HERE / "calibrate.py")], base)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("reference workload failed: " + base.with_suffix(".err").read_text())
        return t_exit - t_spawn, usage.ru_utime + usage.ru_stime

    def run(self, op, mode, reference=False):
        """Run one op and collect its timings and outputs; with `reference`,
        time the reference workload right before it."""
        ref = self.calibrate() if reference else None
        self.count += 1
        base = self.workdir / f"op{self.count}"
        record_path = base.with_suffix(".record.json")
        argv = [sys.executable, str(HERE / "child.py"), str(record_path), mode,
                *op.cli_args(self.config_path(op.family))]
        t_spawn, t_exit, status, usage, timed_out = self._spawn(argv, base)
        res = OpResult(
            op=op, mode=mode, wall=t_exit - t_spawn, cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024, exit_code=os.waitstatus_to_exitcode(status),
            timed_out=timed_out, stderr=base.with_suffix(".err").read_text(errors="replace"),
            t_spawn=t_spawn, t_exit=t_exit, reference=ref,
        )
        if record_path.exists():
            res.record = json.loads(record_path.read_text())
        if mode != "setup":
            try:
                res.report = json.loads(base.with_suffix(".out").read_text())
            except ValueError:
                res.report = None
        return res


def check_op(res, refs, exact_for):
    """Fill res.problems; return the op's Verdicts (None if unchecked)."""
    if res.timed_out:
        res.problems.append("timed out")
    if "Traceback" in res.stderr:
        last = res.stderr.strip().splitlines()[-1]
        res.problems.append(f"traceback: {last}")
    if res.exit_code != res.op.exit_code:
        res.problems.append(f"exit code {res.exit_code}, expected {res.op.exit_code}")
    if res.report is None:
        res.problems.append("no JSON report on stdout")
    imported = ((res.record or {}).get("env") or {}).get("split_thue_file", str(SRC))
    if not Path(imported).is_relative_to(SRC):
        res.problems.append(f"split_thue imported from {imported}, not from {SRC}")
    op = res.op
    report = res.report or {}
    try:
        if op.command == "solve":
            v = check.check_solve(report, refs[op.family], *op.n_range)
        elif op.command == "verify":
            v = check.check_verify(report, refs[op.family], op.family, *op.n_range)
        else:
            v = check.check_bounds(report, op.family, op.n_cap, exact_for(op.family))
    except Exception as exc:  # the checker must report, not crash, on any output
        res.problems.append(f"check failed: {type(exc).__name__}: {exc}")
        return None
    if v.wrong:
        res.problems.append(f"{len(v.wrong)} wrong verdicts")
    return v


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.perf_counter()

    if not (SRC / "split_thue" / "cli.py").is_file():
        print(f"error: no split_thue package under {SRC}; run from a split-thue checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Users run an installed package, whose bytecode is compiled at install time.
    compileall.compile_dir(str(SRC / "split_thue"), quiet=1)

    main_op, probes = workload_ops(args.workload, args.seed)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        return run_workload(args, main_op, probes, workdir, t_begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, main_op, probes, workdir, t_begin):
    runner = Runner(workdir, args.seed, t_begin)
    plain, traced = [], []
    t_loop = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        if args.trace:
            plain.append(runner.run(main_op, "plain"))
            traced.append(runner.run(main_op, "trace"))
        else:
            plain.append(runner.run(main_op, "plain", reference=True))
        cycle = time.perf_counter() - t_cycle
        if time.perf_counter() - t_loop + cycle > args.seconds:
            break
    probe_results = [runner.run(op, "plain") for op in probes]
    setup_probes = []
    while not args.trace and sum(r.setup_s is not None for r in plain + setup_probes) < MIN_SETUPS:
        res = runner.run(main_op, "setup", reference=True)
        if res.setup_s is None:
            raise RuntimeError("the set-up probe did not build the family")
        setup_probes.append(res)

    refs = {fam: check.SolutionReference(fam) for fam in check.FAMILIES}
    exact = {}

    def exact_for(family):
        if family not in exact:
            exact[family] = check.ExactBranches(family, main_op.bits or 256)
        return exact[family]

    ops = plain + traced + probe_results
    verdicts_checked = verdicts_wrong = 0
    wrong_lines = collections.Counter()
    for res in ops:
        v = check_op(res, refs, exact_for)
        if v is not None:
            verdicts_checked += v.checked
            verdicts_wrong += len(v.wrong)
            wrong_lines.update((res.op.describe(), line) for line in v.wrong)
    failed = [r for r in ops if r.problems]

    env = dict(next((r.record["env"] for r in ops if r.record and "env" in r.record), {}))
    env.update(nproc=os.cpu_count(), seed=args.seed, workload=args.workload)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"main op: {main_op.describe()}")
    for op in probes:
        print(f"probe op: {op.describe()}")

    if args.trace:
        metrics, lines = trace_metrics(plain, traced)
    else:
        metrics, lines = plain_metrics(plain, setup_probes)
    for line in lines:
        print(line)

    print(f"ops_failed_share = {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)} ops)")
    print(f"verdicts_wrong = {verdicts_wrong} (of {verdicts_checked} checked)")
    for res in failed:
        print(f"failed op: {res.op.describe()} [{res.mode}]: {'; '.join(res.problems)}")
    for (desc, line), times in sorted(wrong_lines.items()):
        print(f"wrong verdict ({times}x) in {desc}: {line}")
    for family, ex in sorted(exact.items()):
        reported = next((r.report for r in ops if r.report and r.op.family == family), None)
        for line in check.exact_findings(reported or {}, family, ex):
            print(f"exact check {family}: {line}")

    result = {
        "correct": not failed and verdicts_wrong == 0,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def plain_metrics(plain, setup_probes):
    setups = [r for r in plain + setup_probes if r.setup_s is not None]
    samples = {
        "wall_s": ("s", [(r.wall, r.reference[0]) for r in plain]),
        "cpu_s": ("s", [(r.cpu, r.reference[1]) for r in plain]),
        "setup_s": ("s", [(r.setup_s, r.reference[0]) for r in setups]),
        "peak_rss_mb": ("MB", [(r.rss_mb, None) for r in plain]),
    }
    refs = [r.reference[0] for r in plain + setup_probes]
    metrics = {}
    lines = [f"reference workload: median {statistics.median(refs):.4g} s wall over {len(refs)} runs "
             f"({' '.join(f'{w:.4g}' for w in refs)}); times below are scaled to {REFERENCE_S} s"]
    for name, (unit, pairs) in samples.items():
        if not pairs:
            raise RuntimeError(f"no samples for {name}")
        raw = [v for v, _ in pairs]
        value = statistics.median(v * REFERENCE_S / ref if ref else v for v, ref in pairs)
        metrics[name] = {"value": value, "unit": unit}
        q1, q3 = quartiles(raw)
        scaled = f" at reference speed (raw median {statistics.median(raw):.6g} {unit})" if pairs[0][1] else ""
        lines.append(f"{name} = {value:.6g} {unit}{scaled}; {len(raw)} samples, raw quartiles "
                     f"{q1:.6g}..{q3:.6g}, raw samples {' '.join(f'{v:.4g}' for v in raw)}")
    return metrics, lines


def trace_metrics(plain, traced):
    per_op = []
    for res in traced:
        if not res.record:
            raise RuntimeError(f"traced op left no record (exit code {res.exit_code})")
        missing = res.record.get("missing")
        if missing:
            print(f"warning: traced functions not found: {', '.join(missing)}")
        per_op.append(layers.layer_metrics(res.record, res.t_spawn, res.t_exit, res.report))
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    metrics, lines = {}, []
    for name, unit in layers.PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(m[name] for m in per_op)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} = {value:.6g} {unit} (median of {len(per_op)} traced ops)")
    lines.append(f"traced wall_s = {statistics.median(r.wall for r in traced):.6g} s, "
                 f"untraced wall_s = {statistics.median(r.wall for r in plain):.6g} s")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
