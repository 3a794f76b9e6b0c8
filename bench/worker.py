"""One benchmark process: set up one workload, time it, check it, report.

Started by ``bench/run.py`` in a fresh interpreter, from the root of a
checkout, so that ``peak_rss_mb`` and ``setup_s`` belong to one workload.
The last line of standard output is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

#: Timed passes over the operation list when the time budget allows fewer.
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


# numpy, dbexp and the benchmark modules that use numpy are imported inside
# functions, after main() has capped the BLAS threads.


def import_dbexp():
    """Import dbexp from ./src of the checkout, never from an installed copy."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import dbexp
    import dbexp.cli

    if not os.path.abspath(dbexp.__file__).startswith(src + os.sep):
        raise SystemExit(f"dbexp was imported from {dbexp.__file__}, not from {src}")
    return dbexp


def blas_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def warm_up(dbexp, np, workload: str, scratch: str) -> None:
    """First calls pay lazy BLAS/LAPACK set-up (the first eigvalsh of a process is ~25x slower)."""
    rng = np.random.default_rng(0)
    n = 40
    x = rng.standard_normal((n, 2))
    design = dbexp.make_complete(n, n // 2)
    z = dbexp.draw(design, 0).assignment
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dbexp.AteEstimator(design, "two_r", bound="borrowed-iterative").fit(
            x[:, 0] + z + rng.standard_normal(n), z, covariates=x
        )
    if workload == "simulate":
        import workloads

        out = os.path.join(scratch, "warm-up")
        dbexp.cli.main.main(
            args=["simulate", "--n-units", "60", "--n-clusters", "12", "--m1", "5",
                  "--replications", "10", "--out-dir", out],
            prog_name="dbexp", standalone_mode=False,
        )
        workloads.read_reports(out)


def build_ops(dbexp, workload: str, seed: int, scratch: str):
    """(operations, covariates used by the identity check)."""
    import workloads

    if workload == "fit-analytic":
        inputs = workloads.analytic_inputs(seed)
        return workloads.analytic_ops(dbexp, inputs), inputs["x"]
    if workload == "fit-dense":
        inputs = workloads.dense_inputs(seed)
        return workloads.dense_ops(dbexp, inputs), inputs["x"]
    if workload == "simulate":
        return workloads.simulate_ops(dbexp.cli, seed, scratch), None
    raise SystemExit(f"unknown workload {workload!r}")


def run_pass(ops):
    """Run every operation once; returns (wall seconds, CPU seconds, [(name, output, error)])."""
    results = []
    start, cpu = time.perf_counter(), time.process_time()
    for name, op in ops:
        try:
            results.append((name, op(), None))
        except Exception:  # an operation that raises is counted as failed, not fatal
            results.append((name, None, traceback.format_exc()))
    return time.perf_counter() - start, time.process_time() - cpu, results


class Checker:
    """Compares every operation's output with the recorded reference."""

    def __init__(self, workload: str, seed: int, x):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.x = x
        with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
            self.reference = json.load(fh)[workload].get(str(workloads.input_seed(seed)))
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, results) -> None:
        wl = self.workloads
        for position, (name, output, error) in enumerate(results):
            self.attempted += 1
            if error is not None:
                problems = [f"{name} raised:\n{error}"]
            elif self.reference is None:
                problems = [f"{name}: no reference recorded for this input seed"]
            elif self.workload == "simulate":
                problems = wl.check_simulate(output, self.reference, self.first_digests)
                if self.first_digests is None:
                    self.first_digests = output["digests"]
            else:
                problems = wl.check_fit(name, output, self.reference[position], self.x)
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join("src", "dbexp", "__init__.py")):
        print("error: run from the root of a dbexp checkout (src/dbexp is missing)", file=sys.stderr)
        return 2
    import numpy as np

    dbexp = import_dbexp()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ops, x = build_ops(dbexp, args.workload, args.seed, scratch)
        warm_up(dbexp, np, args.workload, scratch)
        setup_s = time.monotonic() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        checker = Checker(args.workload, args.seed, x)
        report = {"setup_s": setup_s}
        if args.trace:
            import tracing

            untraced_s, untraced_cpu_s, results = run_pass(ops)
            checker.check(results)
            tracer = tracing.Tracer()
            traced_ops = [(name, tracer.wrap_op(name, op)) for name, op in ops]
            tracer.install()
            try:
                traced_s, traced_cpu_s, results = run_pass(traced_ops)
            finally:
                tracer.uninstall()
            checker.check(results)
            report["per_layer"], report["absent"] = tracer.metrics(untraced_s, traced_s)
            report["pass_s"] = [untraced_s, traced_s]
            report["pass_cpu_s"] = [untraced_cpu_s, traced_cpu_s]
            report["run_s"] = untraced_s
            tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            passes, cpu = [], []
            start = time.monotonic()
            while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
                elapsed, elapsed_cpu, results = run_pass(ops)
                passes.append(elapsed)
                cpu.append(elapsed_cpu)
                checker.check(results)
            report["pass_s"] = passes
            report["pass_cpu_s"] = cpu
            report["run_s"] = statistics.median(passes)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report.update(attempted=checker.attempted, failed=checker.failed,
                      problems=checker.problems[:20])
        report["env"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(np),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        }
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
