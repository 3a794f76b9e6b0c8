"""dbexp benchmark entry point.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fit-analytic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in a fresh worker process (bench/worker.py), so its peak
resident memory and set-up time are its own.  ``--trace 0`` reports the
end-to-end metrics (setup_s, run_s, peak_rss_mb) with nothing patched;
``--trace 1`` reports the per-layer metrics of a traced pass.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Workloads and their reasons are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit-analytic", "fit-dense", "simulate")

#: Extra set-up-only processes per untraced run; setup_s is the median of
#: these and the measuring process.
SETUP_PROBES = 8

#: Environment of every worker, set before numpy is imported.  One BLAS thread
#: is the steadiest setting on a shared machine and never exceeds nproc.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Wall-clock budget of one workload, within the 180 s a run may take.
TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(os.getcwd())})
    return proc.stdout.strip() or "unknown"


def run_worker(args, workload: str, deadline: float, setup_only: bool = False) -> dict:
    """Start one worker process, wait for it, and return its JSON report."""
    env = {**os.environ, **WORKER_ENV}
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(command + ["--t0", repr(t0)], env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the {workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, workload: str, deadline: float) -> dict:
    report = run_worker(args, workload, deadline)
    if not args.trace:
        setups = [report["setup_s"]]
        setups += [run_worker(args, workload, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_PROBES)]
        report["setup_samples"] = setups
        report["setup_s"] = statistics.median(setups)
    return report


def end_to_end(report: dict) -> dict:
    return {
        "setup_s": {"value": report["setup_s"], "unit": "s"},
        "run_s": {"value": report["run_s"], "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(report: dict) -> dict:
    metrics = {}
    for name, value in report["per_layer"].items():
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("_share") else "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def describe(workload: str, report: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON result line comes last."""
    error_rate = report["failed"] / report["attempted"]
    print(f"[{workload}] pass_s={[round(v, 4) for v in report['pass_s']]} "
          f"pass_cpu_s={[round(v, 4) for v in report['pass_cpu_s']]} "
          f"setup_samples_s={[round(v, 4) for v in report.get('setup_samples', [])]}")
    for name, metric in metrics.items():
        print(f"[{workload}] {name:34s} {metric['value']!r} {metric['unit']}")
    print(f"[{workload}] {'error_rate':34s} {error_rate!r} ratio "
          f"({report['failed']} failed of {report['attempted']} operations)")
    for name in report.get("absent", []):
        print(f"[{workload}] {name:34s} absent (its wrapped functions no longer exist)")
    for problem in report["problems"]:
        print(f"[{workload}] check failed: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dbexp", "__init__.py")):
        print("error: run from the root of a dbexp checkout (src/dbexp is missing)", file=sys.stderr)
        return 2
    start = time.monotonic()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "machine": platform.machine(), "commit": git_commit(), "worker_env": WORKER_ENV}
    attempted = failed = 0
    metrics: dict = {}
    for workload in workloads:
        deadline = start + TIMEOUT_S * (workloads.index(workload) + 1)
        report = measure(args, workload, deadline)
        env.update(report["env"])
        found = per_layer(report) if args.trace else end_to_end(report)
        describe(workload, report, found)
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + name: value for name, value in found.items()})
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out", f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "env": env, "report": report}, fh, indent=1)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
