"""Record the reference outputs that every benchmark run is checked against.

Run once, from the root of a checkout, at the commit whose outputs define
correct behaviour:

    python3 bench/record.py

It runs every operation of every workload for input seeds
0 .. workloads.REFERENCE_SEEDS - 1 and writes bench/reference.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before anything imports numpy

import worker  # noqa: E402


def main() -> int:
    dbexp = worker.import_dbexp()
    import workloads

    os.makedirs(worker.OUT_DIR, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    reference = {"commit": commit, "seeds": workloads.REFERENCE_SEEDS}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            ops, _ = worker.build_ops(dbexp, workload, seed, worker.OUT_DIR)
            *_, results = worker.run_pass(ops)
            for name, _, error in results:
                if error is not None:
                    print(f"{workload} seed {seed} {name} raised:\n{error}", file=sys.stderr)
                    return 1
            if workload == "simulate":
                output = results[0][1]
                reference[workload][str(seed)] = {"metrics": output["metrics"]}
            else:
                reference[workload][str(seed)] = [output["values"] for _, output, _ in results]
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(os.path.join(worker.BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
