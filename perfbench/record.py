"""Write reference.json: every task's exact answers, one pass per workload.

    python3 perfbench/record.py

Run it only on a commit whose answers are known to be right; the benchmark
then counts any answer that differs from this file as a failure.
"""

import json
import os

from workloads import SETUP, run_pass

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    reference = {}
    for workload in SETUP:
        result = run_pass(workload, seed=0, traced=False)
        errors = {t: o for t, o in result["outputs"].items() if "error" in o}
        if errors:
            raise SystemExit(f"{workload}: tasks raised {errors}")
        reference[workload] = dict(sorted(result["outputs"].items()))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
