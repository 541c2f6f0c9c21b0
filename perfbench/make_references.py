"""Regenerate ``references.json``: p-values the benchmark's checks compare against.

Usage, from the repository root::

    python3 perfbench/make_references.py

For each workload, three reference inputs (seeds 0-2, op 0) are decided.
Exact plans are recorded as they are; Monte Carlo plans are re-run with
``REFERENCE_REPLICATES`` relabelings so that the recorded p-value sits close
to the permutation p-value that any correct stream estimates.  Run this only
when a workload's inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

REFERENCE_REPLICATES = {"sim-small-n": 9999, "kernel-gram": 4999, "large-n-csv": 9999}
SEEDS = (0, 1, 2)


def main() -> int:
    workloads = run._import_workloads()
    out = {"note": "p-values of the reference inputs; written by perfbench/make_references.py",
           "workloads": {}}
    for name in run.WORKLOAD_NAMES:
        wl = workloads.make(name)
        cases = []
        for seed in SEEDS:
            case = wl.case(seed, 0)
            entry = {"seed": seed, "op": 0, "mode": case["plan"].mode}
            if entry["mode"] == "monte_carlo":
                b = REFERENCE_REPLICATES[name]
                case["plan"] = replace(case["plan"], replicates=b)
                entry["replicates"] = b
            entry["p_values"] = [o.p_value for o in wl.decide(case)]
            cases.append(entry)
            print(name, entry, file=sys.stderr)
        out["workloads"][name] = {"params": wl.params(), "cases": cases}
    run.REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
