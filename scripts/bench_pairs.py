"""Assemble a ``BENCH_<label>.json`` from alternating perfbench runs of two checkouts.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --before PARENT_DIR --after CHANGE_DIR --out BENCH_label.json

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts, each with its own
``perfbench/run.py``; the file names them by directory name.  The workloads,
the run length and the end-to-end metrics with their direction come from
this repository's ``BENCHMARK.json``.  For every workload it runs
``--trace 0`` once in each checkout, alternating which side goes first, for
10 pairs (seeds 1..10), then one ``--trace 1`` run of each workload per side
(seed 1).  The file holds the machine information of the first run, every
run's metrics, the median and quartiles of the end-to-end metrics per side,
and per metric the number of pairs in which the after side was better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its ``# env`` object and its last-line JSON."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    env = next(json.loads(line[len("# env "):]) for line in out if line.startswith("# env "))
    result = json.loads(out[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    print(f"{checkout.name} {workload} seed={seed} trace={trace} correct={result['correct']} "
          f"{json.dumps(metrics) if not trace else ''}", file=sys.stderr, flush=True)
    return {"env": env, "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over ``runs``."""
    out = {}
    for key in END_TO_END:
        values = [r["metrics"][key] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[key] = {"median": median, "q1": q1, "q3": q3}
    return out


def wins(before: list[dict], after: list[dict]) -> dict:
    """Per end-to-end metric, the number of pairs in which the after run is better."""
    sign = {"lower": -1.0, "higher": 1.0}
    return {
        key: sum(sign[better] * (a["metrics"][key] - b["metrics"][key]) > 0 for b, a in zip(before, after))
        for key, better in END_TO_END.items()
    }


def _without_env(result: dict) -> dict:
    return {k: v for k, v in result.items() if k != "env"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    report = {"checkouts": {side: path.name for side, path in sides.items()},
              "seconds": SECONDS, "workloads": {}, "traced": {}}
    for workload in WORKLOADS:
        runs = {"before": [], "after": []}
        for seed in range(1, PAIRS + 1):
            order = ("before", "after") if seed % 2 else ("after", "before")
            for side in order:
                runs[side].append(run(sides[side], workload, seed, 0))
        report.setdefault("machine", runs["before"][0]["env"])
        report["workloads"][workload] = {
            "pairs": PAIRS,
            "after_better_pairs": wins(runs["before"], runs["after"]),
            **{side: {"summary": summary(r), "runs": [_without_env(x) for x in r]}
               for side, r in runs.items()},
        }
    for workload in WORKLOADS:
        report["traced"][workload] = {
            side: _without_env(run(path, workload, 1, 1))
            for side, path in sides.items()
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
