"""Assemble a ``BENCH_<label>.json`` from alternating perfbench runs of two checkouts.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --before PARENT_DIR --after CHANGE_DIR --out BENCH_label.json

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts, each with its own
``perfbench/run.py``; the file names them by directory name.  The workloads,
the run length and the end-to-end metrics with their direction come from
this repository's ``BENCHMARK.json``.  For every workload it runs
``--trace 0`` once in each checkout, alternating which side goes first, for
10 pairs (seeds 1..10), then one ``--trace 1`` run of each workload per side
(seed 1).  The file holds the sha256 of the ``perfbench/`` tree both
checkouts share, every run's metrics with its ``# env`` object (the machine
as that run saw it) and the host's ``os.getloadavg()`` just before it
started, the median, quartiles and range of the end-to-end metrics per
side, per metric the number of pairs in which the after side was better,
and per metric one verdict (see `verdict`), which the script also prints.
The load averages let a gain from using a second CPU be read against how
busy the host was.

Before the first run it byte-compiles ``src/`` of both checkouts
(``python -m compileall -q src``) and records that it did: runs that
inherit ``PYTHONDONTWRITEBYTECODE=1`` would otherwise compile every module
again, and ``setup_s`` and ``peak_rss_mb`` would count that compilation.

Both checkouts must hold the same ``perfbench/`` tree, or the script stops
before any run.  A run that exits non-zero or prints no result is recorded
with ``correct: false`` and its exit code, and the script goes on; at the end
it names every run that was not correct or had failed ops, and exits 1 if
there was any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]


def perfbench_sha256(checkout: Path) -> str:
    """sha256 over the relative path and bytes of every file of ``perfbench/``, caches skipped."""
    digest = hashlib.sha256()
    root = checkout / "perfbench"
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def compile_sources(checkout: Path) -> bool:
    """Byte-compile the checkout's ``src/`` into its ``__pycache__`` directories."""
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout)
    return done.returncode == 0


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: the load average before it, its ``# env`` object
    and its last-line JSON.

    A run that exits non-zero or whose last line is not its result is kept
    as ``correct: false`` with the exit code and the end of its stderr.
    """
    loadavg = os.getloadavg()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    out = done.stdout.splitlines()
    record = {"loadavg": loadavg, "env": None, "seed": seed, "trace": trace,
              "returncode": done.returncode, "correct": False, "attempted": None, "failed": None, "metrics": {}}
    try:
        record["env"] = next(json.loads(line[len("# env "):]) for line in out
                             if line.startswith("# env "))
        result = json.loads(out[-1])
        record.update(correct=result["correct"] and done.returncode == 0,
                      attempted=result["attempted"], failed=result["failed"],
                      metrics={k: m["value"] for k, m in result["metrics"].items()})
    except (StopIteration, IndexError, KeyError, TypeError, ValueError):
        record["stderr_tail"] = done.stderr[-2000:]
    print(f"{checkout.name} {workload} seed={seed} trace={trace} correct={record['correct']} "
          f"{json.dumps(record['metrics']) if not trace else ''}", file=sys.stderr, flush=True)
    return record


def is_bad(record: dict) -> bool:
    """A run that was not correct or had a failed op."""
    return not record["correct"] or (record["failed"] or 0) > 0


def summary(runs: list[dict]) -> dict:
    """Median, quartiles and range of each end-to-end metric over the runs that report it."""
    out = {}
    for key in END_TO_END:
        values = [r["metrics"][key] for r in runs if key in r["metrics"]]
        if len(values) < 2:
            out[key] = None
            continue
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[key] = {"median": median, "q1": q1, "q3": q3,
                    "min": min(values), "max": max(values), "runs": len(values)}
    return out


def wins(before: list[dict], after: list[dict]) -> dict:
    """Per end-to-end metric, the number of pairs in which the after run is better.

    A pair counts only if both runs report the metric.
    """
    sign = {"lower": -1.0, "higher": 1.0}
    return {
        key: sum(sign[better] * (a["metrics"][key] - b["metrics"][key]) > 0
                 for b, a in zip(before, after) if key in a["metrics"] and key in b["metrics"])
        for key, better in END_TO_END.items()
    }


def verdict(before: dict | None, after: dict | None, better_pairs: int, better: str,
            bound: float) -> str:
    """One end-to-end metric of one workload, judged from the two sides' summaries.

    ``worse`` when the after median is worse than the before median by more
    than ``bound``, a share of the before median.  ``unresolved`` when the
    before side's quartile distance is wider than that share, unless every
    after run reads better than every before run, or when a side has no
    summary.  ``gain`` when the after side is better in at least 9 in 10 of
    the ``PAIRS`` pairs (``better_pairs``) and the medians differ by more
    than the before side's quartile distance.  ``same`` otherwise.
    """
    if before is None or after is None:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0  # sign * (after - before) > 0: after is worse
    if sign * (after["median"] - before["median"]) > bound * abs(before["median"]):
        return "worse"
    spread = before["q3"] - before["q1"]
    if better == "lower":
        every_run_better = after["max"] < before["min"]
    else:
        every_run_better = after["min"] > before["max"]
    if spread > bound * abs(before["median"]) and not every_run_better:
        return "unresolved"
    if 10 * better_pairs >= 9 * PAIRS and sign * (before["median"] - after["median"]) > spread:
        return "gain"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    shas = {side: perfbench_sha256(path) for side, path in sides.items()}
    if shas["before"] != shas["after"]:
        parser.error(f"the checkouts' perfbench/ trees differ: {shas}")

    compiled = {side: compile_sources(path) for side, path in sides.items()}
    if not all(compiled.values()):
        parser.error(f"byte-compiling src/ failed: {compiled}")

    report = {"checkouts": {side: path.name for side, path in sides.items()},
              "perfbench_sha256": shas["after"], "seconds": SECONDS,
              "src_byte_compiled": compiled, "workloads": {}, "traced": {}}
    bad = []
    for workload in WORKLOADS:
        runs = {"before": [], "after": []}
        for seed in range(1, PAIRS + 1):
            order = ("before", "after") if seed % 2 else ("after", "before")
            for side in order:
                runs[side].append(run(sides[side], workload, seed, 0))
                if is_bad(runs[side][-1]):
                    bad.append(f"{side} {workload} seed={seed} trace=0")
        better_pairs = wins(runs["before"], runs["after"])
        summaries = {side: summary(r) for side, r in runs.items()}
        verdicts = {key: verdict(summaries["before"][key], summaries["after"][key],
                                 better_pairs[key], better, BOUNDS[key])
                    for key, better in END_TO_END.items()}
        report["workloads"][workload] = {
            "pairs": PAIRS,
            "after_better_pairs": better_pairs,
            "verdicts": verdicts,
            **{side: {"summary": summaries[side], "runs": r} for side, r in runs.items()},
        }
        for key, label in verdicts.items():
            medians = [(summaries[side][key] or {}).get("median") for side in runs]
            print(f"{workload} {key}: {label} (median before {medians[0]}, after {medians[1]}, "
                  f"{better_pairs[key]} of {PAIRS} pairs better)", flush=True)
    for workload in WORKLOADS:
        report["traced"][workload] = {}
        for side, path in sides.items():
            record = run(path, workload, 1, 1)
            if is_bad(record):
                bad.append(f"{side} {workload} seed=1 trace=1")
            report["traced"][workload][side] = record
    report["bad_runs"] = bad
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for label in bad:
        print(f"bench_pairs: run not correct or with failed ops: {label}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
