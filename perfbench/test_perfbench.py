"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_workloads()
import permkit  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_emits_every_declared_metric(capsys, workload, trace):
    out = _run(capsys, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in out["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())
    if trace:
        assert out["metrics"]["trace.accounted_pct"]["value"] == pytest.approx(100.0)


@pytest.mark.parametrize(
    "module, name, workload",
    [
        ("testing", "two_sample_u", "kernel-gram"),  # observed MMD statistic
        ("perm_core", "p_value", "exact-enum"),  # decision
    ],
)
def test_perturbed_evaluator_counts_as_failed_op(capsys, monkeypatch, module, name, workload):
    mod = getattr(permkit, module)
    real = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda *a, **k: real(*a, **k) * (1.0 + 1e-6))
    out = _run(capsys, workload, 0)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(permkit.testing, "bin_data")
    modules = {"perm_core": permkit.perm_core, "testing": permkit.testing, "dataio": permkit.dataio}
    with pytest.raises(RuntimeError, match="testing.bin_data"):
        spans.Tracer(modules)
