"""The benchmark's contract, checked with the library's tests.

``perfbench/`` lies outside ``testpaths``, so a library change that broke a
workload's output check, or a name the benchmark's tracer wraps, would
otherwise show only in a benchmark run.  The two benchmark modules are
loaded from their files; nothing under ``perfbench/`` is changed.
"""

import importlib.util
from pathlib import Path

import pytest

from permkit import dataio, perm_core, testing

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_tiny_op_passes_the_workloads_own_check(name, tmp_path):
    workload = workloads.make(name, tiny=True)
    workload.prepare(3, tmp_path)
    case = workload.case(3, 0)
    assert workload.check(case, workload.run(case)) == []


def test_the_tracer_finds_every_name_it_wraps():
    # raises RuntimeError naming the first traced function that is gone
    tracer = spans.Tracer({"perm_core": perm_core, "testing": testing, "dataio": dataio})
    assert tracer.spans == []
