"""The benchmark's workloads still build and run against the package.

perfbench/workloads.py builds its inputs from the package's public names;
a name or signature that drifts would otherwise show only as a failed
benchmark run.  This builds every workload's inputs and runs and checks
one operation of each kind that symbol-survey and ray-ensemble make.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_workload_inputs_build_and_one_operation_of_each_kind_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    built = {name: cls(seed=1) for name, cls in workloads.WORKLOADS.items()}
    assert set(built) == {"pde-damped", "pde-linear-dense", "symbol-survey", "ray-ensemble"}

    survey = built["symbol-survey"]
    assert survey.check(0, survey.run(0)) == 1.0
    rays = built["ray-ensemble"]
    first = {}
    for i, op in enumerate(rays.ops):
        first.setdefault(op[0], i)
    assert set(first) == {"unforced", "forced", "matsumura"}
    for i in first.values():
        assert rays.check(i, rays.run(i)) == 1.0
