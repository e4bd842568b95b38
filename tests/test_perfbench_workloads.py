"""The benchmark's workloads still build and run against the package.

perfbench/workloads.py builds its inputs from the package's public names;
a name or signature that drifts would otherwise show only as a failed
benchmark run.  This builds every workload's inputs and runs and checks
one operation of each kind that symbol-survey and ray-ensemble make, and
pins ray-ensemble's unforced operations to the general forcing path.
"""

import importlib
import math
from pathlib import Path

from wavedecay.profile_ode import EnvelopeForcing, integrate_profile

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


def test_unforced_rays_match_a_zero_envelope_through_the_general_path(monkeypatch):
    # ray-ensemble's unforced ops take integrate_profile's ZeroForcing path,
    # which makes no forcing call; a zero-amplitude envelope takes the general
    # one, whose every call returns +0.0, so the two must agree bit for bit
    # ("fixed" sign, as "adversarial" gives -0.0 for a negative V)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    rays = workloads.RayEnsemble(seed=1)
    unforced = [i for i, op in enumerate(rays.ops) if op[0] == "unforced"][:4]
    for i in unforced:
        _, _, ray, kappa = rays.ops[i]
        P, series = rays.run(i)
        general = integrate_profile(P, ray, EnvelopeForcing(0.0, ray.mu, sign_mode="fixed"),
                                    v0=math.sqrt(kappa / P))
        for name in ("times", "V", "G", "Phi"):
            assert getattr(series, name).tobytes() == getattr(general, name).tobytes(), name
