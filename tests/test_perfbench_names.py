"""Every name the benchmark traces still exists in the package.

perfbench/tracing.py wraps functions by name and records a name it
cannot find as absent; the metrics built on that name then read 0.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.absent == []
    finally:
        tracer.unpatch()
