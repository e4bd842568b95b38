"""One benchmark process: set up one workload, then measure or trace it.

Started by run.py, never by hand.  Prints ``READY`` once set-up is done
(run.py times set-up up to that line) and then one JSON line with the
result.

    python3 worker.py <workload> <seed> <seconds> measure|trace
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, install
from workloads import Wrong


def run_op(wl, i: int, run=None) -> dict:
    """Run and check operation i; returns its wall time, status and work."""
    run = run or wl.run
    t0 = time.perf_counter()
    try:
        result = run(i)
    except Exception as exc:          # any error the program raises is a failed op
        return {"s": time.perf_counter() - t0, "work": 0.0,
                "error": type(exc).__name__, "wrong": False}
    wall = time.perf_counter() - t0
    try:
        work = wl.check(i, result)
    except Wrong as exc:
        return {"s": wall, "work": 0.0, "error": f"Wrong: {exc}", "wrong": True}
    except Exception as exc:
        return {"s": wall, "work": 0.0, "error": type(exc).__name__, "wrong": False}
    return {"s": wall, "work": work, "error": None, "wrong": False}


def summarise(ops: list[dict]) -> dict:
    errors: dict[str, int] = {}
    for op in ops:
        if op["error"]:
            errors[op["error"]] = errors.get(op["error"], 0) + 1
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["error"]),
        "wrong": sum(1 for op in ops if op["wrong"]),
        "errors": errors,
    }


# Host speed reference.  The shared host this benchmark was built on ran
# the same code up to 1.6x slower for minutes at a time, which spread the
# raw figures of ten runs by 20-30% (IQR/median), beyond any usable bound.
# So a fixed kernel, independent of wavedecay but made of the same kinds
# of work (a scalar RK4 loop in the interpreter and a 5-point stencil on
# a 401^2 array), is timed before, after and every REFERENCE_EVERY_S
# during each pass.  The pass's times are scaled by REFERENCE_S / (the
# kernel's mean time), so they read as on a host where the kernel takes
# REFERENCE_S, close to its median on the reference machine.
REFERENCE_S = 0.015
REFERENCE_EVERY_S = 0.5


def _ref_rhs(s: float, y: float) -> float:
    return -0.5 * y ** 3 + math.exp(-s)


def reference_s() -> float:
    t0 = time.perf_counter()
    y, s, h = 1.0, 0.0, 1e-3
    for _ in range(1500):
        k1 = _ref_rhs(s, y)
        k2 = _ref_rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = _ref_rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = _ref_rhs(s + h, y + h * k3)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
    a = np.ones((401, 401))
    for _ in range(6):
        inner = a[1:-1, 1:-1]
        a[1:-1, 1:-1] = inner + 0.1 * (
            a[2:, 1:-1] + a[:-2, 1:-1] + a[1:-1, 2:] + a[1:-1, :-2] - 4.0 * inner
        )
    return time.perf_counter() - t0


def measure(wl, seconds: float) -> dict:
    """Untraced passes over the inputs for about `seconds`, at least one.

    Returns host-scaled samples; run.py pools them over several processes.
    A goodput sample is the work done / wall time of one pass.
    """
    ops: list[dict] = []
    goodput, latency, scales = [], [], []
    start = time.perf_counter()
    while True:
        refs = [reference_s()]
        last_ref = time.perf_counter()
        done = []
        for i in range(wl.pass_ops):
            done.append(run_op(wl, i))
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
        refs.append(reference_s())
        scale = REFERENCE_S / float(np.mean(refs))
        ops += done
        scales.append(scale)
        goodput.append(sum(op["work"] for op in done) / sum(op["s"] for op in done) / scale)
        latency += [op["s"] * scale for op in done if not op["error"]]
        elapsed = time.perf_counter() - start
        # stop at the pass boundary nearest to `seconds`
        if elapsed + 0.5 * elapsed / len(scales) >= seconds:
            break
    return {
        **summarise(ops),
        "goodput_samples": goodput,
        "latency_samples": latency,
        "host_scale": float(np.median(scales)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(wl, spans_path) -> dict:
    """One pass untraced, the same pass traced, then the tracemalloc
    pass on its own; returns the per-layer metrics."""
    n = wl.pass_ops
    untraced = [run_op(wl, i) for i in range(n)]
    tracer = Tracer()
    install(tracer)
    op_span = tracer.traced("bench.op", wl.run)
    try:
        traced = [run_op(wl, i, run=op_span) for i in range(n)]
    finally:
        tracer.unpatch()
    alloc = wl.alloc_peak_per_step()
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, wl, n)
    wall_u = sum(op["s"] for op in untraced)
    wall_t = sum(op["s"] for op in traced)
    metrics["trace.overhead_frac"] = wall_t / wall_u - 1.0
    metrics["wave.alloc_peak_bytes_per_step"] = float(alloc)
    return {**summarise(untraced + traced), "metrics": metrics, "absent": tracer.absent}


def layer_metrics(tracer, wl, n_ops: int) -> dict:
    def mean(name, scale):
        d = tracer.durations(name)
        return scale * float(d.mean()) if d.size else 0.0

    def count(name):
        return int(tracer.durations(name).size)

    per_cell = 1e9 / wl.cells if wl.cells else 0.0
    steps = tracer.durations("wave.advance")
    ray_w = tracer.durations("wave._ray_w")
    c = tracer.counts
    integrate_all = tracer.durations("profile_ode._integrate_adaptive")
    integrate_mats = tracer.durations(
        "profile_ode._integrate_adaptive", parent="profile_ode.check_matsumura_bound"
    )
    rays = c["profile.integrations"]
    ops_total = tracer.durations("bench.op").sum()
    layers = tracer.self_time_by_layer()
    m = {
        "wave.step_ns_per_cell.p50": (
            float(np.percentile(steps, 50)) * per_cell if steps.size else 0.0
        ),
        "wave.step_ns_per_cell.p90": (
            float(np.percentile(steps, 90)) * per_cell if steps.size else 0.0
        ),
        "wave.laplacian_ns_per_cell": mean("wave._laplacian", per_cell),
        "wave.gradients_ns_per_cell": mean("wave._gradients", per_cell),
        "wave.nonlinearity_ns_per_cell": mean("wave.apply_nonlinearity", per_cell),
        "wave.nonlinearity_calls_per_step": (
            tracer.durations("wave.apply_nonlinearity", parent="wave.advance").size
            / steps.size if steps.size else 0.0
        ),
        "wave.energy_ms_per_call": mean("wave.energy", 1e3),
        "wave.propagation_ms_per_call": mean("wave.check_propagation", 1e3),
        "wave.checkpoints": count("wave.energy") / n_ops,
        "wave.ray_tap_us_per_sample": (
            1e6 * float(ray_w.sum()) / (ray_w.size / 4) if ray_w.size else 0.0
        ),
        "wave.setup_ms": mean("wave.setup", 1e3),
        "cli.checkpoint_write_ms": mean("cli._write_checkpoint", 1e3),
        "cli.checkpoint_bytes": float(wl.facts.get("checkpoint_bytes", 0.0)),
        "cli.analyze_ms": mean("cli.analyze", 1e3),
        "structure.classify_ms": mean("structure.classify", 1e3),
        "structure.integrability_ms": mean("structure.verify_integrability", 1e3),
        "structure.quad_calls_per_symbol": count("structure._quad") / n_ops,
        "trig.poly_evals_per_symbol": count("trig.TrigPolynomial.__call__") / n_ops,
        "trig.poly_eval_us": mean("trig.TrigPolynomial.__call__", 1e6),
        "profile_ode.integrate_ms": (
            1e3 * float(integrate_all.sum() - integrate_mats.sum()) / rays if rays else 0.0
        ),
        "profile_ode.rhs_evals_per_ray": c["profile.rhs"] / rays if rays else 0.0,
        # each attempted step evaluates rhs 12 times (a full RK4 step and
        # two half steps); guard runs once per accepted step
        "profile_ode.accept_ratio": (
            c["profile.guard"] / (c["profile.rhs"] / 12) if c["profile.rhs"] else 0.0
        ),
        "profile_ode.matsumura_ms": mean("profile_ode.check_matsumura_bound", 1e3),
        "trace.unattributed_frac": layers.get("bench", 0.0) / ops_total,
    }
    for layer in ("wave", "cli", "structure", "trig", "profile_ode"):
        m[f"{layer}.self_frac"] = layers.get(layer, 0.0) / ops_total
    return m


def environment(wl) -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "field_mb": wl.cells * 8 / 1e6,
        "goodput_unit": wl.goodput_unit,
    }


def main() -> int:
    name, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    src = Path(workloads.ROOT, "src").resolve()
    if not Path(workloads.wave.__file__).resolve().is_relative_to(src):
        print(f"wavedecay imported from outside {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name](seed)
    print("READY", flush=True)
    wl.warm_up()
    if mode == "measure":
        result = measure(wl, seconds)
    else:
        spans = workloads.WORK / f"spans-{name}-seed{seed}.json"
        result = trace(wl, spans)
        result["spans_file"] = str(spans.relative_to(workloads.ROOT))
    result["environment"] = environment(wl)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
