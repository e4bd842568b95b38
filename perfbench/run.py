"""wavedecay benchmark: four workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload pde-damped --seed 1 --seconds 20 --trace 0

Each workload runs in fresh single-threaded processes (BLAS and OpenMP
pools pinned to one thread).  With ``--trace 0`` it prints the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` a separate traced run
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs the four workloads one after the other.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 before measuring anything.
What each workload and metric means is in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pde-damped", "pde-linear-dense", "symbol-survey", "ray-ensemble")
# the measured seconds are split over this many fresh processes, run one
# after another; each also gives one set-up sample
MEASURE_PROCESSES = 5
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)



def metric_units(traced: bool) -> dict[str, str]:
    """Names and units of the metrics to report, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload: str, seed: int, seconds: float, mode: str):
    """Start worker.py and wait for its READY line; returns (proc, setup_s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode],
        stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise WorkerError(f"{workload} worker ({mode}) failed during set-up")
    return proc, setup_s


def finish(proc) -> str:
    """Collect the rest of a worker's output; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded its time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, units: dict, traced: bool) -> dict:
    if traced:
        proc, _ = start_worker(workload, seed, seconds, "trace")
        result = json.loads(finish(proc).strip().splitlines()[-1])
        metrics = {k: (result["metrics"][k], u) for k, u in units.items()}
        return {"result": result, "metrics": metrics}
    parts, setups = [], []
    for _ in range(MEASURE_PROCESSES):
        proc, setup_s = start_worker(
            workload, seed, seconds / MEASURE_PROCESSES, "measure"
        )
        part = json.loads(finish(proc).strip().splitlines()[-1])
        parts.append(part)
        setups.append(setup_s * part["host_scale"])
    latency = sorted(s for p in parts for s in p["latency_samples"])
    errors: dict[str, int] = {}
    for p in parts:
        for e, n in p["errors"].items():
            errors[e] = errors.get(e, 0) + n
    result = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "wrong": sum(p["wrong"] for p in parts),
        "errors": errors,
        "latency_samples": len(latency),
        "host_scale": statistics.median(p["host_scale"] for p in parts),
        "environment": parts[0]["environment"],
    }
    values = {
        "goodput_per_s": statistics.median(g for p in parts for g in p["goodput_samples"]),
        "latency_ms.p50": 1e3 * percentile(latency, 0.5),
        "latency_ms.p90": 1e3 * percentile(latency, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
        "setup_s": statistics.median(setups),
    }
    metrics = {k: (values[k], u) for k, u in units.items()}
    return {"result": result, "metrics": metrics}


def percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    if not ordered:
        return 0.0
    x = q * (len(ordered) - 1)
    lo = int(x)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (x - lo) * (ordered[hi] - ordered[lo])


def report(workload: str, traced: bool, out: dict) -> dict:
    """Print the human-readable lines; return the contract JSON object."""
    r = out["result"]
    env = r["environment"]
    print(f"# {workload}: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['cpus']} CPUs, single-threaded")
    if env["field_mb"]:
        print(f"# one field is {env['field_mb']:.2f} MB: the working set is "
              "cache-resident, so no figure here measures memory bandwidth")
    for name, (value, unit) in out["metrics"].items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    if not traced:
        print(f"{workload} goodput unit = {env['goodput_unit']}; "
              f"latency over {r['latency_samples']} successful operations")
        print(f"{workload} host scale = {r['host_scale']:.4f}: times are scaled "
              "by it, so raw wall time = reported time / scale")
    else:
        print(f"{workload} spans written to {r['spans_file']}")
        for name in r["absent"]:
            print(f"{workload} absent: {name} no longer exists, its metrics read 0")
    print(f"{workload} fail_ratio = {r['failed']}/{r['attempted']}"
          + "".join(f"; {n} x {e}" for e, n in sorted(r["errors"].items())))
    return {
        "correct": r["wrong"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wavedecay" / "__init__.py").is_file():
        print(f"error: no wavedecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = metric_units(bool(args.trace))
    lines = []
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, units, bool(args.trace))
            lines.append(report(name, bool(args.trace), out))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
