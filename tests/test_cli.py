"""End-to-end tests of the command-line front end."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavedecay import cli, profile_ode, structure, trig, wave
from wavedecay.cli import main

EXAMPLE_CFG = {
    # F = (u_t)^2 (d_1 u): symbol restricts to cos^2(theta)
    "C": [0.0] * 12 + [-1.0] + [0.0] * 14,
}


def _write_cfg(tmp_path, body, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_clean_classification(tmp_path):
    cfg = _write_cfg(tmp_path, EXAMPLE_CFG)
    out = tmp_path / "out"
    assert main(["analyze", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["quadratic_null"] is True
    assert report["prediction"]["nu"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["error"] is None
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_analyze_cubic_null(tmp_path):
    cfg = _write_cfg(tmp_path, {"C": [0.0] * 27})
    out = tmp_path / "out"
    assert main(["analyze", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["cubic_null"] is True
    assert "prediction" not in report


def test_analyze_sign_condition_failure_exits_2(tmp_path):
    body = {"C": [0.0] * 27}
    body["C"][0] = 1.0      # F = +(u_t)^3: symbol identically -1
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["analyze", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["agemi"]["status"] == "fails"


def test_analyze_malformed_config_exits_64(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["analyze", str(bad), "--out", str(out)]) == 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] is not None

    cfg = _write_cfg(tmp_path, {"C": [1.0, 2.0]})   # wrong tensor size
    assert main(["analyze", cfg, "--out", str(out)]) == 64
    assert main(["analyze", str(tmp_path / "missing.json"), "--out", str(out)]) == 64


# ---------------------------------------------------------------------------
# profile


def test_profile_matches_closed_form(tmp_path):
    body = dict(EXAMPLE_CFG)
    body["ray"] = {
        "sigma": 0.0, "omega": [1.0, 0.0], "eps": 0.1, "mu": 0.05,
        "t_end": 1e6, "v0": 0.5,
    }
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["profile", cfg, "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)
    t0 = rows["t"][0]
    exact = 0.5 / np.sqrt(1.0 + 0.25 * np.log(rows["t"] / t0))
    assert np.max(np.abs(rows["V"] - exact) / exact) < 1e-8
    bound = json.loads((out / "bound_report.json").read_text())
    assert bound["P"] == pytest.approx(1.0)
    assert bound["bound_holds"] is True
    assert bound["sqrtlog_constant"] < 1.05


def test_profile_degenerate_direction_flagged(tmp_path):
    body = dict(EXAMPLE_CFG)
    # symbol cos^2 vanishes in the (0, 1) direction
    body["ray"] = {"sigma": 0.0, "omega": [0.0, 1.0], "t_end": 1e4}
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["profile", cfg, "--out", str(out)]) == 0
    bound = json.loads((out / "bound_report.json").read_text())
    assert bound["degenerate_direction"] is True
    assert "sqrtlog_constant" not in bound


def test_profile_anti_dissipative_direction_exits_2(tmp_path):
    body = {"C": [0.0] * 27}
    body["C"][0] = 1.0
    body["ray"] = {"sigma": 0.0, "omega": [1.0, 0.0]}
    cfg = _write_cfg(tmp_path, body)
    assert main(["profile", cfg, "--out", str(tmp_path / "out")]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["checks"]["dissipative_direction"] is False
    assert manifest["error"].startswith("SignConditionViolated")


def test_profile_bad_time_window_exits_64(tmp_path):
    body = dict(EXAMPLE_CFG)
    body["ray"] = {"sigma": 0.0, "omega": [1.0, 0.0], "t_end": 1.0}
    cfg = _write_cfg(tmp_path, body)
    assert main(["profile", cfg, "--out", str(tmp_path / "out")]) == 64


def test_profile_ensemble_of_directions(tmp_path):
    # per-direction constants are finite wherever the symbol is positive
    for k in range(8):
        theta = 2.0 * math.pi * k / 8.0
        body = dict(EXAMPLE_CFG)
        body["ray"] = {"sigma": 0.0, "omega_angle": theta, "t_end": 1e4}
        cfg = _write_cfg(tmp_path, body, name=f"cfg{k}.json")
        out = tmp_path / f"out{k}"
        assert main(["profile", cfg, "--out", str(out)]) == 0
        bound = json.loads((out / "bound_report.json").read_text())
        if abs(math.cos(theta)) > 1e-6:
            assert not bound["degenerate_direction"]
            assert np.isfinite(bound["sqrtlog_constant"])
        else:
            assert bound["degenerate_direction"]


# ---------------------------------------------------------------------------
# simulate


SIM_CFG = {
    "C": [0.0] * 27,
    "data": {"kind": "smooth_bump", "R": 1.0, "eps": 0.1},
    "grid": {"h": 0.25, "T": 4.0, "L": 7.0, "checkpoint_interval": 2.0},
}


def test_simulate_outputs_and_checkpoints(tmp_path):
    body = json.loads(json.dumps(SIM_CFG))
    body["C"][0] = -1.0     # damping
    body["rays"] = [{"sigma": 0.0, "omega": [1.0, 0.0]}]
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "energy.csv", delimiter=",", names=True)
    assert rows["t"][-1] == pytest.approx(4.0)
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()
    header = json.loads((out / "checkpoint_0000.json").read_text())
    n = header["n"]
    raw = np.fromfile(out / "checkpoint_0000.bin", dtype="<f8")
    assert raw.size == 2 * n * n
    assert (out / "profile_ray0.csv").exists()
    assert (out / "diagnostics.json").exists()


def test_simulate_zero_amplitude_energy_is_zero(tmp_path):
    body = json.loads(json.dumps(SIM_CFG))
    body["data"]["eps"] = 0.0
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "energy.csv", delimiter=",", names=True)
    assert np.all(rows["E"] == 0.0)


def test_simulate_bound_column_present_with_prediction(tmp_path):
    body = json.loads(json.dumps(SIM_CFG))
    body["C"] = EXAMPLE_CFG["C"]    # finite-zeros symbol -> prediction exists
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    with open(out / "energy.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,E,E_bound"
    rows = np.genfromtxt(out / "energy.csv", delimiter=",", names=True)
    assert np.all(rows["E"] <= rows["E_bound"] * (1 + 1e-12))


def test_simulate_malformed_grid_exits_64(tmp_path):
    body = json.loads(json.dumps(SIM_CFG))
    del body["grid"]["h"]
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] is not None


@pytest.mark.parametrize("c0, data, grid, written", [
    # the t = 0 checkpoint is on disk when the guard trips at t = 0.25;
    # energy.csv, written at the end, is not
    pytest.param(60.0, {"kind": "smooth_bump", "R": 1.0, "eps": 2.5},
                 {"h": 0.25, "T": 12.0, "L": 18.0},
                 ["checkpoint_0000.bin", "checkpoint_0000.json"], id="anti-damping"),
    # damped, but F = -(u_t)^3 overflows and the field turns NaN
    pytest.param(-1.0, {"kind": "deriv_bump", "eps": 1e120},
                 {"h": 0.25, "L": 6.0, "T": 2.0}, [], id="overflow-to-nan"),
])
def test_simulate_blow_up_exits_3(tmp_path, c0, data, grid, written):
    body = json.loads(json.dumps(SIM_CFG))
    body["C"][0] = c0
    body["data"] = data
    body["grid"] = grid
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    # every warning is recorded here instead of being printed to stderr;
    # the guard's `error:` line is the only report a blow-up should make
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", cfg, "--out", str(out)]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "BlowUpError" in manifest["error"]
    # the manifest lists exactly the files the run left
    on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert sorted(manifest["outputs"]) == on_disk == written


def test_simulate_checkpoint_files_hold_the_streamed_levels(tmp_path):
    body = json.loads(json.dumps(SIM_CFG))
    body["C"][0] = -1.0     # damping
    body["grid"]["checkpoint_interval"] = 0.5
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert _run_quiet(["simulate", cfg, "--out", str(out)]) == 0
    solver_cfg = wave.SolverConfig(
        nonlinearity=trig.NonlinearityCoefficients.from_dict(body), **body["grid"])
    # the stream hands its levels only to a writer
    def check(k, ckpt, u, u_t):
        raw = (out / f"checkpoint_{k:04d}.bin").read_bytes()
        assert raw == u.astype("<f8").tobytes() + u_t.astype("<f8").tobytes()
        assert json.loads((out / f"checkpoint_{k:04d}.json").read_text())["t"] == ckpt.t

    k = len(list(wave.stream(solver_cfg, wave.InitialData(**body["data"]), write=check))) - 1
    assert k == 8
    assert not (out / f"checkpoint_{k + 1:04d}.bin").exists()


def _simulate_peak_levels(tmp_path, interval):
    """How far a damped simulate run at h = 0.1 (n = 141) lifts its tracemalloc
    peak after its t = 0 checkpoint, in level sizes, and the number of
    checkpoints it wrote.  The peak reached by then, set-up's, holds Python
    objects of main() whose size moves by ~0.002 level with the test order
    and the timings, so two runs would tie only to within that."""
    body = json.loads(json.dumps(SIM_CFG))
    body["C"][0] = -1.0
    body["grid"].update(h=0.1, checkpoint_interval=interval)
    cfg = _write_cfg(tmp_path, body, f"cfg_{interval}.json")
    out = tmp_path / f"out_{interval}"
    write, by_t0 = cli._write_checkpoint, []

    def write_noting_the_peak(outdir, idx, *args):
        if idx == 0:            # set-up, E and the leak at t = 0 are done
            by_t0.append(tracemalloc.get_traced_memory()[1])
        return write(outdir, idx, *args)

    # garbage left by earlier main() calls or tests would otherwise be freed,
    # or not, before the peak, whichever run it happens in
    gc.collect()
    tracemalloc.start()
    try:
        with mock.patch.object(cli, "_write_checkpoint", write_noting_the_peak):
            assert _run_quiet(["simulate", cfg, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = json.loads((out / "checkpoint_0000.json").read_text())["n"]
    assert n == 141
    return (peak - by_t0[0]) / (n * n * 8), len(list(out.glob("checkpoint_*.bin")))


def test_simulate_memory_does_not_grow_with_checkpoints(tmp_path):
    # each checkpoint goes to disk as it is made, so 41 checkpoints cost
    # what 2 do (t = 0 and T): set-up, not the checkpoints, sets the peak
    few, written_few = _simulate_peak_levels(tmp_path, 4.0)
    many, written_many = _simulate_peak_levels(tmp_path, 0.1)
    assert (written_few, written_many) == (2, 41)
    assert few == 0.0
    assert many <= few


def test_simulate_energy_does_not_depend_on_the_blas_threads(tmp_path):
    # E's sums of squares are dot products of at most 8192 elements, which
    # OpenBLAS does not split over threads: energy.csv has the same bytes
    # at one and two threads (n = 401, strips of ~16000 cells)
    body = {"C": [-1.0] + [0.0] * 26,
            "data": {"kind": "smooth_bump", "R": 1.0, "eps": 0.3},
            "grid": {"h": 0.21, "L": 42.0, "T": 40.0, "checkpoint_interval": 2.0}}
    cfg = _write_cfg(tmp_path, body)
    src = str(Path(wave.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"out_{threads}"
        runs[out] = subprocess.Popen(
            [sys.executable, "-m", "wavedecay.cli", "simulate", cfg, "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    for proc in runs.values():
        assert proc.communicate(timeout=60)[1] == b"" and proc.returncode == 0
    one, two = ((out / "energy.csv").read_bytes() for out in runs)
    assert len(one.splitlines()) == 23          # the header and 22 checkpoints
    assert one == two


def test_simulate_manifest_reports_timings(tmp_path):
    cfg = _write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out"
    assert _run_quiet(["simulate", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert set(timings) == {"analyze_s", "solver_s", "checkpoint_write_s", "cell_updates_per_s"}
    assert all(value >= 0.0 for value in timings.values())
    seconds = timings["analyze_s"] + timings["solver_s"] + timings["checkpoint_write_s"]
    assert seconds <= manifest["wall_clock_s"]
    with open(out / "energy.csv") as fh:
        assert fh.readline().strip() == "t,E"


def test_simulate_under_resolved_linear_run_exits_0(tmp_path):
    # a stable run whose E jumps at the first checkpoint (exact u_t at
    # t = 0, centred differences later) ends like any other
    body = json.loads(json.dumps(SIM_CFG))
    body["data"] = {"R": 0.5}
    body["grid"] = {"h": 0.45, "T": 8.0, "checkpoint_interval": 0.5}
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["error"] is None


# the example config of the README
README_CFG = {
    "C": [0.0] * 12 + [-1.0] + [0.0] * 14,
    "data": {"kind": "smooth_bump", "R": 1.0, "eps": 0.1},
    "grid": {"h": 0.25, "T": 10.0, "L": 16.0, "checkpoint_interval": 2.0},
    "rays": [{"sigma": 0.0, "omega": [1.0, 0.0]}],
    "ray": {"sigma": 0.0, "omega": [1.0, 0.0], "eps": 0.1, "mu": 0.05, "t_end": 1e6},
}


@pytest.mark.parametrize("h", [4.0, 4.5, 13.0, 30.0])
def test_simulate_default_L_passes_its_domain_check(tmp_path, h):
    # without L the default must fit the cone at the adjusted h_eff: with a
    # margin of 1, h = 13 and T = 26 gave L = 80 < 80.33 and exited 64.  On
    # h = 4.5 and 30 the ray tap samples at r < h, where the r-stencil would
    # cross the origin
    cfg = _write_cfg(tmp_path, README_CFG)
    out = tmp_path / "out"
    grid = json.dumps({"h": h, "T": 26.0})
    assert _run_quiet(["simulate", cfg, "--set", f"grid={grid}", "--out", str(out)]) == 0
    header = json.loads((out / "checkpoint_0000.json").read_text())
    assert header["L"] >= wave.slack_cone(26.0, 1.0, header["h"])
    assert json.loads((out / "manifest.json").read_text())["error"] is None


def test_set_flag_overrides_config(tmp_path):
    body = dict(EXAMPLE_CFG)
    body["ray"] = {"sigma": 0.0, "omega": [1.0, 0.0], "t_end": 1e4, "v0": 0.5}
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["profile", cfg, "--set", "ray.t_end=1e6", "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)
    assert rows["t"][-1] == pytest.approx(1e6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["ray"]["t_end"] == pytest.approx(1e6)
    # malformed override is a usage error
    assert main(["profile", cfg, "--set", "bogus", "--out", str(out)]) == 64


def test_simulate_deterministic_csv(tmp_path):
    cfg = _write_cfg(tmp_path, SIM_CFG)
    bodies = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        bodies.append((out / "energy.csv").read_bytes())
    assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# verify / report


def test_verify_unknown_suite_exits_64(capsys):
    assert main(["verify", "bogus"]) == 64


def test_verify_failed_check_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_SUITES", {"broken": lambda: [("always fails", False)]})
    assert main(["verify", "broken"]) == 2
    assert "[broken] FAIL: always fails" in capsys.readouterr().out


def test_verify_error_exits_with_its_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_SUITES", {
        "mapped": mock.Mock(side_effect=profile_ode.StepUnderflow("no step")),
        "unmapped": mock.Mock(side_effect=KeyError("radii")),
    })
    assert main(["verify", "mapped"]) == 3
    assert capsys.readouterr().err == "error: no step\n"
    with pytest.raises(KeyError):        # not in the table: it propagates
        main(["verify", "unmapped"])


@pytest.mark.parametrize("suite", ["algebra", "structure", "ode", "pde-smoke"])
def test_verify_suites_pass(suite, capsys):
    assert main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_report_emits_svg(tmp_path):
    cfg = _write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    svg = (out / "report.svg").read_text()
    assert svg.lstrip().startswith("<?xml")


def test_report_requires_run_dir(tmp_path):
    assert main(["report", str(tmp_path)]) == 64


@pytest.mark.parametrize("body", ["", "t,E\n", "x,E\n0,1\n", "t,E\n0,nan\n1,2\n"],
                         ids=["empty", "header-only", "no-t-column", "nan-value"])
def test_report_malformed_energy_exits_64(tmp_path, body, capsys):
    (tmp_path / "energy.csv").write_text(body)
    assert main(["report", str(tmp_path)]) == 64
    assert not (tmp_path / "report.svg").exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_report_leaves_the_simulate_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    before = (out / "manifest.json").read_bytes()
    assert main(["report", str(out)]) == 0
    assert (out / "manifest.json").read_bytes() == before
    assert json.loads(before)["command"] == "simulate"


# ---------------------------------------------------------------------------
# exit-code contract: every input gives 0/2/3/64 and a manifest


SMALL_CFG = {
    "C": EXAMPLE_CFG["C"],
    "data": {"kind": "smooth_bump", "R": 1.0, "eps": 0.1},
    "grid": {"h": 0.25, "L": 6.0, "T": 2.0},
    "rays": [{"sigma": 0.0, "omega": [1.0, 0.0]}],
    "ray": {"sigma": 0.0, "omega": [1.0, 0.0], "t_end": 1e4},
    "prediction": {"delta": 0.01},
}


# an integer literal beyond the float range: float() raises OverflowError
HUGE_INT = "1" + "0" * 400


def _run_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("command, override", [
    ("simulate", 'rays=[{"sigma": 0.0, "omega": [1.0, 0.0], "stride": 0}]'),
    ("simulate", 'grid={"h": 0.25, "T": Infinity}'),     # L omitted
    ("simulate", "grid.checkpoint_interval=Infinity"),
    ("simulate", "data.center=[1]"),
    ("simulate", 'data.center="12"'),      # a string is not two numbers
    ("simulate", "data.eps=NaN"),
    ("profile", "ray.t_end=NaN"),
    ("profile", "ray.eps=Infinity"),
    ("profile", "ray.omega_angle=NaN"),
    ("profile", "ray.support_radius=NaN"),
    ("profile", "ray.support_radius=0"),
    ("profile", "ray.v0=NaN"),
    ("profile", "ray.v0=Infinity"),
    ("profile", 'ray.forcing={"type": "envelope", "amplitude": NaN}'),
    ("profile", 'ray.forcing={"type": "envelope", "mu": NaN}'),
    ("analyze", "C=[NaN" + ", 0" * 26 + "]"),
    pytest.param(                          # the merged monomials overflow
        "analyze", "C=[1e308" + ", 1e308" * 26 + "]", id="analyze-C=[1e308, 1e308...]"
    ),
    pytest.param(                          # Psi = 1e308 cos^2: Psi'' overflows
        "analyze", "C=[0" + ", 0" * 11 + ", -1e308" + ", 0" * 14 + "]",
        id="analyze-C[1][1][0]=-1e308",
    ),
    pytest.param("simulate", f"grid.h={HUGE_INT}", id="simulate-grid.h=HUGE_INT"),
    pytest.param("profile", f"ray.v0={HUGE_INT}", id="profile-ray.v0=HUGE_INT"),
    pytest.param(
        "analyze", f"C=[{HUGE_INT}" + ", 0" * 26 + "]", id="analyze-C=[HUGE_INT, 0...]"
    ),
    ("simulate", 'rays=[{"sigma": 0.0, "omega": [1.0, 0.0], "stride": 2.5}]'),
    ("simulate", 'rays=[{"sigma": 0.0, "omega": [1.0, 0.0], "stride": Infinity}]'),
    ("simulate", "rays=[5]"),
    ("simulate", "data=5"),
    ("simulate", 'rays=[{"sigma": Infinity, "omega": [1.0, 0.0]}]'),
    ("simulate", 'rays=[{"sigma": -Infinity, "omega": [1.0, 0.0]}]'),
    ("simulate", 'rays=[{"sigma": NaN, "omega": [1.0, 0.0]}]'),
    ("simulate", "grid.h=1e-310"),         # 2L/h overflows
    ("simulate", "grid.cfl=1e-320"),       # T/dt overflows
    ("simulate", "grid.cfl=5e-324"),       # dt underflows to 0
    ("simulate", "data.kind=custom"),      # the CLI cannot pass grids
    ("simulate", "data.R=1e-310"),         # R * R underflows to 0
    pytest.param(                          # R * R overflows, on a grid that fits R
        "simulate", ["data.R=1e200", 'grid={"h": 1e199, "T": 1e199, "L": 2e200}'],
        id="simulate-data.R=1e200",
    ),
    ("simulate", "data.center=[3, 0]"),    # reach 4 does not fit L = 6, T = 2
    ("simulate", "grid.T=0.05"),           # T < dt/2 = 0.0625: no step
    ("profile", "ray.omega={}"),           # an object, not a list of two numbers
    ("profile", "ray.omega=[1e200, 0]"),   # finite, but its squared norm is inf
    ("profile", "ray.omega=[1, 0, 5]"),    # three numbers, not two
    ("simulate", 'rays=[{"omega": {"x": 1}}]'),
    ("simulate", 'rays=[{"sigma": 0.0, "omega": [1e200, 0]}]'),
    ("simulate", 'rays=[{"sigma": 0.0, "omega": [1, 0, 5]}]'),
])
def test_invalid_config_values_exit_64(tmp_path, command, override):
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    overrides = [override] if isinstance(override, str) else override
    sets = [arg for o in overrides for arg in ("--set", o)]
    # the exit is the program's own: no numpy warning on the way (an overflowed
    # monomial used to warn as it met the zeros of its Laurent expansion)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_quiet([command, cfg, *sets, "--out", str(out)]) == 64
    assert not caught, [str(w.message) for w in caught]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]


@pytest.mark.parametrize("command, override", [
    ("simulate", "data.R=true"),
    ("simulate", "grid.T=true"),
    ("simulate", 'rays=[{"sigma": 0.0, "omega": [1.0, 0.0], "stride": true}]'),
    ("simulate", 'rays=[{"sigma": 0.0, "omega": [true, false]}]'),
    ("profile", "ray.omega=[true, false]"),
    ("analyze", "C=[false" + ", 0" * 25 + ", -1]"),
    ("simulate", "grid.h=true"),
])
def test_config_booleans_exit_64(tmp_path, command, override):
    # JSON true/false is not the number 1/0
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert _run_quiet([command, cfg, "--set", override, "--out", str(out)]) == 64
    assert "true/false" in json.loads((out / "manifest.json").read_text())["error"]


@pytest.mark.parametrize("command, override", [
    ("simulate", 'data={"R": "1.0", "eps": "0.1"}'),
    ("simulate", 'grid={"h": "0.5", "T": "1.0"}'),
    ("simulate", 'grid.L="6.0"'),
    ("simulate", 'data.center=["0", "0"]'),
    ("simulate", 'rays=[{"sigma": "0", "omega": [1.0, 0.0]}]'),
    ("profile", 'ray.omega=["1", "0"]'),
    ("profile", 'ray.v0="0.4"'),
    ("analyze", 'C=["0"' + ', "0"' * 25 + ', "-1"]'),
    ("analyze", 'B=["1"' + ", 0" * 8 + "]"),
])
def test_config_strings_exit_64(tmp_path, command, override):
    # float("0.5") parses a JSON string; it is no number either
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert _run_quiet([command, cfg, "--set", override, "--out", str(out)]) == 64
    assert "string" in json.loads((out / "manifest.json").read_text())["error"]


@pytest.mark.parametrize("v0", ["1e50", "1e200"])
def test_profile_huge_amplitude_exits_3(tmp_path, v0):
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert _run_quiet(["profile", cfg, "--set", f"ray.v0={v0}", "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"].startswith("ProfileBlowUp")


# Psi = 1e-3 cos^2(theta), written with monomials of size 1e6 that cancel:
# -1e6 + (1e6 + 1e-3) cos^2 + 1e6 sin^2
CANCEL_C = json.dumps([1e6] + [0.0] * 11 + [-1e6 - 1e-3] + [0.0] * 11 + [-1e6, 0.0, 0.0])


def test_cancelling_symbol_has_two_double_zeros(tmp_path):
    # classify's floor is the monomials' rounding level (~1e-8), far below Psi
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert _run_quiet(["analyze", cfg, "--set", f"C={CANCEL_C}", "--out", str(out)]) == 0
    zeros = json.loads((out / "report.json").read_text())["classification"]["zeros"]
    assert [z["order"] for z in zeros] == [2, 2]
    # report.json prints 12 significant digits; the zeros are pi/2 and 3 pi/2 to all of them
    for z, theta in zip(zeros, (math.pi / 2, 3 * math.pi / 2)):
        assert z["theta"] == float(f"{theta:.12g}")
        assert z["leading"] == pytest.approx(1e-3, rel=1e-6)


def test_cancelling_symbol_simulation_blows_up(tmp_path):
    # the monomials of size 1e6 drive the field past the guard in the first step
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert _run_quiet(["simulate", cfg, "--set", f"C={CANCEL_C}", "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"].startswith("BlowUpError")


def test_grid_too_large_for_memory_exits_64(tmp_path, monkeypatch, capsys):
    # stands in for a grid like h = 1e-5 (~6e5 cells a side), never allocated here
    monkeypatch.setattr(cli, "run", mock.Mock(side_effect=MemoryError("no room for the grid")))
    out = tmp_path / "out"
    assert main(["simulate", _write_cfg(tmp_path, SIM_CFG), "--out", str(out)]) == 64
    assert capsys.readouterr().err == "error: no room for the grid\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == "MemoryError: no room for the grid"


def test_every_package_error_has_an_exit_code():
    errors = [
        obj for module in (trig, structure, profile_ode, wave, cli)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__ == module.__name__
    ]
    assert {"ConfigError", "NegativityDetected", "BlowUpError"} <= {e.__name__ for e in errors}
    for error in errors:
        assert issubclass(error, tuple(cli._EXIT_CODES)), error


_OVERRIDE_KEYS = [
    "C", "grid.h", "grid.L", "grid.T", "grid.cfl", "grid.checkpoint_interval",
    "data.kind", "data.R", "data.eps", "data.center",
    "ray.sigma", "ray.omega", "ray.omega_angle", "ray.eps", "ray.mu",
    "ray.t_end", "ray.v0", "ray.support_radius", "ray.forcing",
    "prediction.delta", "rays",
]
# a symbol far below 1 in size: Psi = 1e-9 cos^2(theta)
TINY_C = json.dumps([0.0] * 12 + [-1e-9] + [0.0] * 14)
# a valid tap whose sample point r*omega lies beyond the float range of grid
# coordinates: (r*omega + L)/h overflows to -inf
FAR_RAYS = json.dumps([{"sigma": 1e308, "omega": [0, -1]}])
# no large finite values, so no draw can ask for a huge grid; HUGE_INT is
# safe because every key fails to convert it before any grid is built,
# 1e-310 because every count derived from a subnormal overflows to inf, and
# CANCEL_C because only C takes a list of 27 numbers; {}, [1e200, 0] and
# FAR_RAYS because every grid key rejects an object or a list
_OVERRIDE_VALUES = [
    "NaN", "Infinity", "-Infinity", "0", "-1", "x", "[1]", "null", HUGE_INT, TINY_C,
    CANCEL_C, "1e-310", "{}", "[1e200, 0]", FAR_RAYS,
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_OVERRIDE_KEYS), st.sampled_from(_OVERRIDE_VALUES)),
        min_size=1, max_size=3,
    )
)
@example([("C", TINY_C)])
@example([("C", CANCEL_C)])
@example([("rays", FAR_RAYS)])
def test_any_override_exits_with_documented_code(overrides):
    sets = [a for key, value in overrides for a in ("--set", f"{key}={value}")]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_cfg(Path(tmp), SMALL_CFG)
        for command in ("analyze", "profile", "simulate"):
            out = Path(tmp) / command
            code = _run_quiet([command, cfg, *sets, "--out", str(out)])
            assert code in (0, 2, 3, 64), (command, overrides)
            assert (out / "manifest.json").is_file()
