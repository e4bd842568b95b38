"""Smoke tests run in a subprocess: every experiment script runs to
completion, and the console entry point exits with the documented code."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(argv, cwd, timeout):
    """Run `python argv` in cwd with the package's src/ on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_exits_0(script, tmp_path):
    # run in a temporary directory: scripts may write results/ under the cwd
    proc = _run([str(script)], tmp_path, 240)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("args, files", [
    (["verify", "bogus"], {}),
    (["report", "."], {}),
    # an output path that cannot be written: no such directory, or a file
    (["report", ".", "--out", "missing_dir/x.svg"], {"energy.csv": "t,E\n0,1\n1,0.5\n"}),
    (["analyze", "cfg.json", "--out", "cfg.json"], {"cfg.json": "{}"}),
], ids=["verify-bogus", "report-empty-dir", "report-out-missing-dir", "analyze-out-is-file"])
def test_cli_process_exits_64(args, files, tmp_path):
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    proc = _run(["-m", "wavedecay.cli", *args], tmp_path, 60)
    assert proc.returncode == 64, proc.stderr[-2000:]
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert not (tmp_path / "manifest.json").exists()


def test_stiff_profile_exits_3_within_the_step_budget(tmp_path):
    # a forced ray this stiff shrinks the DOP853 step without end; the step
    # budget ends it with StepUnderflow long before the timeout
    cfg = {
        "C": [0.0] * 12 + [-1.0] + [0.0] * 14,
        "ray": {"sigma": 0.0, "omega": [1.0, 0.0], "eps": 0.1, "mu": 0.05, "t_end": 1e6,
                "forcing": {"type": "envelope", "amplitude": 1e12}},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = _run(["-m", "wavedecay.cli", "profile", "cfg.json", "--out", "out"], tmp_path, 60)
    assert proc.returncode == 3, proc.stderr[-2000:]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"].startswith("StepUnderflow")


def test_symbol_layers_import_without_scipy(tmp_path):
    # trig and structure are pure numpy; the package root must not pull in
    # profile_ode, wave or scipy behind them
    code = ("import sys, wavedecay.trig, wavedecay.structure; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('wavedecay.profile_ode', 'wavedecay.wave')))")
    proc = _run(["-c", code], tmp_path, 60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_cli_imports_without_scipy(tmp_path):
    # scipy is a test-only oracle: no command's import chain loads it
    code = ("import sys, wavedecay.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = _run(["-c", code], tmp_path, 60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_commands_run_with_scipy_unimportable(tmp_path, monkeypatch):
    # an install without scipy: a scipy package that fails to import shadows
    # the real one
    stub = tmp_path / "no_scipy"
    (stub / "scipy").mkdir(parents=True)
    (stub / "scipy" / "__init__.py").write_text("raise ImportError('no scipy here')\n")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(stub)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    assert _run(["-c", "import scipy"], tmp_path, 60).returncode != 0
    cfg = {
        "C": [0.0] * 12 + [-1.0] + [0.0] * 14,
        "data": {"kind": "smooth_bump", "R": 1.0, "eps": 0.1},
        "grid": {"h": 0.25, "T": 3.0, "L": 5.0, "checkpoint_interval": 1.0},
        "rays": [{"sigma": 0.0, "omega": [1.0, 0.0]}],
        "ray": {"sigma": 0.0, "omega": [1.0, 0.0], "eps": 0.1, "mu": 0.05, "t_end": 1e6},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for argv in (["analyze", "cfg.json", "--out", "analyze"],
                 ["profile", "cfg.json", "--out", "profile"],
                 ["simulate", "cfg.json", "--out", "simulate"],
                 ["verify", "algebra"]):
        proc = _run(["-m", "wavedecay.cli", *argv], tmp_path, 120)
        assert proc.returncode == 0, (argv, proc.stderr[-2000:])
