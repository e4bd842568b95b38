"""Smoke tests run in a subprocess: every experiment script runs to
completion, and the console entry point exits with the documented code."""

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


def test_symbol_layers_import_without_scipy(tmp_path):
    # trig and structure are pure numpy; the package root must not pull in
    # profile_ode, wave or scipy behind them
    code = ("import sys, wavedecay.trig, wavedecay.structure; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = _run(["-c", code], tmp_path, 60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
